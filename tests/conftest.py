import os

import pytest

from glzi.liouvillian import NoiseParams
from glzi.metrics import contrast
from glzi.protocol import ProtocolParams
from glzi.scan import Task, load_config, run_tasks, sweep, theta_grid
from glzi.odeint import IntegratorConfig
from glzi.states import BatterySpec

WORKERS = os.cpu_count() or 1


@pytest.fixture(scope="session")
def reference_noise() -> NoiseParams:
    return NoiseParams.from_times(118.0, 157.0, kappa=1e-4)


def fringe_results(nbar, thetas, noise, workers=WORKERS):
    """Coherent-battery fringe runs over a theta grid, phase locked to the protocol."""
    icfg = IntegratorConfig()
    tasks = []
    for th in thetas:
        p = ProtocolParams(theta_geo=float(th), nbar=nbar)
        tasks.append(Task(p, BatterySpec.coherent(nbar, p.phi_batt), noise, icfg))
    return [r for _, r, _ in run_tasks(tasks, workers)]


def classical_fringe(thetas, noise, workers=WORKERS):
    icfg = IntegratorConfig()
    tasks = [Task(ProtocolParams(theta_geo=float(th)), None, noise, icfg) for th in thetas]
    return [r for _, r, _ in run_tasks(tasks, workers)]


@pytest.fixture(scope="session")
def coherent_sweep(tmp_path_factory):
    """Desk-scale quantum-to-classical sweep shared by the acceptance criteria.

    41-point theta grid, reference noise set (the config defaults), coherent
    batteries nbar in {2, 3, 5, 7.5, 10, 15}, run serially through
    glzi.scan.sweep (one backward integration and one spot cycle per battery,
    plus the classical fringe); returns (thetas, c_classical,
    {nbar: BatterySweep}).
    """
    nbars = (2.0, 3.0, 5.0, 7.5, 10.0, 15.0)
    cfg = load_config("fringe", overrides=["grid.theta_count=41",
                                           "grid.nbar_list=" + ",".join(map(str, nbars))],
                      out_dir=tmp_path_factory.mktemp("coherent_sweep"), workers=1)
    *quantum, classical = sweep(cfg, [BatterySpec.coherent(nb) for nb in nbars] + [None])
    return theta_grid(cfg), contrast(classical.p_e), dict(zip(nbars, quantum))
