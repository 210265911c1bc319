import os

import numpy as np
import pytest

from glzi.liouvillian import NoiseParams
from glzi.metrics import contrast
from glzi.protocol import ProtocolParams
from glzi.scan import Task, run_tasks
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
def coherent_sweep(reference_noise):
    """Desk-scale quantum-to-classical sweep shared by the acceptance criteria.

    41-point theta grid, reference noise set, coherent batteries nbar in
    {2, 3, 5, 7.5, 10, 15}; returns (thetas, c_classical, {nbar: [RunResult]}).
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, 41)
    c_cl = contrast([r.p_e for r in classical_fringe(thetas, reference_noise)])
    per_nbar = {}
    for nbar in (2.0, 3.0, 5.0, 7.5, 10.0, 15.0):
        per_nbar[nbar] = fringe_results(nbar, thetas, reference_noise)
    return thetas, c_cl, per_nbar
