"""Workload plans: what the glzi CLI is asked to run, drawn from a seed.

The seed draws the battery sizes and the spot-check points; the program sees
only the resulting ``--set`` values.  Each size range keeps every battery's
Fock cutoff (``glzi.states.compute_cutoff``) constant, so the seed moves the
physics but not the cost of a cycle.

Standard library only: the benchmark process that launches the CLI must stay
small, because a child's peak resident set starts from its parent's.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Reference parameter set, passed explicitly so the checks read the same values.
PHYSICS = {
    "protocol.omega_mhz": "20",
    "protocol.delta0_mhz": "100",
    "protocol.tau_p_ns": "25",
    "protocol.tau_c_ns": "100",
    "protocol.phi_echo": "0",
    "noise.t1_ns": "118",
    "noise.t2_ns": "157",
    "noise.kappa_per_ns": "1e-4",
    "noise.nbar_th": "0",
}

# nbar ranges; compute_cutoff is constant across each (see README).
FRINGE_NBAR = ((1.74, 2.13), (4.88, 5.37), (14.39, 15.0))   # n_cut 19, 26, 43
HEATMAP_NBAR = (4.88, 5.37)                                   # n_cut 26
SQUEEZE_NBAR = ((2.70, 3.00), (9.82, 10.13))  # n_cut coherent 21/35, r=0.25 31/46,
SQUEEZE_R = (0.25, 0.5)                        # r=0.5 33/48, q=0.5 20/33
SQUEEZE_Q = (0.5,)

SMOKE_NBAR = (1.0, 1.3)


@dataclass(frozen=True)
class Battery:
    """One fringe of a squeeze-bench table: kind is coherent/amp_squeezed/number_squeezed."""

    kind: str
    nbar: float
    param: float  # r for amp_squeezed, q for number_squeezed, 0 for coherent


@dataclass
class Plan:
    experiment: str
    workers: int
    config: dict[str, str]
    outputs: list[str]              # CSV names the CLI must print, in order
    points: int                     # grid points the outputs cover
    # spot checks against the independent reference
    fringe_spots: list[tuple[str, int]] = field(default_factory=list)    # (csv, theta index)
    heatmap_spots: list[tuple[str, int, int]] = field(default_factory=list)
    squeeze_spots: list[tuple[int, float]] = field(default_factory=list)  # (row, theta0)
    batteries: list[Battery] = field(default_factory=list)
    workload: str = ""

    def cli_args(self, out_dir: str) -> list[str]:
        args = [self.experiment, "--workers", str(self.workers), "--out", out_dir]
        for key, val in self.config.items():
            args += ["--set", f"{key}={val}"]
        return args


def nbar_label(nbar: float) -> str:
    """File-name form of a battery size, as the CLI writes it."""
    return f"{nbar:g}".replace(".", "p").replace("-", "m")


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def _fringe(rng: random.Random, smoke: bool, workers: int) -> Plan:
    ranges = (SMOKE_NBAR,) if smoke else FRINGE_NBAR
    n_theta = 6 if smoke else 25
    nbars = [_draw(rng, *r) for r in ranges]
    config = dict(PHYSICS, **{
        "grid.theta_count": str(n_theta),
        "grid.nbar_list": ",".join(f"{nb:g}" for nb in nbars),
    })
    outputs = [f"fringe_coherent_nbar{nbar_label(nb)}.csv" for nb in nbars]
    outputs.append("fringe_classical.csv")
    spots = [(name, rng.randrange(n_theta)) for name in outputs]
    return Plan("fringe", workers, config, outputs, len(outputs) * n_theta,
                fringe_spots=spots)


def _heatmap(rng: random.Random, smoke: bool, workers: int) -> Plan:
    nbar = _draw(rng, *(SMOKE_NBAR if smoke else HEATMAP_NBAR))
    n_theta, n_tau = (6, 2) if smoke else (6, 14)
    config = dict(PHYSICS, **{
        "grid.theta_count": str(n_theta),
        "grid.tau_p_count": str(n_tau),
        "grid.tau_p_min_ns": "25",
        "grid.tau_p_max_ns": "35",
        "grid.nbar_list": f"{nbar:g}",
    })
    outputs = ["heatmap_classical.csv", f"heatmap_coherent_nbar{nbar_label(nbar)}.csv"]
    n_spots = 1 if smoke else 2
    spots = [(name, rng.randrange(n_theta), rng.randrange(n_tau))
             for name in outputs for _ in range(n_spots)]
    return Plan("heatmap", workers, config, outputs, 2 * n_theta * n_tau,
                heatmap_spots=spots)


def _squeeze(rng: random.Random, smoke: bool, workers: int) -> Plan:
    ranges = (SMOKE_NBAR,) if smoke else SQUEEZE_NBAR
    r_list = SQUEEZE_R[:1] if smoke else SQUEEZE_R
    n_theta = 6
    nbars = [_draw(rng, *r) for r in ranges]
    config = dict(PHYSICS, **{
        "grid.theta_count": str(n_theta),
        "grid.nbar_list": ",".join(f"{nb:g}" for nb in nbars),
        "grid.r_list": ",".join(f"{r:g}" for r in r_list),
        "grid.q_list": ",".join(f"{q:g}" for q in SQUEEZE_Q),
    })
    batteries = []
    for nb in nbars:
        batteries.append(Battery("coherent", nb, 0.0))
        batteries += [Battery("amp_squeezed", nb, r) for r in r_list]
        batteries += [Battery("number_squeezed", nb, q) for q in SQUEEZE_Q]
    per_nbar = len(batteries) // len(nbars)
    # one battery of each size is rebuilt from three reference points
    spots = [(i * per_nbar + rng.randrange(per_nbar), rng.uniform(0.0, 2.0 * math.pi / 3.0))
             for i in range(len(nbars))]
    return Plan("squeeze-bench", workers, config, ["squeeze_bench.csv"],
                len(batteries) * n_theta, squeeze_spots=spots, batteries=batteries)


# name -> (plan function, worker processes)
WORKLOADS = {
    "fringe-serial": (_fringe, 1),
    "squeeze-serial": (_squeeze, 1),
    # not in BENCHMARK.json: 2 forked workers each start their own OpenBLAS
    # threads on 2 cores, and the wall time spreads by more than 2x (README)
    "heatmap-pool": (_heatmap, 2),
}


def make_plan(workload: str, seed: int, smoke: bool = False) -> Plan:
    try:
        plan_for, workers = WORKLOADS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    plan = plan_for(random.Random(f"{workload}:{seed}"), smoke, workers)
    plan.workload = workload
    return plan
