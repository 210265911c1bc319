"""Experiment driver: configured parameter scans with CSV + JSON output.

Configuration is a flat key=value namespace (section-prefixed keys, all
frequencies as ordinary frequencies in MHz, all times in ns).  Every scan is
one sweep: per tau_p, one Heisenberg-picture pass per generator, plus one
forward spot cycle per battery that checks it, run optionally across worker
processes; the passes give P_e and Delta n on the theta (x tau_p) grid in
closed form, and the experiment reduces those arrays to its CSVs, so output
bytes never depend on the worker count.
Floats are written with 12 significant digits.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__, _blas, oracle, svgplot
from .errors import ConfigError, InvalidNoise, MeanUnreachable, SpotCheckFailed
from .liouvillian import NoiseParams, mhz_to_rad_per_ns
from .metrics import backaction, contrast, contrast_deficit_fit
from .odeint import IntegratorConfig
from .protocol import (
    ProtocolParams,
    RunResult,
    classical_heisenberg,
    heisenberg_observables,
    run_classical,
    run_quantum,
)
from .states import ALIGN_ANGLE, BatterySpec, build_state, compute_cutoff

EXPERIMENTS = ("fringe", "heatmap", "contrast-scan", "backaction",
               "squeeze-bench", "oracle-check")

DEFAULTS: dict[str, str] = {
    "protocol.omega_mhz": "20.0",
    "protocol.delta0_mhz": "100.0",
    "protocol.tau_p_ns": "25.0",
    "protocol.tau_c_ns": "100.0",
    "protocol.phi_echo": "0.0",
    "noise.t1_ns": "118.0",
    "noise.t2_ns": "157.0",
    "noise.gamma1_per_ns": "",
    "noise.gamma_phi_per_ns": "",
    "noise.kappa_per_ns": "1e-4",
    "noise.nbar_th": "0.0",
    "integrator.rtol": "2e-7",
    "integrator.atol": "2e-9",
    "integrator.h_init_ns": "0.1",
    "integrator.h_min_ns": "1e-6",
    "integrator.max_steps": "200000",
    "grid.theta_count": "101",
    "grid.tau_p_min_ns": "25.0",
    "grid.tau_p_max_ns": "35.0",
    "grid.tau_p_count": "101",
    "grid.nbar_list": "",
    "grid.r_list": "0.15,0.25,0.35,0.5",
    "grid.q_list": "0.75,0.5",
}

# battery lists when grid.nbar_list is left empty
_NBAR_DEFAULTS = {
    "fringe": "0.5,1,2,5,10",
    "heatmap": "5",
    "contrast-scan": "0.5,0.8,1.0,1.5,2.0,3.0,5.0,7.5,10.0,15.0",
    "backaction": "0.5,0.8,1.0,1.5,2.0,3.0,5.0,7.5,10.0,15.0",
    "squeeze-bench": "1,2,3,5,7.5,10",
    "oracle-check": "5",
}


@dataclass
class ScanConfig:
    experiment: str
    values: dict[str, str]
    provided: set[str] = field(default_factory=set)
    out_dir: Path = Path("glzi-out")
    workers: int = 1
    svg: bool = False

    def f(self, key: str) -> float:
        try:
            x = float(self.values[key])
        except ValueError as exc:
            raise ConfigError(f"{key}={self.values[key]!r} is not a number") from exc
        if not math.isfinite(x):
            raise ConfigError(f"{key}={self.values[key]!r} is not finite")
        return x

    def i(self, key: str) -> int:
        try:
            return int(self.values[key])
        except ValueError as exc:
            raise ConfigError(f"{key}={self.values[key]!r} is not an integer") from exc

    def flist(self, key: str) -> list[float]:
        raw = self.values[key]
        if not raw.strip():
            return []
        try:
            xs = [float(x) for x in raw.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"{key}={raw!r} is not a comma-separated number list") from exc
        if not all(map(math.isfinite, xs)):
            raise ConfigError(f"{key}={raw!r} has a non-finite entry")
        return xs


def load_config(
    experiment: str,
    config_file: str | Path | None = None,
    overrides: Sequence[str] = (),
    out_dir: str | Path = "glzi-out",
    workers: int | None = None,
    svg: bool = False,
) -> ScanConfig:
    """Merge defaults, an optional config file, and --set overrides."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}")
    values = dict(DEFAULTS)
    values["grid.nbar_list"] = _NBAR_DEFAULTS[experiment]
    provided: set[str] = set()

    def set_pair(key: str, val: str, origin: str) -> None:
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r} ({origin})")
        values[key] = val.strip()
        provided.add(key)

    if config_file is not None:
        path = Path(config_file)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, val = stripped.partition("=")
            set_pair(key, val, f"{path}:{lineno}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        set_pair(key, val, "--set")

    cfg = ScanConfig(
        experiment=experiment,
        values=values,
        provided=provided,
        out_dir=Path(out_dir),
        workers=workers if workers is not None else (os.cpu_count() or 1),
        svg=svg,
    )
    _validate(cfg)
    return cfg


def _validate(cfg: ScanConfig) -> None:
    if cfg.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {cfg.workers}")
    for key in DEFAULTS:  # every value parses to finite numbers, used or not
        if key.endswith(("_count", "max_steps")):
            cfg.i(key)
        elif key.endswith("_list") or not cfg.values[key]:
            cfg.flist(key)
        else:
            cfg.f(key)
    if cfg.i("grid.theta_count") < 4:  # theta_grid spans [0, 2pi]
        raise ConfigError("grid.theta_count must be >= 4: P_e has period pi in theta_geo, "
                          "so 2 or 3 angles over [0, 2pi] sample one point of the fringe")
    if cfg.i("grid.tau_p_count") < 1:
        raise ConfigError("grid.tau_p_count must be >= 1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:  # the parameter objects' own checks, before any cycle runs
            for key in ("protocol.tau_p_ns", "grid.tau_p_min_ns", "grid.tau_p_max_ns"):
                protocol_for(cfg, tau_p=cfg.f(key))
            for nbar in cfg.flist("grid.nbar_list"):
                protocol_for(cfg, nbar=nbar)
            integrator_from(cfg)
            noise_from(cfg)
        except (ValueError, InvalidNoise) as exc:
            raise ConfigError(str(exc)) from exc
    if cfg.experiment != "oracle-check" and not cfg.flist("grid.nbar_list"):
        raise ConfigError("grid.nbar_list must not be empty")
    labels = [BatterySpec.coherent(nbar).label() for nbar in cfg.flist("grid.nbar_list")]
    if len(set(labels)) < len(labels):  # their files would overwrite each other
        raise ConfigError(f"grid.nbar_list={cfg.values['grid.nbar_list']!r} gives two "
                          f"batteries the same label")
    if cfg.experiment == "squeeze-bench":  # the state builders' checks
        if any(r < 0 for r in cfg.flist("grid.r_list")):
            raise ConfigError("grid.r_list entries must be >= 0")
        if any(q <= 0 for q in cfg.flist("grid.q_list")):
            raise ConfigError("grid.q_list entries must be > 0")
        for nbar in cfg.flist("grid.nbar_list"):
            for r in cfg.flist("grid.r_list"):
                if r >= math.asinh(math.sqrt(nbar)):  # sinh^2(r) >= nbar
                    raise ConfigError(f"squeezing r={r:g} uses the whole energy "
                                      f"budget of nbar={nbar:g} (sinh^2(r) >= nbar)")
            for q in cfg.flist("grid.q_list"):  # numpy only, about 0.3 ms each
                try:
                    build_state(BatterySpec.number_squeezed(nbar, q))
                except MeanUnreachable as exc:
                    raise ConfigError(f"number squeezing q={q:g} at nbar={nbar:g}: "
                                      f"{exc}") from exc


def protocol_for(cfg: ScanConfig, theta: float = 0.0,
                 nbar: float | None = None, tau_p: float | None = None) -> ProtocolParams:
    return ProtocolParams(
        omega=mhz_to_rad_per_ns(cfg.f("protocol.omega_mhz")),
        delta0=mhz_to_rad_per_ns(cfg.f("protocol.delta0_mhz")),
        tau_p=cfg.f("protocol.tau_p_ns") if tau_p is None else tau_p,
        tau_c=cfg.f("protocol.tau_c_ns"),
        theta_geo=theta,
        phi_echo=cfg.f("protocol.phi_echo"),
        nbar=5.0 if nbar is None else nbar,
    )


def noise_from(cfg: ScanConfig) -> NoiseParams:
    """Dissipation rates; explicit rates win over T1/T2 with a warning."""
    kappa = cfg.f("noise.kappa_per_ns")
    nbar_th = cfg.f("noise.nbar_th")
    g1_raw = cfg.values["noise.gamma1_per_ns"].strip()
    gphi_raw = cfg.values["noise.gamma_phi_per_ns"].strip()
    if g1_raw or gphi_raw:
        if {"noise.t1_ns", "noise.t2_ns"} & cfg.provided:
            warnings.warn("both rate and time noise inputs given; rates win",
                          stacklevel=2)
        base = NoiseParams.from_times(cfg.f("noise.t1_ns"), cfg.f("noise.t2_ns"))
        gamma1 = cfg.f("noise.gamma1_per_ns") if g1_raw else base.gamma1
        gamma_phi = cfg.f("noise.gamma_phi_per_ns") if gphi_raw else base.gamma_phi
        return NoiseParams(gamma1=gamma1, gamma_phi=gamma_phi,
                           kappa=kappa, nbar_th=nbar_th)
    return NoiseParams.from_times(cfg.f("noise.t1_ns"), cfg.f("noise.t2_ns"),
                                  kappa=kappa, nbar_th=nbar_th)


def integrator_from(cfg: ScanConfig) -> IntegratorConfig:
    return IntegratorConfig(
        rtol=cfg.f("integrator.rtol"),
        atol=cfg.f("integrator.atol"),
        h_init=cfg.f("integrator.h_init_ns"),
        h_min=cfg.f("integrator.h_min_ns"),
        max_steps=cfg.i("integrator.max_steps"),
    )


def theta_grid(cfg: ScanConfig) -> np.ndarray:
    return np.linspace(0.0, 2.0 * math.pi, cfg.i("grid.theta_count"))


def tau_p_grid(cfg: ScanConfig) -> np.ndarray:
    return np.linspace(cfg.f("grid.tau_p_min_ns"), cfg.f("grid.tau_p_max_ns"),
                       cfg.i("grid.tau_p_count"))


# sweep engine ----------------------------------------------------------------

@dataclass(frozen=True)
class Task:
    """An echo cycle of battery (None: the classical reference), or with
    adjoint set the Heisenberg-picture pass of the cycle params, at the Fock
    cutoff of battery."""

    params: ProtocolParams
    battery: BatterySpec | None
    noise: NoiseParams
    icfg: IntegratorConfig
    adjoint: bool = False


def _exec_task(task: Task):
    t_start = time.perf_counter()
    p, battery, noise, icfg = task.params, task.battery, task.noise, task.icfg
    if task.adjoint:
        res = (classical_heisenberg(p, noise, icfg) if battery is None else
               heisenberg_observables(p, compute_cutoff(battery), noise, icfg))
    else:
        res = run_classical(p, noise, icfg) if battery is None else run_quantum(
            p, battery, noise, icfg)
    return task, res, time.perf_counter() - t_start


def run_tasks(tasks: list[Task], workers: int) -> list:
    """(task, result, seconds) of each task in input order, run serially or in
    a process pool of one-BLAS-thread workers."""
    if workers <= 1 or len(tasks) < 2:
        return [_exec_task(t) for t in tasks]
    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers, initializer=_blas.pin) as pool:
        return list(pool.map(_exec_task, tasks, chunksize=chunk))


SPOT_TOL = 1e-6  # largest |closed form - spot cycle| on P_e and Delta n
_PROBES = np.arange(3) * math.pi / 3.0  # three phases that fix a second harmonic


@dataclass(frozen=True)
class BatterySweep:
    """One battery's fringe on the theta x tau_p grid and the work behind it.

    p_e and delta_n have shape (theta count, tau_p count), theta-outer;
    delta_n is NaN for the classical reference.  initial is the spot cycle's
    RunResult, read for the phase-invariant initial statistics, and
    spot_defect its largest |closed form - spot cycle|.  contrast_exact is
    the max - min of each tau_p column's P_e over every theta, not the grid
    only.  runs holds the run_tasks triples of the passes (shared within a
    battery size) and of the spot cycle; blas_threads each OpenBLAS pool's
    thread count meanwhile.
    """

    p_e: np.ndarray
    delta_n: np.ndarray
    initial: RunResult
    spot_defect: float
    contrast_exact: np.ndarray
    runs: list
    blas_threads: dict


def sweep(cfg: ScanConfig, batteries: Sequence[BatterySpec | None],
          taus: Sequence[float | None] = (None,)) -> list[BatterySweep]:
    """Run every battery over the theta (x tau_p) grid in one run_tasks call.

    Battery phases are locked to phi = theta_geo - pi/2; None is the classical
    reference.  Per tau_p, one Heisenberg-picture pass serves every battery
    of one size (g = Omega / 2 sqrt(nbar) fixes the generator; the pass runs
    at their largest Fock cutoff) at every phi in closed form, see
    HeisenbergObservables; ClassicalHalves does the same for the reference.
    A fixed squeezing angle (alignment "angle") does not rotate with phi and
    is refused before any cycle runs.  One forward spot cycle per battery, at
    theta_0 and the first tau_p, must match the closed form to SPOT_TOL on
    P_e and Delta n, or SpotCheckFailed is raised.  P_e(phi) = A0 + B cos 2phi
    + C sin 2phi, so its exact contrast 2 sqrt(B^2 + C^2) follows from the
    closed form at _PROBES.  Every OpenBLAS pool is pinned to one thread
    meanwhile.
    """
    if any(b is not None and b.alignment == ALIGN_ANGLE for b in batteries):
        raise ValueError("a battery with a fixed squeezing angle (alignment 'angle') "
                         "does not rotate with theta_geo; sweep locks every battery")
    # an unwritable output directory fails before any cycle runs
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    noise, icfg = noise_from(cfg), integrator_from(cfg)
    thetas = theta_grid(cfg)
    phis = thetas - math.pi / 2.0
    groups: dict = {}  # battery size (g = Omega / 2 sqrt(nbar)) -> its batteries
    for battery in batteries:
        groups.setdefault(battery and battery.nbar, []).append(battery)
    tasks = [Task(protocol_for(cfg, nbar=nbar, tau_p=tp),
                  None if nbar is None else max(members, key=compute_cutoff), noise, icfg, True)
             for nbar, members in groups.items() for tp in taus]
    for battery in batteries:
        p = protocol_for(cfg, float(thetas[0]), nbar=battery and battery.nbar, tau_p=taus[0])
        tasks.append(Task(p, battery and battery.with_phase(p.phi_batt), noise, icfg))
    with _blas.one_thread() as blas_threads:
        done = run_tasks(tasks, cfg.workers)
        passes = {nbar: done[i * len(taus):(i + 1) * len(taus)] for i, nbar in enumerate(groups)}
        out = []
        for battery, spot in zip(batteries, done[len(groups) * len(taus):]):
            runs, initial = passes[battery and battery.nbar], spot[1]
            both = np.stack([r.expectations(battery and battery.with_phase(0.0),
                                            np.concatenate([phis, _PROBES]))
                             for _, r, _ in runs], axis=1)  # phi x tau_p x (P_e, <n>)
            probes, both = both[len(phis):, :, 0], both[:len(phis)]
            contrast_exact = 4.0 / 3.0 * np.abs(np.exp(2j * _PROBES) @ probes)
            p_e, delta_n = both[..., 0], initial.mean_n_initial - both[..., 1]
            miss = np.abs([p_e[0, 0] - initial.p_e,
                           delta_n[0, 0] - initial.delta_n])[:1 if battery is None else 2]
            if not np.all(miss <= SPOT_TOL):  # NaN fails
                raise SpotCheckFailed(f"{battery.label() if battery else 'classical'}: the "
                                      f"sweep misses its spot cycle by {np.nanmax(miss):.3e}")
            out.append(BatterySweep(p_e, delta_n, initial, float(miss.max()), contrast_exact,
                                    [*runs, spot], blas_threads))
    return out


# output ----------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    x = float(v)
    return "nan" if math.isnan(x) else f"{x:.12g}"


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_sidecar(csv_path: Path, cfg: ScanConfig, wall_s: float, n_runs: int,
                  extra: dict | None = None) -> Path:
    doc = {
        "config": dict(sorted(cfg.values.items())),
        "units": {"freq": "MHz (f)", "time": "ns"},
        "version": __version__,
        "timings": {
            "wall_s": round(wall_s, 3),
            "n_runs": n_runs,
            "mean_run_s": round(wall_s / n_runs, 4) if n_runs else 0.0,
        },
    }
    if extra:
        doc.update(extra)
    side = csv_path.with_suffix(".json")
    side.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return side


def _emit(cfg: ScanConfig, stem: str, header: Sequence[str], rows: list,
          sweeps: list[BatterySweep], extra: dict | None = None,
          plot: tuple | None = None) -> Path:
    """Write stem.csv and its sidecar, timed by the sweeps' tasks (each once).

    The sidecar's runtime block gives the worker set-up, the OpenBLAS thread
    count of each pool during the sweep (None if unknown) and the spread of
    the tasks' seconds.  Its trust block gives the sweeps' largest spot
    defect against SPOT_TOL, plus extra's "trust" entries.  plot is
    (svgplot function, *data, x_label, y_label), drawn with --svg.
    """
    path = cfg.out_dir / f"{stem}.csv"
    write_csv(path, header, rows)
    task_s = [s for _, _, s in {id(run): run for sw in sweeps for run in sw.runs}.values()]
    runtime = {
        "workers": cfg.workers,
        "start_method": multiprocessing.get_start_method() if cfg.workers > 1 else None,
        "blas_threads": sweeps[0].blas_threads,
        "task_s": dict(zip(("p50", "p95", "max"),
                           np.round(np.percentile(task_s, [50, 95, 100]), 4).tolist())),
    }
    extra = dict(extra or {})
    trust = {"spot_defect": max(sw.spot_defect for sw in sweeps), "spot_tol": SPOT_TOL,
             **extra.pop("trust", {})}
    write_sidecar(path, cfg, sum(task_s), len(task_s),
                  extra={"runtime": runtime, "trust": trust, **extra})
    if cfg.svg and plot is not None:
        draw, *args = plot
        draw(path.with_suffix(".svg"), *args, path.stem)
    return path


# experiments -----------------------------------------------------------------

def _contrast_exact(batteries, sweeps) -> dict:
    """Sidecar entry: each fringe's exact contrast by battery label, which the
    grid max - min C of the CSV reaches only where the grid hits the extrema."""
    return {"contrast_exact": {b.label() if b else "classical": float(sw.contrast_exact[0])
                               for b, sw in zip(batteries, sweeps)}}


def _coherent(cfg: ScanConfig) -> list[BatterySpec]:
    return [BatterySpec.coherent(nbar) for nbar in cfg.flist("grid.nbar_list")]


def cmd_fringe(cfg: ScanConfig) -> list[Path]:
    """One CSV per coherent battery plus the classical baseline."""
    thetas = theta_grid(cfg)
    batteries = _coherent(cfg) + [None]
    written = []
    for battery, sw in zip(batteries, sweep(cfg, batteries)):
        init = sw.initial
        rows = [(th, pe, dn, init.var_n_initial, init.eta_coh_initial)
                for th, pe, dn in zip(thetas, sw.p_e[:, 0], sw.delta_n[:, 0])]
        written.append(_emit(
            cfg, f"fringe_{battery.label() if battery else 'classical'}",
            ["theta_geo", "P_e", "delta_n", "var_n_init", "eta_coh_init"], rows, [sw],
            plot=(svgplot.line_plot_svg, thetas, {"P_e": sw.p_e[:, 0]},
                  "theta_geo (rad)", "P_e")))
    return written


def cmd_heatmap(cfg: ScanConfig) -> list[Path]:
    """(theta_geo, tau_p) maps, theta-outer row-major; quantum vs classical."""
    thetas, taus = theta_grid(cfg), tau_p_grid(cfg)
    batteries = [None] + _coherent(cfg)
    sweeps = sweep(cfg, batteries, taus)
    written = []
    for battery, sw in zip(batteries, sweeps):
        extra = None if battery is None else {
            "max_abs_diff_vs_classical": float(np.max(np.abs(sw.p_e - sweeps[0].p_e))),
            "min_eigenvalue": float(sw.initial.min_eig),  # of the spot cycle
        }
        rows = [(th, tp, pe) for th, row in zip(thetas, sw.p_e) for tp, pe in zip(taus, row)]
        written.append(_emit(
            cfg, f"heatmap_{battery.label() if battery else 'classical'}",
            ["theta_geo", "tau_p", "P_e"], rows, [sw], extra,
            plot=(svgplot.heatmap_svg, thetas, taus, sw.p_e.tolist(),
                  "theta_geo (rad)", "tau_p (ns)")))
    return written


def cmd_contrast_scan(cfg: ScanConfig) -> list[Path]:
    """Fringe contrast vs battery size, with the 1/nbar deficit fit."""
    batteries = [None] + _coherent(cfg)
    sweeps = sweep(cfg, batteries)
    c_cl = contrast(sweeps[0].p_e)
    rows = []
    for battery, sw in zip(batteries[1:], sweeps[1:]):
        c = contrast(sw.p_e)
        rows.append((battery.nbar, c, c_cl, c_cl - c, 1.0 / battery.nbar))

    fit_rows = [(nb, c) for nb, c, *_ in rows if nb >= 2.0]
    extra: dict = {"fit": None, "trust": _contrast_exact(batteries, sweeps)}
    if len(fit_rows) >= 2:
        fit = contrast_deficit_fit([nb for nb, _ in fit_rows],
                                   [c for _, c in fit_rows], c_cl)
        extra["fit"] = {"slope": fit.slope, "intercept": fit.intercept,
                        "r2": fit.r2, "n_points": fit.n_points, "nbar_min": 2.0}
    path = _emit(cfg, "contrast_scan", ["nbar", "C", "C_cl", "deficit", "inv_nbar"],
                 rows, sweeps, extra,
                 plot=(svgplot.line_plot_svg, [r[0] for r in rows],
                       {"C": [r[1] for r in rows], "C_cl": [r[2] for r in rows]},
                       "nbar", "contrast"))
    fit_path = cfg.out_dir / "contrast_fit.json"
    fit_path.write_text(json.dumps(extra["fit"], indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    return [path, fit_path]


def cmd_backaction(cfg: ScanConfig) -> list[Path]:
    """Photon-number change per cycle, averaged over the phase grid."""
    batteries = _coherent(cfg)
    sweeps = sweep(cfg, batteries)
    rows = []
    for battery, sw in zip(batteries, sweeps):
        mean_dn, std_dn = backaction(sw.delta_n[:, 0])
        rows.append((battery.nbar, mean_dn, std_dn, mean_dn / battery.nbar))
    return [_emit(cfg, "backaction", ["nbar", "mean_delta_n", "std_delta_n", "rel_backaction"],
                  rows, sweeps,
                  plot=(svgplot.line_plot_svg, [r[0] for r in rows],
                        {"mean_delta_n": [r[1] for r in rows],
                         "rel_backaction": [r[3] for r in rows]},
                        "nbar", "delta_n"))]


def cmd_squeeze_bench(cfg: ScanConfig) -> list[Path]:
    """Contrast of squeezed batteries against the same-energy coherent state."""
    entries = []  # (state_kind, r_or_q, battery)
    for nbar in cfg.flist("grid.nbar_list"):
        entries.append(("coherent", 0.0, BatterySpec.coherent(nbar)))
        entries += [("amp_squeezed", r, BatterySpec.displaced_squeezed(nbar, r))
                    for r in cfg.flist("grid.r_list")]
        entries += [("number_squeezed", q, BatterySpec.number_squeezed(nbar, q))
                    for q in cfg.flist("grid.q_list")]
    sweeps = sweep(cfg, [battery for _, _, battery in entries])
    rows = []
    for (state_kind, r_or_q, battery), sw in zip(entries, sweeps):
        c = contrast(sw.p_e)
        if state_kind == "coherent":
            c_coh = c
        rows.append((state_kind, battery.nbar, r_or_q, c, c - c_coh,
                     sw.initial.var_n_initial, sw.initial.eta_coh_initial))
    return [_emit(cfg, "squeeze_bench", ["state_kind", "nbar", "r_or_q", "C", "delta_C",
                                         "var_n_init", "eta_coh_init"],
                  rows, sweeps, {"trust": _contrast_exact([b for *_, b in entries], sweeps)})]


def cmd_oracle_check(cfg: ScanConfig) -> list[Path]:
    """Run the analytic cross-check battery and write a JSON report."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    report = oracle.oracle_report()
    doc = {
        "version": __version__,
        "n_checks": len(report),
        "n_failed": sum(1 for c in report if not c["passed"]),
        "checks": report,
        "wall_s": round(time.perf_counter() - t0, 3),
    }
    path = cfg.out_dir / "oracle_check.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for chk in report:
        status = "pass" if chk["passed"] else "FAIL"
        print(f"[{status}] {chk['name']}: defect={chk['defect']:.3e} "
              f"threshold={chk['threshold']:.3e}")
    return [path]


COMMANDS = {
    "fringe": cmd_fringe,
    "heatmap": cmd_heatmap,
    "contrast-scan": cmd_contrast_scan,
    "backaction": cmd_backaction,
    "squeeze-bench": cmd_squeeze_bench,
    "oracle-check": cmd_oracle_check,
}
