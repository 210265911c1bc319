"""Experiment driver: configured parameter scans with CSV + JSON output.

Configuration is a flat key=value namespace (section-prefixed keys, all
frequencies as ordinary frequencies in MHz, all times in ns).  Every scan is
one sweep: a battery x theta (x tau_p) grid of independent echo cycles, run
optionally across worker processes and returned in grid order, then reduced
to the experiment's CSVs, so output bytes never depend on the worker count.
Floats are written with 12 significant digits.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__, oracle, svgplot
from .errors import ConfigError, InvalidNoise
from .hilbert import HilbertSpec, build_operators, jc_coupling
from .liouvillian import NoiseParams, assemble, devectorize, mhz_to_rad_per_ns, vectorize
from .metrics import backaction, contrast, contrast_deficit_fit
from .odeint import IntegratorConfig
from .protocol import (
    ProtocolParams,
    echo_unitary,
    run_classical,
    run_quantum,
    simulate_constant_detuning,
)
from .states import BatterySpec, build_state

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
    if cfg.i("grid.theta_count") < 2:
        raise ConfigError("grid.theta_count must be >= 2")
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
    """One echo cycle; battery None runs the classical reference."""

    params: ProtocolParams
    battery: BatterySpec | None
    noise: NoiseParams
    icfg: IntegratorConfig


def _exec_task(task: Task):
    t_start = time.perf_counter()
    if task.battery is None:
        res = run_classical(task.params, task.noise, task.icfg)
    else:
        res = run_quantum(task.params, task.battery, task.noise, task.icfg)
    return task, res, time.perf_counter() - t_start


def run_tasks(tasks: list[Task], workers: int) -> list:
    """Execute tasks serially or in a process pool.

    Returns one (task, RunResult, seconds) triple per task, in input order.
    """
    if workers <= 1 or len(tasks) < 2:
        return [_exec_task(t) for t in tasks]
    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_exec_task, tasks, chunksize=chunk))


def sweep(cfg: ScanConfig, batteries: Sequence[BatterySpec | None],
          taus: Sequence[float | None] = (None,)) -> list[list]:
    """Run every battery over the theta (x tau_p) grid in one run_tasks call.

    Battery phases are locked to theta_geo - pi/2; None is the classical
    reference.  Tasks go battery-outer, theta, then tau_p, so cycles sharing
    a generator run back to back.  Returns the run_tasks triples split per
    battery.
    """
    # an unwritable output directory fails before any cycle runs
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    noise, icfg = noise_from(cfg), integrator_from(cfg)
    thetas = theta_grid(cfg)
    tasks = []
    for battery in batteries:
        nbar = None if battery is None else battery.nbar
        for th in thetas:
            for tp in taus:
                p = protocol_for(cfg, float(th), nbar=nbar, tau_p=tp)
                locked = None if battery is None else battery.with_phase(p.phi_batt)
                tasks.append(Task(p, locked, noise, icfg))
    done = run_tasks(tasks, cfg.workers)
    per = len(thetas) * len(taus)
    return [done[k * per:(k + 1) * per] for k in range(len(batteries))]


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


def _emit(cfg: ScanConfig, stem: str, header: Sequence[str], rows: list, batches: list,
          extra: dict | None = None, plot: tuple | None = None) -> Path:
    """Write stem.csv and its sidecar, timed by the sweep batches behind it.

    plot is (svgplot function, *data, x_label, y_label), drawn with --svg.
    """
    path = cfg.out_dir / f"{stem}.csv"
    write_csv(path, header, rows)
    task_s = [s for runs in batches for _, _, s in runs]
    write_sidecar(path, cfg, sum(task_s), len(task_s), extra=extra)
    if cfg.svg and plot is not None:
        draw, *args = plot
        draw(path.with_suffix(".svg"), *args, path.stem)
    return path


# experiments -----------------------------------------------------------------

def _coherent(cfg: ScanConfig) -> list[BatterySpec]:
    return [BatterySpec.coherent(nbar) for nbar in cfg.flist("grid.nbar_list")]


def cmd_fringe(cfg: ScanConfig) -> list[Path]:
    """One CSV per coherent battery plus the classical baseline."""
    batteries = _coherent(cfg) + [None]
    written = []
    for battery, runs in zip(batteries, sweep(cfg, batteries)):
        rows = [(t.params.theta_geo, r.p_e, r.delta_n, r.var_n_initial, r.eta_coh_initial)
                for t, r, _ in runs]
        written.append(_emit(
            cfg, f"fringe_{battery.label() if battery else 'classical'}",
            ["theta_geo", "P_e", "delta_n", "var_n_init", "eta_coh_init"], rows, [runs],
            plot=(svgplot.line_plot_svg, [row[0] for row in rows],
                  {"P_e": [row[1] for row in rows]}, "theta_geo (rad)", "P_e")))
    return written


def cmd_heatmap(cfg: ScanConfig) -> list[Path]:
    """(theta_geo, tau_p) maps, theta-outer row-major; quantum vs classical."""
    thetas, taus = theta_grid(cfg), tau_p_grid(cfg)
    batteries = [None] + _coherent(cfg)
    runs_all = sweep(cfg, batteries, taus)
    p_cl = np.array([r.p_e for _, r, _ in runs_all[0]])
    written = []
    for battery, runs in zip(batteries, runs_all):
        p_e = np.array([r.p_e for _, r, _ in runs])
        extra = None if battery is None else {
            "max_abs_diff_vs_classical": float(np.max(np.abs(p_e - p_cl))),
            "min_eigenvalue": float(min(r.min_eig for _, r, _ in runs)),
        }
        rows = [(t.params.theta_geo, t.params.tau_p, r.p_e) for t, r, _ in runs]
        written.append(_emit(
            cfg, f"heatmap_{battery.label() if battery else 'classical'}",
            ["theta_geo", "tau_p", "P_e"], rows, [runs], extra,
            plot=(svgplot.heatmap_svg, thetas, taus,
                  p_e.reshape(len(thetas), len(taus)).tolist(),
                  "theta_geo (rad)", "tau_p (ns)")))
    return written


def cmd_contrast_scan(cfg: ScanConfig) -> list[Path]:
    """Fringe contrast vs battery size, with the 1/nbar deficit fit."""
    batteries = [None] + _coherent(cfg)
    runs_all = sweep(cfg, batteries)
    c_cl = contrast([r.p_e for _, r, _ in runs_all[0]])
    rows = []
    for battery, runs in zip(batteries[1:], runs_all[1:]):
        c = contrast([r.p_e for _, r, _ in runs])
        rows.append((battery.nbar, c, c_cl, c_cl - c, 1.0 / battery.nbar))

    fit_rows = [(nb, c) for nb, c, *_ in rows if nb >= 2.0]
    extra: dict = {"fit": None}
    if len(fit_rows) >= 2:
        fit = contrast_deficit_fit([nb for nb, _ in fit_rows],
                                   [c for _, c in fit_rows], c_cl)
        extra["fit"] = {"slope": fit.slope, "intercept": fit.intercept,
                        "r2": fit.r2, "n_points": fit.n_points, "nbar_min": 2.0}
    path = _emit(cfg, "contrast_scan", ["nbar", "C", "C_cl", "deficit", "inv_nbar"],
                 rows, runs_all, extra,
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
    runs_all = sweep(cfg, batteries)
    rows = []
    for battery, runs in zip(batteries, runs_all):
        mean_dn, std_dn = backaction([r.delta_n for _, r, _ in runs])
        rows.append((battery.nbar, mean_dn, std_dn, mean_dn / battery.nbar))
    return [_emit(cfg, "backaction", ["nbar", "mean_delta_n", "std_delta_n", "rel_backaction"],
                  rows, runs_all,
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
    runs_all = sweep(cfg, [battery for _, _, battery in entries])
    rows = []
    for (state_kind, r_or_q, battery), runs in zip(entries, runs_all):
        c = contrast([r.p_e for _, r, _ in runs])
        if state_kind == "coherent":
            c_coh = c
        first = runs[0][1]
        rows.append((state_kind, battery.nbar, r_or_q, c, c - c_coh,
                     first.var_n_initial, first.eta_coh_initial))
    return [_emit(cfg, "squeeze_bench", ["state_kind", "nbar", "r_or_q", "C", "delta_C",
                                         "var_n_init", "eta_coh_init"],
                  rows, runs_all)]


def cmd_oracle_check(cfg: ScanConfig) -> list[Path]:
    """Run the analytic cross-check battery and write a JSON report."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    report = oracle_report()
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


def _check(name: str, defect: float, threshold: float) -> dict:
    defect = float(defect)
    return {"name": name, "defect": defect, "threshold": float(threshold),
            "passed": bool(defect <= threshold)}


def oracle_report() -> list[dict]:
    """Named invariant checks comparing the simulator against closed forms."""
    rng = np.random.default_rng(20260808)
    checks: list[dict] = []
    ops = build_operators(HilbertSpec(8))
    g = 0.1

    # <2,e| a_b |3,e> = sqrt(3) at joint indices 2n+1
    checks.append(_check(
        "ladder_matrix_element",
        abs(ops.a_b[2 * 2 + 1, 2 * 3 + 1] - math.sqrt(3)), 1e-12))
    checks.append(_check(
        "number_operator_diagonal",
        float(np.max(np.abs((ops.a_dag @ ops.a_b).diagonal().real
                            - np.repeat(np.arange(8), 2)))), 1e-12))

    h = jc_coupling(ops, g) + 0.37 * 0.5 * ops.sigma_z
    checks.append(_check(
        "coupling_conserves_total_excitation",
        float(np.linalg.norm(h @ ops.n_tot - ops.n_tot @ h, "fro")), 1e-12))

    echo = np.kron(np.eye(8, dtype=complex), echo_unitary(0.3))
    echo_comm = float(np.linalg.norm(echo @ ops.n_tot - ops.n_tot @ echo, "fro"))
    checks.append(_check("echo_moves_between_sectors",
                         max(0.0, 0.1 - echo_comm), 0.0))

    a_m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b_m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho_m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lhs = vectorize(a_m @ rho_m @ b_m)
    rhs = np.kron(b_m.T, a_m) @ vectorize(rho_m)
    checks.append(_check("vectorization_kron_identity",
                         float(np.max(np.abs(lhs - rhs))), 1e-12))
    checks.append(_check("vectorization_roundtrip",
                         float(np.max(np.abs(devectorize(vectorize(rho_m)) - rho_m))),
                         0.0))

    noise = NoiseParams(gamma1=0.01, gamma_phi=0.002, kappa=1e-4)
    lv = assemble(ops, g, noise)
    herm = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    herm = herm + herm.conj().T
    herm = herm / np.linalg.norm(herm, "fro")
    trace_defect = 0.0
    herm_defect = 0.0
    for gen in (lv.l0, lv.l_delta):
        drho = devectorize(gen @ vectorize(herm))
        trace_defect = max(trace_defect, abs(complex(np.trace(drho))))
        herm_defect = max(herm_defect,
                          float(np.linalg.norm(drho - drho.conj().T, "fro")))
    checks.append(_check("generator_preserves_trace", trace_defect, 1e-12))
    checks.append(_check("generator_preserves_hermiticity", herm_defect, 1e-12))

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 40))
        amp = oracle.sector_amplitudes(n, rng.uniform(0.01, 0.3),
                                       rng.uniform(-1.0, 1.0), rng.uniform(0.0, 200.0))
        worst = max(worst, abs(abs(amp.stay) ** 2 + abs(amp.flip) ** 2 - 1.0))
    checks.append(_check("sector_evolution_unitary", worst, 1e-14))

    omega, v, nbar = 0.1257, 0.0503, 5.0
    p0 = oracle.lz_probability(omega, v)
    worst = max(abs(oracle.lz_probability(omega * math.sqrt(n / nbar), v)
                    - p0 ** (n / nbar)) for n in range(0, 21))
    checks.append(_check("sweep_probability_power_law", worst, 1e-14))

    exact, series = oracle.neighbor_gap_expansion(100, +1)
    checks.append(_check("neighbor_gap_series_remainder", abs(exact - series), 1e-6))

    beta = 0.4935
    p_base = math.exp(-beta)
    eps = 1e-3

    def amp_of(x):
        return oracle.fringe_amplitude(math.exp(-beta * x))

    fd = (amp_of(1 + eps) - 2 * amp_of(1.0) + amp_of(1 - eps)) / eps**2
    curv = oracle.fringe_curvature(p_base, beta)
    checks.append(_check("fringe_curvature_matches_finite_difference",
                         abs(fd - curv) / abs(curv), 1e-6))

    s_amp = oracle.squeezed_stats(5.0, 0.35, "amplitude")
    s_ph = oracle.squeezed_stats(5.0, 0.35, "phase")
    ordering_defect = max(0.0, s_amp.var_n - 5.0) + max(0.0, 5.0 - s_ph.var_n)
    checks.append(_check("squeezed_variance_ordering", ordering_defect, 0.0))

    r_small = 0.2
    eta = oracle.squeezed_stats(5.0, r_small).eta_coh
    checks.append(_check(
        "small_r_coherent_fraction",
        max(0.0, abs(eta - (1.0 - r_small**2 / 5.0)) - 2.0 * r_small**4 / 5.0), 0.0))

    sv = build_state(BatterySpec.squeezed_vacuum(0.5))
    checks.append(_check("squeezed_vacuum_even_support",
                         float(np.max(np.abs(sv[1::2]))), 1e-15))

    coh = build_state(BatterySpec.coherent(5.0))
    p = np.abs(coh) ** 2
    ns = np.arange(p.size)
    mean = float(ns @ p)
    var = float((ns**2) @ p - mean**2)
    checks.append(_check("coherent_variance_equals_mean", abs(var / mean - 1.0), 1e-4))

    # short frozen-detuning cross-check of the sector decomposition
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    amps = amps / np.linalg.norm(amps)
    full_amps = np.zeros(12, dtype=complex)
    full_amps[:5] = amps
    delta = 0.21
    times = np.linspace(0.0, 30.0, 7)
    trace = simulate_constant_detuning(full_amps, g, delta, times)
    worst = 0.0
    for t, pe, coh_ge in zip(trace.times, trace.p_e, trace.coherence_ge):
        ref = oracle.reduced_qubit(full_amps, g, delta, t)
        worst = max(worst, abs(pe - ref.p_excited), abs(coh_ge - ref.coherence_ge))
    checks.append(_check("sector_decomposition_vs_simulation", worst, 1e-6))
    return checks


COMMANDS = {
    "fringe": cmd_fringe,
    "heatmap": cmd_heatmap,
    "contrast-scan": cmd_contrast_scan,
    "backaction": cmd_backaction,
    "squeeze-bench": cmd_squeeze_bench,
    "oracle-check": cmd_oracle_check,
}
