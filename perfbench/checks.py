"""Output checks for one CLI round, all computed apart from the program.

(a)  spot points against the independent Lindblad reference (reference.py);
(a') squeeze contrast from a second-harmonic form fixed by 3 reference points;
(b)  every fringe and heatmap theta-cut has the form A0 + A2c cos 2phi + A2s sin 2phi;
(c)  initial photon statistics against closed forms;
(d)  bounds, file list, row count and grid order.

A check returns a Failure list; an empty list means the round passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
from workloads import Plan, make_plan

PE_TOL = 1e-6          # (a) P_e against the reference
DN_TOL = 1e-6          # (a) photon loss against the reference
CONTRAST_TOL = 2e-6    # (a') contrast from three reference points
HARMONIC_TOL = 1e-6    # (b) residual of the second-harmonic fit
# (c) the program truncates at a tail mass below 1e-8, which moves Var(n) by
# far less than this relative amount
STATS_TOL = 1e-5
MIN_EIG_TOL = -1e-7    # (d) sidecar min_eigenvalue
GRID_TOL = 1e-10       # (d) grid coordinates, written with 12 significant digits


@dataclass(frozen=True)
class Failure:
    check: str
    detail: str

    def __str__(self) -> str:
        return f"{self.check}: {self.detail}"


def read_table(path: Path) -> dict[str, list[str]]:
    """CSV columns by header name, as strings."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def floats(col: list[str]) -> np.ndarray:
    return np.array([float(v) for v in col])


def harmonic_fit(thetas: np.ndarray, p_e: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares (A0, A2c, A2s) with phi = theta - pi/2, and the max residual."""
    phi = thetas - 0.5 * math.pi
    basis = np.column_stack([np.ones_like(phi), np.cos(2 * phi), np.sin(2 * phi)])
    coef, *_ = np.linalg.lstsq(basis, p_e, rcond=None)
    return coef, float(np.max(np.abs(basis @ coef - p_e)))


def harmonic_eval(coef: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    phi = thetas - 0.5 * math.pi
    return coef[0] + coef[1] * np.cos(2 * phi) + coef[2] * np.sin(2 * phi)


# (b) -----------------------------------------------------------------------------

def check_harmonic(name: str, thetas: np.ndarray, p_e: np.ndarray) -> list[Failure]:
    _, resid = harmonic_fit(thetas, p_e)
    if not resid <= HARMONIC_TOL:
        return [Failure("b.second_harmonic", f"{name}: residual {resid:.3e} > {HARMONIC_TOL}")]
    return []


# (d) -----------------------------------------------------------------------------

def check_written(plan: Plan, stdout: str, out_dir: Path) -> list[Failure]:
    """The CLI prints the written CSV paths, in the configured order."""
    printed = [Path(line).name for line in stdout.split()]
    csvs = [name for name in printed if name.endswith(".csv")]
    if csvs != plan.outputs:
        return [Failure("d.files", f"wrote {csvs}, expected {plan.outputs}")]
    missing = [n for n in plan.outputs
               if not (out_dir / n).is_file() or not (out_dir / n).with_suffix(".json").is_file()]
    if missing:
        return [Failure("d.files", f"missing csv or sidecar for {missing}")]
    return []


def check_probability(name: str, p_e: np.ndarray) -> list[Failure]:
    if not np.all((p_e >= 0.0) & (p_e <= 1.0)):
        return [Failure("d.bounds", f"{name}: P_e outside [0, 1]")]
    return []


def check_grid(name: str, got: np.ndarray, want: np.ndarray) -> list[Failure]:
    if got.shape != want.shape:
        return [Failure("d.grid", f"{name}: {got.size} rows, expected {want.size}")]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= GRID_TOL * max(1.0, float(np.max(np.abs(want)))):
        return [Failure("d.grid", f"{name}: grid off the configured order by {err:.3e}")]
    return []


def check_sidecar(plan: Plan, csv_path: Path) -> list[Failure]:
    doc = json.loads(csv_path.with_suffix(".json").read_text(encoding="utf-8"))
    out = []
    resolved = doc.get("config", {})
    wrong = [k for k, v in plan.config.items() if resolved.get(k) != v]
    if wrong:
        out.append(Failure("d.sidecar", f"{csv_path.name}: config differs at {wrong}"))
    if "min_eigenvalue" in doc and not doc["min_eigenvalue"] >= MIN_EIG_TOL:
        out.append(Failure("d.min_eigenvalue",
                           f"{csv_path.name}: {doc['min_eigenvalue']:.3e} < {MIN_EIG_TOL}"))
    return out


# (c) -----------------------------------------------------------------------------

def expected_stats(kind: str, nbar: float, param: float) -> tuple[float, float]:
    """Closed-form (Var n, eta_coh) of an initial battery."""
    if kind == "coherent":
        return nbar, 1.0
    if kind == "amp_squeezed":
        return reference.amp_squeezed_stats(nbar, param)
    # number-squeezed: discrete Gaussian variance from a brentq solve; eta has no
    # closed form, so only the variance is checked
    size = int(nbar + 8.0 * reference.number_squeezed_sigma(nbar, param) + 40)
    return reference.number_squeezed_var(nbar, param, size), math.nan


def check_stats(name: str, kind: str, nbar: float, param: float,
                var_n: float, eta: float) -> list[Failure]:
    want_var, want_eta = expected_stats(kind, nbar, param)
    out = []
    if not abs(var_n - want_var) <= STATS_TOL * max(1.0, want_var):
        out.append(Failure("c.var_n", f"{name}: var_n {var_n!r}, closed form {want_var!r}"))
    if not math.isnan(want_eta) and not abs(eta - want_eta) <= STATS_TOL:
        out.append(Failure("c.eta_coh", f"{name}: eta {eta!r}, closed form {want_eta!r}"))
    return out


def theta_grid(plan: Plan) -> np.ndarray:
    return np.linspace(0.0, 2.0 * math.pi, int(plan.config["grid.theta_count"]))


def tau_p_grid(plan: Plan) -> np.ndarray:
    return np.linspace(float(plan.config["grid.tau_p_min_ns"]),
                       float(plan.config["grid.tau_p_max_ns"]),
                       int(plan.config["grid.tau_p_count"]))


def _nbars(plan: Plan) -> list[float]:
    return [float(x) for x in plan.config["grid.nbar_list"].split(",")]


# per experiment ------------------------------------------------------------------

def check_outputs(plan: Plan, stdout: str, out_dir: Path) -> list[Failure]:
    """Every check on one round's output directory."""
    failures = check_written(plan, stdout, out_dir)
    if failures:
        return failures
    for name in plan.outputs:
        path = out_dir / name
        table = read_table(path)
        failures += check_sidecar(plan, path)
        if plan.experiment == "fringe":
            failures += _fringe_table(plan, name, table)
        elif plan.experiment == "heatmap":
            failures += _heatmap_table(plan, name, table)
        else:
            failures += _squeeze_table(plan, table)
    # the reference integrations are the slow part: only on well-formed tables
    return failures or check_reference(plan, out_dir)


def _fringe_table(plan: Plan, name: str, table) -> list[Failure]:
    thetas = floats(table["theta_geo"])
    p_e = floats(table["P_e"])
    out = check_grid(name, thetas, theta_grid(plan))
    if out:
        return out
    out += check_probability(name, p_e)
    out += check_harmonic(name, thetas, p_e)
    if name != "fringe_classical.csv":
        nbar = _nbars(plan)[plan.outputs.index(name)]
        # every row against the closed form: the battery's phase follows theta,
        # so the CSV's 12 digits may differ between rows in the last place
        for i, (var_n, eta) in enumerate(zip(floats(table["var_n_init"]),
                                             floats(table["eta_coh_init"]))):
            out += check_stats(f"{name} theta[{i}]", "coherent", nbar, 0.0, var_n, eta)
    return out


def _heatmap_table(plan: Plan, name: str, table) -> list[Failure]:
    thetas, taus = theta_grid(plan), tau_p_grid(plan)
    want_theta = np.repeat(thetas, taus.size)   # theta outer, row-major
    want_tau = np.tile(taus, thetas.size)
    out = check_grid(name + " theta", floats(table["theta_geo"]), want_theta)
    out += check_grid(name + " tau_p", floats(table["tau_p"]), want_tau)
    if out:
        return out
    p_e = floats(table["P_e"]).reshape(thetas.size, taus.size)
    out += check_probability(name, p_e)
    for j, tau in enumerate(taus):
        out += check_harmonic(f"{name} tau_p={tau:.6g}", thetas, p_e[:, j])
    return out


def _squeeze_table(plan: Plan, table) -> list[Failure]:
    got = [(k, float(nb), float(p)) for k, nb, p in
           zip(table["state_kind"], table["nbar"], table["r_or_q"])]
    want = [(b.kind, b.nbar, b.param) for b in plan.batteries]
    if got != want:
        return [Failure("d.rows", f"squeeze rows {got}, expected {want}")]
    c = floats(table["C"])
    delta_c = floats(table["delta_C"])
    out = []
    if not np.all((c >= 0.0) & (c <= 1.0)):
        out.append(Failure("d.bounds", "contrast outside [0, 1]"))
    coherent_c = {b.nbar: c[i] for i, b in enumerate(plan.batteries) if b.kind == "coherent"}
    for i, b in enumerate(plan.batteries):
        if not abs(delta_c[i] - (c[i] - coherent_c[b.nbar])) <= 1e-11:
            out.append(Failure("d.delta_C", f"row {i}: delta_C != C - C_coherent"))
        out += check_stats(f"row {i}", b.kind, b.nbar, b.param,
                           float(table["var_n_init"][i]), float(table["eta_coh_init"][i]))
    return out


# (a), (a') -------------------------------------------------------------------------

def check_reference(plan: Plan, out_dir: Path) -> list[Failure]:
    phys = reference.Physics.from_config(plan.config)
    out: list[Failure] = []
    thetas = theta_grid(plan)
    for name, i in plan.fringe_spots:
        table = read_table(out_dir / name)
        theta = thetas[i]
        p_e = float(table["P_e"][i])
        if name == "fringe_classical.csv":
            ref_pe, ref_dn = reference.classical_cycle(phys, theta), None
        else:
            nbar = _nbars(plan)[plan.outputs.index(name)]
            amps = reference.coherent_amplitudes(nbar, reference.battery_phase(theta))
            res = reference.quantum_cycle(phys, amps, nbar)
            ref_pe, ref_dn = res.p_e, res.delta_n
        out += _compare(f"{name} theta[{i}]", "a.P_e", p_e, ref_pe, PE_TOL)
        if ref_dn is not None:
            out += _compare(f"{name} theta[{i}]", "a.delta_n",
                            float(table["delta_n"][i]), ref_dn, DN_TOL)
    taus = tau_p_grid(plan) if plan.heatmap_spots else None
    for name, i, j in plan.heatmap_spots:
        table = read_table(out_dir / name)
        theta, tau = thetas[i], taus[j]
        p_e = float(table["P_e"][i * taus.size + j])
        if name == "heatmap_classical.csv":
            ref = reference.classical_cycle(phys, theta, tau)
        else:
            nbar = _nbars(plan)[0]
            amps = reference.coherent_amplitudes(nbar, reference.battery_phase(theta))
            ref = reference.quantum_cycle(phys, amps, nbar, tau).p_e
        out += _compare(f"{name} theta[{i}] tau_p[{j}]", "a.P_e", p_e, ref, PE_TOL)
    if plan.squeeze_spots:
        table = read_table(out_dir / plan.outputs[0])
        for row, theta0 in plan.squeeze_spots:
            b = plan.batteries[row]
            c_ref = squeeze_contrast(phys, b, theta0, thetas)
            out += _compare(f"squeeze row {row} ({b.kind} {b.nbar} {b.param})",
                            "a'.C", float(table["C"][row]), c_ref, CONTRAST_TOL)
    return out


def squeeze_contrast(phys: reference.Physics, b, theta0: float,
                     thetas: np.ndarray) -> float:
    """Grid max - min of the second-harmonic form through 3 reference points."""
    probe = theta0 + np.array([0.0, 1.0, 2.0]) * math.pi / 3.0
    p_e = np.array([
        reference.quantum_cycle(
            phys, reference.battery_amplitudes(b.kind, b.nbar, b.param,
                                               reference.battery_phase(th)), b.nbar).p_e
        for th in probe])
    coef, _ = harmonic_fit(probe, p_e)
    fringe = harmonic_eval(coef, thetas)
    return float(fringe.max() - fringe.min())


def _compare(where: str, check: str, got: float, want: float, tol: float) -> list[Failure]:
    if not abs(got - want) <= tol:
        return [Failure(check, f"{where}: program {got!r}, reference {want!r}, "
                               f"|diff| {abs(got - want):.3e} > {tol}")]
    return []


def main(argv: list[str]) -> int:
    """Print the failures of one round's outputs as a JSON list of strings."""
    parser = argparse.ArgumentParser(description="check one glzi round's outputs")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--stdout-file", type=Path, required=True,
                        help="what the CLI printed: the paths it wrote")
    args = parser.parse_args(argv)
    plan = make_plan(args.workload, args.seed, smoke=args.smoke)
    failures = check_outputs(plan, args.stdout_file.read_text(), args.out_dir)
    print(json.dumps([str(f) for f in failures]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
