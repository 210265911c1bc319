"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The desk-scale sweeps
(criteria 6-8, 10) take a few minutes total; everything else is instant.
"""

import json
import math
import time

import numpy as np
from scipy.optimize import brentq

from glzi.liouvillian import NoiseParams
from glzi.metrics import backaction, contrast, contrast_deficit_fit
from glzi.oracle import (
    fringe_amplitude,
    fringe_curvature,
    gap_width,
    lz_probability,
    neighbor_gap_expansion,
    reduced_qubit,
    sector_gap,
    squeezed_stats,
    sweep_rate,
)
from glzi.protocol import ProtocolParams, run_quantum, simulate_constant_detuning
from glzi.scan import cmd_heatmap, cmd_squeeze_bench, load_config
from glzi.states import BatterySpec, build_state, vector_stats

from conftest import WORKERS


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_parameter_fidelity():
    noise = NoiseParams.from_times(118.0, 157.0)
    ok_g1 = abs(noise.gamma1 - 8.475e-3) < 5e-7
    ok_gphi = abs(noise.gamma_phi - 2.132e-3) < 5e-7
    # 3-significant-figure agreement with the rounded reference rates
    ok_quoted = (abs(noise.gamma1 - 8.48e-3) < 1e-5
                 and abs(noise.gamma_phi - 2.13e-3) < 5e-6)
    report(1, ok_g1 and ok_gphi and ok_quoted,
           f"gamma1={noise.gamma1:.6e} /ns, gamma_phi={noise.gamma_phi:.6e} /ns")


def test_criterion_2_battery_loss_bookkeeping():
    t0 = time.perf_counter()
    p = ProtocolParams(omega=0.0, nbar=5.0)  # omega = 0 decouples the qubit
    res = run_quantum(p, BatterySpec.coherent(5.0, p.phi_batt),
                      NoiseParams(kappa=1e-4))
    n_ratio = res.mean_n_final / res.mean_n_initial
    a_ratio = abs(res.a_mean_final) / math.sqrt(res.mean_n_initial)
    elapsed = time.perf_counter() - t0
    ok = (abs(n_ratio - math.exp(-0.01)) < 1e-5
          and abs(a_ratio - math.exp(-0.005)) < 1e-5
          and elapsed < 5.0)
    report(2, ok, f"<n> ratio {n_ratio:.8f} (e^-0.01={math.exp(-0.01):.8f}), "
                  f"|<a>| ratio {a_ratio:.8f} (e^-0.005={math.exp(-0.005):.8f}), "
                  f"{elapsed:.2f}s")


def test_criterion_3_sector_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314159)
    amps = np.zeros(12, dtype=complex)
    levels = rng.choice(11, size=6, replace=False)
    amps[levels] = rng.normal(size=6) + 1j * rng.normal(size=6)
    amps /= np.linalg.norm(amps)

    p = ProtocolParams(nbar=5.0)
    delta = p.delta0  # frozen at the plateau value
    times = np.linspace(0.0, 100.0, 50)
    trace = simulate_constant_detuning(amps, p.g, delta, times)
    worst = max(abs(pe - reduced_qubit(amps, p.g, delta, t).p_excited)
                for t, pe in zip(trace.times, trace.p_e))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    report(3, ok, f"max |rho_ee - oracle| = {worst:.3e} over 50 samples, {elapsed:.2f}s")


def test_criterion_4_rabi_check():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 5):
        p = ProtocolParams(nbar=float(n))
        times = np.linspace(0.0, 50.0, 26)
        trace = simulate_constant_detuning(BatterySpec.fock(n), p.g, 0.0, times)
        for t, pe in zip(trace.times, trace.p_e):
            worst = max(worst, abs(pe - math.sin(p.g * math.sqrt(n) * t) ** 2))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    report(4, ok, f"max |P_e - sin^2(g sqrt(n) t)| = {worst:.3e} "
                  f"for n in (1,2,5), {elapsed:.2f}s")


def test_criterion_5_total_excitation_bookkeeping():
    t0 = time.perf_counter()
    p = ProtocolParams(theta_geo=0.9)
    battery = BatterySpec.coherent(5.0, p.phi_batt)

    free = run_quantum(p, battery, apply_echo=False, record_segments=True)
    n_tots = [s.n_tot for s in free.segments]
    drift = max(n_tots) - min(n_tots)

    echoed = run_quantum(p, battery, record_segments=True)
    log = {s.label: s for s in echoed.segments}
    jump = log["echo"].n_tot - log["plateau_first"].n_tot
    jump_err = abs(jump - (1.0 - 2.0 * log["plateau_first"].p_e))
    elapsed = time.perf_counter() - t0
    ok = drift < 1e-8 and jump_err < 1e-8 and elapsed < 10.0
    report(5, ok, f"no-echo <N_tot> drift {drift:.3e}; echo jump error "
                  f"{jump_err:.3e} vs 1-2*P_e(t_m-), {elapsed:.2f}s")


def test_criterion_6_quantum_to_classical_recovery(coherent_sweep):
    thetas, c_cl, per_nbar = coherent_sweep
    nbars = sorted(per_nbar)
    cs = {nb: contrast(per_nbar[nb].p_e) for nb in nbars}
    monotone = all(cs[b] >= cs[a] - 1e-4 for a, b in zip(nbars, nbars[1:]))
    endpoints = cs[15.0] > cs[2.0]
    subset = [nb for nb in nbars if nb >= 3.0]
    fit = contrast_deficit_fit(subset, [cs[nb] for nb in subset], c_cl)
    ok = monotone and endpoints and fit.r2 > 0.9
    detail = ", ".join(f"C({nb:g})={cs[nb]:.4f}" for nb in nbars)
    report(6, ok, f"C_cl={c_cl:.4f}; {detail}; fit r2={fit.r2:.4f} "
                  f"slope={fit.slope:.4f}")


def test_criterion_7_backaction(coherent_sweep):
    _, _, per_nbar = coherent_sweep
    nbars = sorted(per_nbar)
    means = {}
    for nb in nbars:
        mean_dn, _ = backaction(per_nbar[nb].delta_n[:, 0])
        means[nb] = mean_dn
    below_two = all(means[nb] < 2.0 for nb in nbars)
    rel = [means[nb] / nb for nb in nbars]
    rel_monotone = all(b < a for a, b in zip(rel, rel[1:]))
    ok = below_two and rel_monotone
    detail = ", ".join(f"dn({nb:g})={means[nb]:.3f}" for nb in nbars)
    report(7, ok, f"{detail}; relative back-action monotone decreasing: "
                  f"{rel_monotone}")


def _number_squeezed_variance_oracle(nbar: float, q: float, n_cut: int) -> float:
    """Independent discrete-Gaussian evaluation (brentq on the center)."""
    sigma = max(0.2, q * math.sqrt(nbar))
    ns = np.arange(n_cut, dtype=float)

    def mean_of(mu):
        w = np.exp(-((ns - mu) ** 2) / (2 * sigma**2))
        w /= w.sum()
        return float(ns @ w) - nbar

    mu = brentq(mean_of, 0.0, float(n_cut), xtol=1e-12)
    w = np.exp(-((ns - mu) ** 2) / (2 * sigma**2))
    w /= w.sum()
    return float((ns**2) @ w) - nbar**2


def test_criterion_8_squeezing_benchmark(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config(
        "squeeze-bench",
        overrides=["grid.theta_count=41", "grid.nbar_list=2,5",
                   "grid.r_list=0.15,0.35", "grid.q_list=0.75,0.5"],
        out_dir=tmp_path, workers=WORKERS)
    path = cmd_squeeze_bench(cfg)[0]
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]

    var_ok, eta_ok, dc_ok = True, True, True
    details = []
    for kind, nbar_s, r_or_q, _, delta_c, var_init, eta_init in rows:
        nbar, x = float(nbar_s), float(r_or_q)
        var_init, eta_init, delta_c = float(var_init), float(eta_init), float(delta_c)
        if kind == "amp_squeezed":
            expect = squeezed_stats(nbar, x, "amplitude")
            var_ok &= abs(var_init - expect.var_n) < 1e-4 and var_init < nbar
            eta_ok &= abs(eta_init - (1.0 - math.sinh(x) ** 2 / nbar)) < 1e-3
        elif kind == "number_squeezed":
            n_cut = build_state(BatterySpec.number_squeezed(nbar, x)).size
            expect_var = _number_squeezed_variance_oracle(nbar, x, n_cut)
            var_ok &= abs(var_init - expect_var) < 1e-4 and var_init < nbar
        if kind != "coherent":
            dc_ok &= delta_c <= 0.0
            details.append(f"{kind}(nbar={nbar:g},{x:g}): dC={delta_c:+.4f}")
    elapsed = time.perf_counter() - t0
    ok = var_ok and eta_ok and dc_ok
    report(8, ok, f"Var match: {var_ok}, eta match: {eta_ok}, "
                  f"all dC<=0: {dc_ok}; {'; '.join(details)} ({elapsed:.0f}s)")


def test_criterion_9_closed_form_suite():
    p = ProtocolParams(nbar=5.0)
    checks = []
    checks.append(abs(sector_gap(5, p.g) - p.omega) < 1e-12)
    exact, series = neighbor_gap_expansion(5, +1)
    checks.append(abs(exact - math.sqrt(1.2)) < 1e-12
                  and abs(series - 1.095) < 1e-12)
    checks.append(abs(gap_width(5.0, 5.0) - 1.0 / (2 * math.sqrt(5.0))) < 1e-12)

    v = sweep_rate(p.delta0, p.tau_p)
    p0 = lz_probability(p.omega, v)
    power_law = max(abs(lz_probability(p.omega * math.sqrt(n / 5.0), v) - p0 ** (n / 5.0))
                    for n in range(0, 16))
    checks.append(power_law < 1e-14)

    beta = math.pi * p.omega**2 / (2 * v)
    eps = 1e-3
    amp = lambda x: fringe_amplitude(math.exp(-beta * x))
    fd = (amp(1 + eps) - 2 * amp(1.0) + amp(1 - eps)) / eps**2
    checks.append(abs(fd - fringe_curvature(p0, beta)) / abs(fringe_curvature(p0, beta))
                  < 1e-6)

    sv = build_state(BatterySpec.squeezed_vacuum(0.5))
    checks.append(float(np.max(np.abs(sv[1::2]))) == 0.0)

    small_r_ok = True
    for r in (0.02, 0.05, 0.1):
        _, var_n, _ = vector_stats(build_state(BatterySpec.displaced_squeezed(5.0, r)))
        series_var = 5.0 - 10.0 * r + 11.0 * r**2
        small_r_ok &= abs(var_n - series_var) < 5 * r**3 + 1e-4
    checks.append(small_r_ok)

    names = ["sector_gap", "neighbor_gap", "gap_width", "power_law",
             "fringe_curvature_fd", "even_support", "small_r_variance"]
    ok = all(checks)
    report(9, ok, "; ".join(f"{n}={'ok' if c else 'FAIL'}"
                            for n, c in zip(names, checks)))


def test_criterion_10_heatmap_smoke(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config(
        "heatmap",
        overrides=["grid.theta_count=21", "grid.tau_p_count=21",
                   "grid.nbar_list=5"],
        out_dir=tmp_path, workers=WORKERS)
    files = cmd_heatmap(cfg)
    quantum = [f for f in files if "nbar5" in f.name][0]
    assert len(quantum.read_text().splitlines()) == 1 + 21 * 21
    meta = json.loads(quantum.with_suffix(".json").read_text())
    elapsed = time.perf_counter() - t0
    ok = (meta["min_eigenvalue"] >= -1e-7
          and meta["max_abs_diff_vs_classical"] > 0.01
          and elapsed < 900.0)
    report(10, ok, f"21x21 grid: min eigenvalue {meta['min_eigenvalue']:.2e}, "
                   f"max |dP_e| vs classical {meta['max_abs_diff_vs_classical']:.4f}, "
                   f"{elapsed:.0f}s")
