"""Closed-form references for the sector-resolved interferometer.

Everything here is analytic: sector gaps and their neighbor expansions, the
asymptotic sweep-through probability and its power law under the fixed-gap
calibration, the adiabatic-impulse fringe model, the exact constant-detuning
sector amplitudes, and photon statistics of squeezed batteries.  These are
used as independent cross-checks of the density-matrix simulation, never as
the production model; oracle_report runs the named checks that
`glzi oracle-check` writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _blas
from .errors import EnergyBudgetExceeded
from .hilbert import HilbertSpec, build_operators, jc_coupling
from .liouvillian import NoiseParams, assemble, coherence_orders, devectorize, vectorize
from .odeint import IntegratorConfig
from .protocol import (
    ProtocolParams,
    echo_unitary,
    heisenberg_observables,
    run_quantum,
    simulate_constant_detuning,
)
from .states import BatterySpec, build_state, compute_cutoff


def sector_gap(n: int, g: float) -> float:
    """Avoided-crossing gap 2 g sqrt(n) of the n-excitation block."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return 2.0 * g * math.sqrt(n)


def neighbor_gap_expansion(n: int, sign: int, order: int = 2) -> tuple[float, float]:
    """Exact and series ratio of the (n +/- 1)-sector gap to the n-sector gap.

    Returns (sqrt(1 +/- 1/n), 1 +/- 1/(2n) [- 1/(8 n^2)]); the second-order
    term enters with the same sign for both branches.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    exact = math.sqrt(1.0 + sign / n)
    series = 1.0 + sign / (2.0 * n)
    if order == 2:
        series -= 1.0 / (8.0 * n * n)
    return exact, series


def gap_width(var_n: float, nbar: float) -> float:
    """RMS relative width sqrt(Var(n)) / (2 nbar) of the gap distribution."""
    if nbar <= 0:
        raise ValueError(f"nbar must be > 0, got {nbar}")
    if var_n < 0:
        raise ValueError(f"var_n must be >= 0, got {var_n}")
    return math.sqrt(var_n) / (2.0 * nbar)


def sweep_rate(delta0: float, tau_p: float) -> float:
    """Detuning slope 2*delta0/tau_p of the linear sweep, in rad/ns^2."""
    return 2.0 * delta0 / tau_p


def lz_probability(gap: float, v: float) -> float:
    """Asymptotic diabatic-passage probability exp(-pi gap^2 / (2 v))."""
    if v <= 0:
        raise ValueError(f"sweep rate must be > 0, got {v}")
    return math.exp(-math.pi * gap**2 / (2.0 * v))


def fringe_amplitude(p: float) -> float:
    """Two-passage interference amplitude 4 P (1 - P)."""
    return 4.0 * p * (1.0 - p)


def fringe_curvature(p0: float, beta: float) -> float:
    """Second derivative at x=1 of A(x) = 4 e^{-beta x}(1 - e^{-beta x})."""
    return 4.0 * beta**2 * p0 * (1.0 - 4.0 * p0)


def averaged_deficit(p0: float, beta: float, var_n: float, nbar: float) -> float:
    """Leading distribution-averaged loss of fringe amplitude.

    A(1) - <A> ~= 2 beta^2 P0 (4 P0 - 1) Var(n) / nbar^2; for Poisson
    statistics this scales as 1/nbar.
    """
    return 2.0 * beta**2 * p0 * (4.0 * p0 - 1.0) * var_n / nbar**2


class SectorAmplitudes(NamedTuple):
    stay: complex  # amplitude to remain on |n, g>
    flip: complex  # amplitude transferred to |n-1, e>


def sector_amplitudes(n: int, g: float, delta: float, t: float) -> SectorAmplitudes:
    """Exact constant-detuning evolution of the n-excitation block from |n, g>.

    With lam = sqrt(g^2 n + delta^2/4):
        stay = cos(lam t) + i (delta / 2 lam) sin(lam t)
        flip = -i (g sqrt(n) / lam) sin(lam t)
    For n = 0 the block is one-dimensional and stay reduces to the bare
    phase exp(i delta t / 2).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    gn = g * math.sqrt(n)
    lam = math.hypot(gn, delta / 2.0)
    if lam == 0.0:
        return SectorAmplitudes(stay=1.0 + 0.0j, flip=0.0j)
    s = math.sin(lam * t)
    stay = math.cos(lam * t) + 1j * (delta / (2.0 * lam)) * s
    flip = -1j * (gn / lam) * s
    return SectorAmplitudes(stay=stay, flip=flip)


class ReducedQubit(NamedTuple):
    p_excited: float
    p_ground: float
    coherence_ge: complex  # <g| rho_qubit |e>


def reduced_qubit(amplitudes: Sequence[complex], g: float, delta: float,
                  t: float) -> ReducedQubit:
    """Reduced qubit state after constant-detuning evolution from |g>.

    The battery starts in sum_n c_n |n>; the excited population only sees the
    sector populations, while the coherence requires adjacent Fock coherences
    c_k c_{k+1}^*.
    """
    c = np.asarray(amplitudes, dtype=complex)
    stay = np.empty(c.size, dtype=complex)
    flip = np.empty(c.size, dtype=complex)
    for n in range(c.size):
        stay[n], flip[n] = sector_amplitudes(n, g, delta, t)
    probs = np.abs(c) ** 2
    p_e = float(probs @ np.abs(flip) ** 2)
    p_g = float(probs @ np.abs(stay) ** 2)
    coh = complex(np.sum(c[:-1] * np.conj(c[1:]) * stay[:-1] * np.conj(flip[1:])))
    return ReducedQubit(p_excited=p_e, p_ground=p_g, coherence_ge=coh)


def amean_from_amplitudes(amplitudes: Sequence[complex]) -> complex:
    """<a> = sum_k sqrt(k+1) c_k^* c_{k+1} from Fock amplitudes."""
    c = np.asarray(amplitudes, dtype=complex)
    k = np.arange(1, c.size)
    return complex(np.sum(np.sqrt(k) * np.conj(c[:-1]) * c[1:]))


def adjacent_overlap_amean(probs: Sequence[float]) -> float:
    """|<a>| of a uniform-phase state: sum_n sqrt(n+1) sqrt(p_n p_{n+1})."""
    p = np.asarray(probs, dtype=float)
    n = np.arange(1, p.size)
    return float(np.sum(np.sqrt(n) * np.sqrt(p[:-1] * p[1:])))


@dataclass(frozen=True)
class SqueezedStats:
    var_n: float
    eta_coh: float
    omega_eff_ratio: float


def squeezed_stats(nbar: float, r: float,
                   alignment: str | float = "amplitude") -> SqueezedStats:
    """Photon statistics of a fixed-energy displaced squeezed state.

    alignment selects the squeezing angle relative to the displacement:
    "amplitude" squeezes along it (quadrature factor e^{-2r}), "phase"
    orthogonally (e^{+2r}); a float is taken as the relative angle whose
    cosine interpolates between the two.  The coherent fraction is
    1 - sinh^2(r)/nbar and the effective drive scales with its square root.
    """
    sh2 = math.sinh(r) ** 2
    if nbar <= sh2:
        raise EnergyBudgetExceeded(f"nbar={nbar} <= sinh^2(r)={sh2:.6f}")
    if alignment == "amplitude":
        quad = math.exp(-2.0 * r)
    elif alignment == "phase":
        quad = math.exp(2.0 * r)
    else:
        quad = math.cosh(2.0 * r) - math.sinh(2.0 * r) * math.cos(float(alignment))
    var_n = (nbar - sh2) * quad + 2.0 * sh2 * (sh2 + 1.0)
    eta = 1.0 - sh2 / nbar
    return SqueezedStats(var_n=var_n, eta_coh=eta, omega_eff_ratio=math.sqrt(eta))


def _check(name: str, defect: float, threshold: float) -> dict:
    defect = float(defect)
    return {"name": name, "defect": defect, "threshold": float(threshold),
            "passed": bool(defect <= threshold)}


@_blas.one_thread()
def oracle_report() -> list[dict]:
    """Named invariant checks comparing the simulator against closed forms.

    Runs with every OpenBLAS pool pinned to one thread, as sweeps do.
    """
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

    # run_quantum integrates only the coherence orders k = N_row - N_col its
    # outputs read, and sweep's backward pass too: both rest on L0 and
    # L_delta never linking two orders and the echo moving k by 0 or +-2.
    # nbar_th > 0 switches every dissipator on.
    noise_th = NoiseParams(gamma1=0.01, gamma_phi=0.002, kappa=1e-4, nbar_th=0.3)
    lv_th = assemble(ops, g, noise_th)
    orders = coherence_orders(ops.n_tot)
    shift = orders[:, None] - orders[None, :]
    echo_super = np.kron(echo.conj(), echo)
    leak = max(float(np.max(np.abs(gen.toarray()[shift != 0])))
               for gen in (lv_th.l0, lv_th.l_delta))
    leak = max(leak, float(np.max(np.abs(echo_super[(shift != 0) & (np.abs(shift) != 2)]))))
    checks.append(_check("generator_conserves_coherence_order", leak, 0.0))
    # every right-hand side is l0 @ y + delta * (diagonal of L_delta) * y
    ld = lv_th.l_delta.tocoo()
    checks.append(_check("detuning_generator_is_diagonal",
                         float(np.max(np.abs(ld.data[ld.row != ld.col]), initial=0.0)), 0.0))

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 40))
        amp = sector_amplitudes(n, rng.uniform(0.01, 0.3),
                                       rng.uniform(-1.0, 1.0), rng.uniform(0.0, 200.0))
        worst = max(worst, abs(abs(amp.stay) ** 2 + abs(amp.flip) ** 2 - 1.0))
    checks.append(_check("sector_evolution_unitary", worst, 1e-14))

    omega, v, nbar = 0.1257, 0.0503, 5.0
    p0 = lz_probability(omega, v)
    worst = max(abs(lz_probability(omega * math.sqrt(n / nbar), v)
                    - p0 ** (n / nbar)) for n in range(0, 21))
    checks.append(_check("sweep_probability_power_law", worst, 1e-14))

    exact, series = neighbor_gap_expansion(100, +1)
    checks.append(_check("neighbor_gap_series_remainder", abs(exact - series), 1e-6))

    beta = 0.4935
    p_base = math.exp(-beta)
    eps = 1e-3

    def amp_of(x):
        return fringe_amplitude(math.exp(-beta * x))

    fd = (amp_of(1 + eps) - 2 * amp_of(1.0) + amp_of(1 - eps)) / eps**2
    curv = fringe_curvature(p_base, beta)
    checks.append(_check("fringe_curvature_matches_finite_difference",
                         abs(fd - curv) / abs(curv), 1e-6))

    s_amp = squeezed_stats(5.0, 0.35, "amplitude")
    s_ph = squeezed_stats(5.0, 0.35, "phase")
    ordering_defect = max(0.0, s_amp.var_n - 5.0) + max(0.0, 5.0 - s_ph.var_n)
    checks.append(_check("squeezed_variance_ordering", ordering_defect, 0.0))

    r_small = 0.2
    eta = squeezed_stats(5.0, r_small).eta_coh
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
        ref = reduced_qubit(full_amps, g, delta, t)
        worst = max(worst, abs(pe - ref.p_excited), abs(coh_ge - ref.coherence_ge))
    checks.append(_check("sector_decomposition_vs_simulation", worst, 1e-6))

    # sweep's closed form in theta implies this: direct cycles at five locked
    # phases fit A0 + A2c cos 2phi + A2s sin 2phi
    thetas = 0.1 + np.linspace(0.0, math.pi, 5, endpoint=False)
    runs = []
    for th in thetas:
        p = ProtocolParams(theta_geo=float(th), nbar=1.0)
        runs.append(run_quantum(p, BatterySpec.coherent(1.0, p.phi_batt), noise))
    phi = thetas - math.pi / 2.0
    basis = np.column_stack([np.ones_like(phi), np.cos(2.0 * phi), np.sin(2.0 * phi)])
    worst = 0.0
    for values in ([r.p_e for r in runs], [r.delta_n for r in runs]):
        coef, *_ = np.linalg.lstsq(basis, values, rcond=None)
        worst = max(worst, float(np.max(np.abs(basis @ coef - values))))
    checks.append(_check("fringe_is_second_harmonic", worst, 1e-7))

    # sweep's Heisenberg-picture pass against a tight forward cycle
    battery = BatterySpec.displaced_squeezed(2.0, 0.3)
    p = ProtocolParams(theta_geo=float(rng.uniform(0.0, math.pi)), nbar=2.0, phi_echo=0.4)
    fwd = run_quantum(p, battery.with_phase(p.phi_batt), noise_th,
                      IntegratorConfig(rtol=1e-11, atol=1e-13))
    adj = heisenberg_observables(p, compute_cutoff(battery), noise_th).expectations(
        battery.with_phase(0.0), np.array([p.phi_batt]))[0]
    checks.append(_check("adjoint_matches_forward",
                         max(abs(adj[0] - fwd.p_e), abs(adj[1] - fwd.mean_n_final)), 1e-7))
    return checks
