"""The echo-refocused interferometer: quantum battery and classical reference.

One cycle is a forward detuning sweep, a plateau split by an instantaneous
qubit-only echo at tau_c/2, the remaining plateau, and the reverse sweep.
Each stage is integrated separately and the density matrix is symmetrized
and renormalized between stages.  The quantum run evolves the joint
battery(x)qubit state with the exchange coupling g = Omega / (2 sqrt(nbar)),
integrating only the coherence orders that its outputs depend on; the
classical reference replaces the battery by a fixed transverse drive of the
same mean gap and keeps only the qubit dissipators.

The Heisenberg-picture passes give the same outputs for many initial states
at once: Tr(O Phi(rho0)) = Tr(Phi^dagger(O) rho0), so one backward
integration of the observables serves every battery of one generator and
every battery phase (heisenberg_observables), and one forward and one
backward half-cycle serve every drive phase of the classical reference
(classical_heisenberg).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import OutOfWindow
from .hilbert import (
    HilbertSpec,
    battery_observables,
    build_operators,
    check_density,
    excited_population,
    partial_trace_battery,
    real_expectation,
    sector_min_eig,
)
from .liouvillian import (
    Liouvillian,
    NOISELESS,
    NoiseParams,
    assemble,
    assemble_lindblad,
    coherence_orders,
    devectorize,
    mhz_to_rad_per_ns,
    restrict,
    vectorize,
)
from .odeint import IntegratorConfig, integrate_segment, sanitize
from .states import BatterySpec, build_state, compute_cutoff

_TIME_TOL = 1e-9


@dataclass(frozen=True)
class ProtocolParams:
    """Interferometer definition; angular frequencies in rad/ns, times in ns."""

    omega: float = mhz_to_rad_per_ns(20.0)
    delta0: float = mhz_to_rad_per_ns(100.0)
    tau_p: float = 25.0
    tau_c: float = 100.0
    theta_geo: float = 0.0
    phi_echo: float = 0.0
    nbar: float = 5.0

    def __post_init__(self):
        bad = [f.name for f in fields(self) if not math.isfinite(getattr(self, f.name))]
        if bad:
            raise ValueError(f"non-finite protocol parameters: {', '.join(bad)}")
        if self.tau_p <= 0 or self.tau_c <= 0:
            raise ValueError("tau_p and tau_c must be positive")
        if 2.0 * self.tau_p > self.tau_c + _TIME_TOL:
            raise ValueError(f"2*tau_p={2 * self.tau_p} exceeds tau_c={self.tau_c}")
        if self.nbar <= 0:
            raise ValueError(f"nbar must be > 0, got {self.nbar}")

    @property
    def g(self) -> float:
        """Coupling calibrated so the mean-sector gap equals omega."""
        return self.omega / (2.0 * math.sqrt(self.nbar))

    @property
    def phi_batt(self) -> float:
        """Battery phase driving the geometric control: theta_geo - pi/2."""
        return self.theta_geo - math.pi / 2.0


def detuning(t: float, p: ProtocolParams) -> float:
    """Piecewise-linear waveform: sweep up, plateau, sweep back down."""
    if t < -_TIME_TOL or t > p.tau_c + _TIME_TOL:
        raise OutOfWindow(f"t={t} outside [0, {p.tau_c}]")
    t = min(max(t, 0.0), p.tau_c)
    if t <= p.tau_p:
        return -p.delta0 + 2.0 * p.delta0 * t / p.tau_p
    if t < p.tau_c - p.tau_p:
        return p.delta0
    return p.delta0 - 2.0 * p.delta0 * (t - (p.tau_c - p.tau_p)) / p.tau_p


def echo_unitary(phi_echo: float) -> np.ndarray:
    """Instantaneous pi rotation about the equatorial axis at angle phi_echo.

    U = -i (e^{-i phi} sigma_+ + e^{i phi} sigma_-); it swaps |g> and |e> up
    to phases and therefore moves joint amplitudes between neighboring
    excitation sectors.
    """
    u = np.zeros((2, 2), dtype=complex)
    u[1, 0] = -1j * np.exp(-1j * phi_echo)  # <e|U|g>
    u[0, 1] = -1j * np.exp(1j * phi_echo)   # <g|U|e>
    return u


@dataclass(frozen=True)
class SegmentRecord:
    """State audit at a protocol boundary."""

    label: str
    t: float
    n_tot: float
    p_e: float


@dataclass(frozen=True)
class RunResult:
    """Output observables of one interferometer cycle."""

    p_e: float
    mean_n_initial: float
    mean_n_final: float
    var_n_initial: float
    var_n_final: float
    a_mean_final: complex
    eta_coh_initial: float
    trace_defect: float
    min_eig: float  # quantum cycle: of the excitation-number-diagonal part
    segments: tuple[SegmentRecord, ...] = ()

    @property
    def delta_n(self) -> float:
        """Photon loss over the cycle, <n>_initial - <n>_final."""
        return self.mean_n_initial - self.mean_n_final


@lru_cache(maxsize=32)
def _assembled(n_cut: int, g: float, noise: NoiseParams):
    ops = build_operators(HilbertSpec(n_cut))
    return ops, assemble(ops, g, noise)


@lru_cache(maxsize=64)
def _order_band(n_cut: int, g: float, noise: NoiseParams, max_order: int) -> Liouvillian:
    """The generator on the vec(rho) entries of coherence order |k| <= max_order."""
    ops, lv = _assembled(n_cut, g, noise)
    return restrict(lv, np.flatnonzero(np.abs(coherence_orders(ops.n_tot)) <= max_order))


@lru_cache(maxsize=64)
def _adjoint_band(n_cut: int, g: float, noise: NoiseParams, max_order: int) -> Liouvillian:
    """L^H on the order band |k| <= max_order: the band of L^H is that of L,
    since L never links two orders."""
    return _adjoint(_order_band(n_cut, g, noise, max_order))


def _adjoint(lv: Liouvillian) -> Liouvillian:
    return Liouvillian(dim=lv.dim, l0=lv.l0.conj().T.tocsr(),
                       l_delta=lv.l_delta.conj().T.tocsr(), kept=lv.kept)


def _segment_plan(p: ProtocolParams) -> list[tuple[float, float, str]]:
    t_mid = p.tau_c / 2.0
    plan = [
        (0.0, p.tau_p, "sweep_in"),
        (p.tau_p, t_mid, "plateau_first"),
        (t_mid, p.tau_c - p.tau_p, "plateau_second"),
        (p.tau_c - p.tau_p, p.tau_c, "sweep_out"),
    ]
    return [(a, b, name) for a, b, name in plan if b - a > _TIME_TOL]


def _propagate(y: np.ndarray, lv: Liouvillian, p: ProtocolParams, t_a: float, t_b: float,
               cfg: IntegratorConfig, backward: bool = False) -> np.ndarray:
    """y carried over the protocol segment [t_a, t_b] by the generator lv.

    Forward, dy/dt = L(t) y from t_a to t_b.  Backward, lv holds L^H and y
    is carried by the adjoint of that segment's map: dX/ds = -L(s)^H X from
    s = t_b down to t_a, integrated forwards in u = -s as dX/du = L(-u)^H X.
    L_delta is diagonal, so each right-hand side is one sparse product.  y is
    a vector of kept entries, or (entries, columns) for several at once.
    """
    shape = y.shape
    l0, d = lv.l0, lv.l_delta.diagonal()
    if y.ndim == 2:
        d = d[:, None]
    sign = -1.0 if backward else 1.0

    def rhs(t, v):
        v = v.reshape(shape)
        return (l0 @ v + detuning(sign * t, p) * (d * v)).reshape(-1)

    if backward:
        t_a, t_b = -t_b, -t_a
    return integrate_segment(y.reshape(-1), t_a, t_b, rhs, cfg).reshape(shape)


def _evolve_protocol(
    rho: np.ndarray,
    before: Liouvillian,
    after: Liouvillian,
    p: ProtocolParams,
    cfg: IntegratorConfig,
    echo_joint: np.ndarray | None,
    n_tot_op: np.ndarray | None,
    record: bool,
) -> tuple[np.ndarray, float, list[SegmentRecord]]:
    """Run the staged evolution; returns (rho_final, max trace defect, log).

    Segments up to tau_c/2 integrate the kept vec(rho) entries of `before`,
    later ones those of `after`.  At every boundary the state is a full
    matrix, zero outside the entries just integrated.
    """
    def audit(label: str, t: float, state: np.ndarray) -> SegmentRecord:
        n_tot = real_expectation(state, n_tot_op) if n_tot_op is not None else float("nan")
        return SegmentRecord(label=label, t=t, n_tot=n_tot,
                             p_e=excited_population(state))

    t_mid = p.tau_c / 2.0
    log: list[SegmentRecord] = []
    if record:
        log.append(audit("initial", 0.0, rho))
    trace_defect = 0.0
    for t_a, t_b, name in _segment_plan(p):
        lv = before if t_b <= t_mid + _TIME_TOL else after
        y = np.zeros(lv.dim ** 2, dtype=complex)
        y[lv.kept] = _propagate(vectorize(rho)[lv.kept], lv, p, t_a, t_b, cfg)
        rho = devectorize(y)
        trace_defect = max(trace_defect, abs(float(np.real(np.trace(rho))) - 1.0))
        rho = sanitize(rho)
        if record:
            log.append(audit(name, t_b, rho))
        if echo_joint is not None and abs(t_b - t_mid) <= _TIME_TOL:
            rho = echo_joint @ rho @ echo_joint.conj().T
            if record:
                log.append(audit("echo", t_b, rho))
    return rho, trace_defect, log


def run_quantum(
    p: ProtocolParams,
    battery: BatterySpec,
    noise: NoiseParams = NOISELESS,
    cfg: IntegratorConfig = IntegratorConfig(),
    *,
    apply_echo: bool = True,
    record_segments: bool = False,
) -> RunResult:
    """One full quantum-battery cycle from |psi_B> (x) |g>.

    The scan drivers pass a battery whose phase is theta_geo - pi/2; the
    function itself accepts any battery so phase-covariance checks can
    decouple battery and echo angles.  simulate_constant_detuning is the
    frozen-detuning variant for oracle comparisons.

    Only the coherence orders k = N_row - N_col (N = n + s) that reach an
    output are integrated.  The generator and sanitize never mix orders and
    the echo moves k by 0 or +-2, while P_e, <n>, <n^2>, the trace and the
    audits read k = 0 and <a> reads k = 1: so |k| <= 3 is kept before the
    echo and |k| <= 1 after it (|k| <= 1 throughout without the echo).
    min_eig is therefore that of the k = 0 part, see sector_min_eig.
    """
    n_cut = compute_cutoff(battery)
    ops, _ = _assembled(n_cut, p.g, noise)
    after = _order_band(n_cut, p.g, noise, 1)
    before = _order_band(n_cut, p.g, noise, 3) if apply_echo else after
    psi_b = build_state(battery, n_cut)
    psi = np.kron(psi_b, np.array([1.0, 0.0], dtype=complex))
    rho = np.outer(psi, psi.conj())
    obs_i = battery_observables(rho)

    echo_joint = None
    if apply_echo:
        echo_joint = np.kron(np.eye(n_cut, dtype=complex), echo_unitary(p.phi_echo))

    rho, trace_defect, log = _evolve_protocol(
        rho, before, after, p, cfg, echo_joint, ops.n_tot, record_segments)

    obs_f = battery_observables(rho)
    return RunResult(
        p_e=excited_population(rho),
        mean_n_initial=obs_i.mean_n,
        mean_n_final=obs_f.mean_n,
        var_n_initial=obs_i.var_n,
        var_n_final=obs_f.var_n,
        a_mean_final=obs_f.a_mean,
        eta_coh_initial=obs_i.eta_coh,
        trace_defect=trace_defect,
        min_eig=sector_min_eig(rho),
        segments=tuple(log),
    )


_NAN = float("nan")
_GROUND = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def _classical_generator(omega: float, phi: float, noise: NoiseParams) -> Liouvillian:
    qubit = build_operators(HilbertSpec(1))
    h0 = 0.5 * omega * (np.exp(-1j * phi) * qubit.sigma_plus
                        + np.exp(1j * phi) * qubit.sigma_minus)
    return assemble_lindblad(h0, 0.5 * qubit.sigma_z, [(noise.gamma1, qubit.sigma_minus),
                                                        (noise.gamma_phi / 2.0, qubit.sigma_z)])


def run_classical(
    p: ProtocolParams,
    noise: NoiseParams = NOISELESS,
    cfg: IntegratorConfig = IntegratorConfig(),
    *,
    apply_echo: bool = True,
    record_segments: bool = False,
) -> RunResult:
    """Two-level reference with a fixed transverse drive of the same mean gap.

    H = delta(t) sigma_z / 2 + (Omega/2)(e^{-i phi} sigma_+ + e^{i phi} sigma_-)
    with phi = theta_geo - pi/2, and only the qubit relaxation/dephasing
    channels.  Battery observables are reported as NaN sentinels.
    """
    lv = _classical_generator(p.omega, p.phi_batt, noise)
    echo = echo_unitary(p.phi_echo) if apply_echo else None
    rho, trace_defect, log = _evolve_protocol(
        _GROUND.copy(), lv, lv, p, cfg, echo, None, record_segments)
    diag = check_density(rho)
    return RunResult(
        p_e=float(np.real(rho[1, 1])),
        mean_n_initial=_NAN,
        mean_n_final=_NAN,
        var_n_initial=_NAN,
        var_n_final=_NAN,
        a_mean_final=complex(_NAN, 0.0),
        eta_coh_initial=_NAN,
        trace_defect=trace_defect,
        min_eig=diag.min_eig,
        segments=tuple(log),
    )


_ORDERS = np.arange(-2, 3)


@dataclass(frozen=True)
class HeisenbergObservables:
    """Phi^dagger(Pi_e) and Phi^dagger(n_b) of one echo cycle, at t = 0.

    x holds them as two columns of vec entries `kept` of the joint matrix at
    Fock cutoff n_cut; `orders` gives each entry's coherence order k.
    """

    n_cut: int
    kept: np.ndarray
    orders: np.ndarray
    x: np.ndarray

    def expectations(self, battery: BatterySpec, phis: np.ndarray) -> np.ndarray:
        """(len(phis), 2) array of P_e and <n>_final from rho0(phi) for each phi.

        rho0(0) = |psi_B><psi_B| (x) |g><g| is built from battery as given, at
        its own cutoff and zero-padded, and rho0(phi) = e^{-i phi N} rho0(0)
        e^{i phi N}: each entry of order k picks up e^{-i k phi}.  That is a
        change of battery phase by phi for every battery that sweep accepts.
        """
        c = np.zeros(self.n_cut, dtype=complex)
        psi_b = build_state(battery)
        c[:psi_b.size] = psi_b
        psi = np.kron(c, np.array([1.0, 0.0]))
        rho0 = vectorize(np.outer(psi, psi.conj()))[self.kept]
        terms = self.x.conj() * rho0[:, None]  # Tr(X rho) = vec(X)^H vec(rho), X Hermitian
        per_order = np.stack([terms[self.orders == k].sum(axis=0) for k in _ORDERS])
        return np.real(np.exp(-1j * np.outer(phis, _ORDERS)) @ per_order)


def heisenberg_observables(p: ProtocolParams, n_cut: int, noise: NoiseParams = NOISELESS,
                           cfg: IntegratorConfig = IntegratorConfig()) -> HeisenbergObservables:
    """One backward integration of [Pi_e, n_b] through the echo cycle p.

    Phi^dagger = S1^dagger S2^dagger E^dagger S3^dagger S4^dagger for the
    segment maps S1..S4 and the echo E.  Phi^dagger keeps the coherence
    order, as Phi does, and the adjoint echo O -> U^dagger O U moves it by
    0 or +-2: from the k = 0 observables, the k = 0 band is integrated after
    the echo and |k| <= 2 before it.  theta_geo of p is not used.
    """
    ops, _ = _assembled(n_cut, p.g, noise)
    after = _adjoint_band(n_cut, p.g, noise, 0)
    before = _adjoint_band(n_cut, p.g, noise, 2)
    echo = np.kron(np.eye(n_cut, dtype=complex), echo_unitary(p.phi_echo))
    x = np.column_stack([vectorize(ops.proj_e), vectorize(ops.n_op)])[after.kept]
    lv = after
    for t_a, t_b, _ in reversed(_segment_plan(p)):
        if lv is after and t_b <= p.tau_c / 2.0 + _TIME_TOL:
            full = np.zeros((ops.dim ** 2, 2), dtype=complex)
            full[after.kept] = x
            x = np.column_stack([vectorize(echo.conj().T @ devectorize(col) @ echo)
                                 for col in full.T])[before.kept]
            lv = before
        x = _propagate(x, lv, p, t_a, t_b, cfg, backward=True)
    orders = coherence_orders(ops.n_tot)[before.kept]
    return HeisenbergObservables(n_cut=n_cut, kept=before.kept, orders=orders, x=x)


@dataclass(frozen=True)
class ClassicalHalves:
    """The classical reference's cycle at drive phase 0, split at the echo:
    rho(tau_c/2) from |g>, and Phi_after^dagger(Pi_e) at tau_c/2."""

    rho_mid: np.ndarray
    x_mid: np.ndarray
    phi_echo: float

    def expectations(self, battery: None, phis: np.ndarray) -> np.ndarray:
        """(len(phis), 2) array of P_e and NaN at drive phases phis.

        battery is None: the reference has none, and the call matches
        HeisenbergObservables.expectations so that sweep treats both alike.
        With R = e^{-i phi sigma_z/2}, the drive at phase phi is R H(0)
        R^dagger and the echo at phi_echo is R U(phi_echo - phi) R^dagger,
        while |g>, Pi_e and both qubit dissipators are R-invariant: so
        P_e(phi, phi_echo) = P_e(0, phi_echo - phi).
        """
        p_e = [np.real(np.vdot(self.x_mid, u @ self.rho_mid @ u.conj().T))
               for u in (echo_unitary(self.phi_echo - phi) for phi in phis)]
        return np.column_stack([p_e, np.full(len(p_e), np.nan)])


def classical_heisenberg(p: ProtocolParams, noise: NoiseParams = NOISELESS,
                         cfg: IntegratorConfig = IntegratorConfig()) -> ClassicalHalves:
    """One forward half-cycle of |g> and one backward half-cycle of Pi_e."""
    lv = _classical_generator(p.omega, 0.0, noise)
    adj = _adjoint(lv)
    rho = vectorize(_GROUND)
    x = vectorize(np.diag([0.0, 1.0]).astype(complex))
    for t_a, t_b, _ in _segment_plan(p):
        if t_b <= p.tau_c / 2.0 + _TIME_TOL:
            rho = _propagate(rho, lv, p, t_a, t_b, cfg)
    for t_a, t_b, _ in reversed(_segment_plan(p)):
        if t_b > p.tau_c / 2.0 + _TIME_TOL:
            x = _propagate(x, adj, p, t_a, t_b, cfg, backward=True)
    return ClassicalHalves(devectorize(rho), devectorize(x), p.phi_echo)


@dataclass(frozen=True)
class ConstantDetuningTrace:
    """Qubit trajectory under frozen detuning (oracle-comparison hook)."""

    times: tuple[float, ...]
    p_e: tuple[float, ...]
    coherence_ge: tuple[complex, ...]


def simulate_constant_detuning(
    battery: BatterySpec | Sequence[complex],
    g: float,
    delta: float,
    times: Sequence[float],
    noise: NoiseParams = NOISELESS,
    cfg: IntegratorConfig = IntegratorConfig(),
    n_cut: int | None = None,
) -> ConstantDetuningTrace:
    """Evolve |psi_B>(x)|g> at constant detuning, sampling the reduced qubit.

    battery is either a BatterySpec or an explicit unit-norm amplitude vector.
    No echo and no inter-sample sanitization: this is the raw integration
    used to cross-check the exact sector amplitudes.
    """
    times = [float(t) for t in times]
    if any(t < 0 for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be nonnegative and nondecreasing")
    if isinstance(battery, BatterySpec):
        if n_cut is None:
            n_cut = compute_cutoff(battery)
        psi_b = build_state(battery, n_cut)
    else:
        psi_b = np.asarray(battery, dtype=complex)
        if abs(np.linalg.norm(psi_b) - 1.0) > 1e-10:
            raise ValueError("amplitude vector must have unit norm")
        n_cut = psi_b.size
    ops, lv = _assembled(n_cut, g, noise)
    gen = (lv.l0 + delta * lv.l_delta).tocsr()

    def rhs(t, y):
        return gen @ y

    psi = np.kron(psi_b, np.array([1.0, 0.0], dtype=complex))
    y = vectorize(np.outer(psi, psi.conj()))

    p_es, cohs = [], []
    t_prev = 0.0
    for t in times:
        if t > t_prev:
            y = integrate_segment(y, t_prev, t, rhs, cfg)
            t_prev = t
        rho_q = partial_trace_battery(devectorize(y))
        p_es.append(float(np.real(rho_q[1, 1])))
        cohs.append(complex(rho_q[0, 1]))
    return ConstantDetuningTrace(times=tuple(times), p_e=tuple(p_es),
                                 coherence_ge=tuple(cohs))
