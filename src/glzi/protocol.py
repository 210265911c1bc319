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
(classical_heisenberg).  A pass gives each fringe as its two harmonics A0
and S2 in the battery phase, and fringe_at evaluates them on a phase grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import _blas
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
def _operators(n_cut: int):
    return build_operators(HilbertSpec(n_cut))


@lru_cache(maxsize=64)
def _order_band(n_cut: int, g: float, noise: NoiseParams, orders: tuple[int, ...],
                adjoint: bool = False) -> Liouvillian:
    """The generator (L^H with adjoint) on the vec(rho) entries whose
    coherence order is in orders, built on those entries only."""
    ops = _operators(n_cut)
    kept = np.flatnonzero(np.isin(coherence_orders(ops.n_tot), orders))
    return assemble(ops, g, noise, kept, adjoint=adjoint)


def _adjoint_band(n_cut: int, g: float, noise: NoiseParams, orders: tuple[int, ...]) -> Liouvillian:
    """L^H on the same entries: the order blocks of L^H are those of L,
    since L never links two orders."""
    return _order_band(n_cut, g, noise, orders, adjoint=True)


def _position(lv: Liouvillian, i: np.ndarray) -> np.ndarray:
    """Position in lv.kept of each vec(rho) index i, -1 where it is dropped."""
    pos = np.full(lv.dim ** 2, -1)
    pos[lv.kept] = np.arange(lv.kept.size)
    return pos[i]


def _transposed(lv: Liouvillian, i: np.ndarray) -> np.ndarray:
    return i // lv.dim + lv.dim * (i % lv.dim)  # vec(rho) index of entry i's transpose


def _mirror(lv: Liouvillian) -> np.ndarray:
    return _position(lv, _transposed(lv, lv.kept))  # see sanitize


def _matrix(y: np.ndarray, lv: Liouvillian) -> np.ndarray:
    """The Hermitian matrix whose kept vec(rho) entries are y, zero where
    neither an entry nor its transpose is kept."""
    full = np.zeros(lv.dim ** 2, dtype=complex)
    half = _mirror(lv) < 0
    full[_transposed(lv, lv.kept[half])] = y[half].conj()
    full[lv.kept] = y
    return full.reshape(lv.dim, lv.dim, order="F")


def echo_map(u: np.ndarray, src: Liouvillian,
             dst: Liouvillian) -> Callable[[np.ndarray], np.ndarray]:
    """rho -> E rho E^H, E = I_B (x) u, from the kept entries of src to those
    of dst, as an index map with phases.  u swaps |g> and |e>, so entry
    (r, c) is u[r%2, 1-r%2] conj(u[c%2, 1-c%2]) rho[r^1, c^1], reading that
    as the conjugate of its transpose where only that is kept (see _matrix).
    """
    r, c = dst.kept % dst.dim, dst.kept // dst.dim
    phase = u[r % 2, 1 - r % 2] * u[c % 2, 1 - c % 2].conj()
    source = (r ^ 1) + dst.dim * (c ^ 1)
    at = _position(src, source)
    conj = at < 0
    at[conj] = _position(src, _transposed(src, source[conj]))
    phase[at < 0] = 0.0

    def echo(y: np.ndarray) -> np.ndarray:
        out = y[at]
        out[conj] = out[conj].conj()
        return out * (phase if y.ndim == 1 else phase[:, None])
    return echo


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
    y: np.ndarray,
    before: Liouvillian,
    after: Liouvillian,
    p: ProtocolParams,
    cfg: IntegratorConfig,
    echo: Callable[[np.ndarray], np.ndarray] | None,
    n_tot_op: np.ndarray | None,
    record: bool,
) -> tuple[np.ndarray, float, list[SegmentRecord]]:
    """Run the staged evolution; returns (final entries, max trace defect, log).

    y holds the kept vec(rho) entries of `before`, of a Hermitian rho; echo
    (see echo_map) carries them to those of `after` at tau_c/2.  Only the
    audits build a full matrix.
    """
    def audit(label: str, t: float, y: np.ndarray, lv: Liouvillian) -> SegmentRecord:
        state = _matrix(y, lv)
        n_tot = real_expectation(state, n_tot_op) if n_tot_op is not None else float("nan")
        return SegmentRecord(label=label, t=t, n_tot=n_tot,
                             p_e=excited_population(state))

    t_mid = p.tau_c / 2.0
    lv = before
    log = [audit("initial", 0.0, y, lv)] if record else []
    trace_defect = 0.0
    for t_a, t_b, name in _segment_plan(p):
        y = _propagate(y, lv, p, t_a, t_b, cfg)
        trace = float(np.real(y[lv.kept % (lv.dim + 1) == 0].sum()))  # the diagonal
        trace_defect = max(trace_defect, abs(trace - 1.0))
        y = sanitize(y, _mirror(lv))
        if record:
            log.append(audit(name, t_b, y, lv))
        if echo is not None and abs(t_b - t_mid) <= _TIME_TOL:
            y, lv = echo(y), after
            if record:
                log.append(audit("echo", t_b, y, lv))
    return y, trace_defect, log


@_blas.one_thread()
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
    audits read k = 0 and <a> reads k = 1: so |k| <= 3 matter before the
    echo and |k| <= 1 after it (|k| <= 1 throughout without the echo), of
    which only k >= 0: rho stays Hermitian.  min_eig is therefore that of
    the k = 0 part, see sector_min_eig.
    """
    n_cut = compute_cutoff(battery)
    ops = _operators(n_cut)
    after = _order_band(n_cut, p.g, noise, (0, 1))
    before = _order_band(n_cut, p.g, noise, (0, 1, 2, 3)) if apply_echo else after
    psi = np.kron(build_state(battery, n_cut), np.array([1.0, 0.0], dtype=complex))
    rho = np.outer(psi, psi.conj())
    obs_i = battery_observables(rho)
    echo = echo_map(echo_unitary(p.phi_echo), before, after) if apply_echo else None
    y, trace_defect, log = _evolve_protocol(
        vectorize(rho)[before.kept], before, after, p, cfg, echo, ops.n_tot, record_segments)
    rho = _matrix(y, after)
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


def _classical_generator(omega: float, phi: float, noise: NoiseParams,
                         adjoint: bool = False) -> Liouvillian:
    qubit = _operators(1)
    h0 = 0.5 * omega * (np.exp(-1j * phi) * qubit.sigma_plus
                        + np.exp(1j * phi) * qubit.sigma_minus)
    return assemble_lindblad(h0, 0.5 * qubit.sigma_z, [(noise.gamma1, qubit.sigma_minus),
                                                        (noise.gamma_phi / 2.0, qubit.sigma_z)],
                             adjoint=adjoint)


@_blas.one_thread()
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
    echo = echo_map(echo_unitary(p.phi_echo), lv, lv) if apply_echo else None
    y, trace_defect, log = _evolve_protocol(
        vectorize(_GROUND), lv, lv, p, cfg, echo, None, record_segments)
    rho = devectorize(y)
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


def fringe_at(a0: np.ndarray, s2: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """A0 + 2 Re(e^{-2i phi} S2) at each battery phase phi, shape (len(phis),
    *a0.shape): the fringe of each observable whose harmonics a0 and s2 hold.

    A locked-phase fringe is a second harmonic in phi, since the initial
    state's entries of coherence order k pick up e^{-i k phi} and only k = 0
    and +-2 reach the outputs; 4 |S2| of P_e is its exact contrast.
    """
    return np.real(a0 + np.multiply.outer(2.0 * np.exp(-2j * np.asarray(phis)), s2))


@dataclass(frozen=True)
class HeisenbergObservables:
    """Phi^dagger(Pi_e) and Phi^dagger(n_b) of one echo cycle, at t = 0.

    x holds them as two columns of vec entries `kept` of the joint matrix at
    Fock cutoff n_cut, of coherence order 0 and 2 (`second`): no other order
    is nonzero, and -2 is the conjugate transpose of 2.
    """

    n_cut: int
    kept: np.ndarray
    second: np.ndarray
    x: np.ndarray

    def initial(self, battery: BatterySpec) -> np.ndarray:
        """The kept entries of rho0 = |psi_B><psi_B| (x) |g><g|, psi_B built
        from battery as given, at its own cutoff and zero-padded.  Passes of
        one battery size share n_cut and kept, so one build serves them all."""
        psi_b, d = build_state(battery), 2 * self.n_cut
        psi = np.zeros(d, dtype=complex)
        psi[:2 * psi_b.size:2] = psi_b  # |psi_B> (x) |g>, zero-padded
        return psi[self.kept % d] * psi[self.kept // d].conj()

    def harmonics(self, rho0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A0, S2) of [P_e, <n>_final] in the phase phi of rho0 (see initial).

        rho0(phi) = e^{-i phi N} rho0 e^{i phi N} changes the battery phase by
        phi for every battery that sweep accepts, and Tr(X rho0(phi)) =
        vec(X)^H vec(rho0(phi)) = A0 + 2 Re(e^{-2i phi} S2) over the order 0
        and 2 entries, order -2 giving the conjugate of S2 (see fringe_at).
        """
        terms = self.x.conj() * rho0[:, None]
        return terms[~self.second].sum(axis=0), terms[self.second].sum(axis=0)


@_blas.one_thread()
def heisenberg_observables(p: ProtocolParams, n_cut: int, noise: NoiseParams = NOISELESS,
                           cfg: IntegratorConfig = IntegratorConfig()) -> HeisenbergObservables:
    """One backward integration of [Pi_e, n_b] through the echo cycle p.

    Phi^dagger = S1^dagger S2^dagger E^dagger S3^dagger S4^dagger for the
    segment maps S1..S4 and the echo E.  Phi^dagger keeps the coherence
    order, as Phi does, and the adjoint echo O -> U^dagger O U moves it by
    0 or +-2: from the k = 0 observables, k = 0 is integrated after the echo
    and k in {0, 2} before it (X being Hermitian).  theta_geo is not used.
    """
    ops = _operators(n_cut)
    after = _adjoint_band(n_cut, p.g, noise, (0,))
    before = _adjoint_band(n_cut, p.g, noise, (0, 2))
    echo = echo_map(echo_unitary(p.phi_echo).conj().T, after, before)
    x = np.column_stack([vectorize(ops.proj_e), vectorize(ops.n_op)])[after.kept]
    lv = after
    for t_a, t_b, _ in reversed(_segment_plan(p)):
        if lv is after and t_b <= p.tau_c / 2.0 + _TIME_TOL:
            x, lv = echo(x), before
        x = _propagate(x, lv, p, t_a, t_b, cfg, backward=True)
    second = coherence_orders(ops.n_tot)[before.kept] == 2
    return HeisenbergObservables(n_cut=n_cut, kept=before.kept, second=second, x=x)


@_blas.one_thread()
def classical_heisenberg(p: ProtocolParams, noise: NoiseParams = NOISELESS,
                         cfg: IntegratorConfig = IntegratorConfig()
                         ) -> tuple[np.ndarray, np.ndarray]:
    """(A0, S2) of [P_e, NaN] of the classical reference, from one forward
    half-cycle of |g> and one backward half-cycle of Pi_e at drive phase 0.

    With R = e^{-i phi sigma_z/2}, the drive at phase phi is R H(0) R^dagger
    and the echo at phi_echo is R U(phi_echo - phi) R^dagger, while |g>, Pi_e
    and both qubit dissipators are R-invariant: so P_e(phi, phi_echo) =
    Tr(X U(psi) rho U(psi)^dagger), psi = phi_echo - phi, for rho = rho(tau_c/2)
    and X = Phi_after^dagger(Pi_e) at drive phase 0.  U(psi) swaps |g> and |e>
    and multiplies rho_eg by e^{2i psi}, which gives A0 and S2 in closed form.
    """
    lv = _classical_generator(p.omega, 0.0, noise)
    adj = _classical_generator(p.omega, 0.0, noise, adjoint=True)
    rho = vectorize(_GROUND)
    x = vectorize(np.diag([0.0, 1.0]).astype(complex))
    for t_a, t_b, _ in _segment_plan(p):
        if t_b <= p.tau_c / 2.0 + _TIME_TOL:
            rho = _propagate(rho, lv, p, t_a, t_b, cfg)
    for t_a, t_b, _ in reversed(_segment_plan(p)):
        if t_b > p.tau_c / 2.0 + _TIME_TOL:
            x = _propagate(x, adj, p, t_a, t_b, cfg, backward=True)
    rho, x = devectorize(rho), devectorize(x).conj()
    a0 = x[0, 0] * rho[1, 1] + x[1, 1] * rho[0, 0]
    s2 = x[0, 1] * rho[1, 0] * np.exp(2j * p.phi_echo)
    return np.array([a0, _NAN]), np.array([s2, _NAN])


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
    lv = assemble(_operators(n_cut), g, noise)
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
