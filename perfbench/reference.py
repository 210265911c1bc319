"""Independent reference for one echo-refocused interferometer cycle.

Nothing here imports glzi.  The master equation is integrated in matrix form,

    d rho/dt = -i (H_eff rho - rho H_eff^dag) + sum_k gamma_k L_k rho L_k^dag,
    H_eff    = H(t) - (i/2) sum_k gamma_k L_k^dag L_k,

on the row-major d x d density matrix with scipy's own ``solve_ivp``
(DOP853) at tight tolerance, not on the column-stacked Liouville vector with
the package's hand-written stepper.  Battery states come from closed forms
(Poisson weights, the Hermite form of a displaced squeezed state, a brentq
solve for the discrete Gaussian), each on its own, larger, Fock cutoff, so
agreement also bounds the package's truncation error.

Units follow the glzi config: frequencies in MHz (ordinary), times in ns,
rates in 1/ns.  Joint basis index 2 n + s with s = 0 the ground state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import gammaln

RTOL = 1e-10
ATOL = 1e-12
# tail mass of the battery distribution left above the reference cutoff
TAIL = 1e-13


@dataclass(frozen=True)
class Physics:
    """Protocol and noise inputs, read from the same keys the CLI receives."""

    omega_mhz: float
    delta0_mhz: float
    tau_p: float
    tau_c: float
    phi_echo: float
    t1: float
    t2: float
    kappa: float
    nbar_th: float

    @classmethod
    def from_config(cls, cfg: dict[str, str]) -> "Physics":
        return cls(
            omega_mhz=float(cfg["protocol.omega_mhz"]),
            delta0_mhz=float(cfg["protocol.delta0_mhz"]),
            tau_p=float(cfg["protocol.tau_p_ns"]),
            tau_c=float(cfg["protocol.tau_c_ns"]),
            phi_echo=float(cfg["protocol.phi_echo"]),
            t1=float(cfg["noise.t1_ns"]),
            t2=float(cfg["noise.t2_ns"]),
            kappa=float(cfg["noise.kappa_per_ns"]),
            nbar_th=float(cfg["noise.nbar_th"]),
        )

    @property
    def omega(self) -> float:
        return 2.0 * math.pi * self.omega_mhz * 1e-3

    @property
    def delta0(self) -> float:
        return 2.0 * math.pi * self.delta0_mhz * 1e-3

    @property
    def gamma1(self) -> float:
        return 1.0 / self.t1

    @property
    def gamma_phi(self) -> float:
        """Pure dephasing rate from 1/T2 = gamma1/2 + gamma_phi."""
        return 1.0 / self.t2 - 0.5 / self.t1

    def delta(self, t: float, tau_p: float) -> float:
        """Detuning: linear sweep up over tau_p, plateau, linear sweep down."""
        if t <= tau_p:
            return self.delta0 * (2.0 * t / tau_p - 1.0)
        if t < self.tau_c - tau_p:
            return self.delta0
        return self.delta0 * (1.0 - 2.0 * (t - self.tau_c + tau_p) / tau_p)


# battery states ---------------------------------------------------------------

def _truncate(amps: np.ndarray) -> np.ndarray:
    """Cut an over-long amplitude vector where the remaining tail is below TAIL."""
    p = np.abs(amps) ** 2
    tail = p[::-1].cumsum()[::-1]  # tail[n] = sum_{m >= n} p_m
    small = tail < TAIL * p.sum()
    if not small[-1]:
        raise ValueError(f"tail {tail[-1]:.3e} of a {amps.size}-level vector above {TAIL}")
    out = amps[:max(int(np.argmax(small)), 2)]
    return out / np.linalg.norm(out)


def _work_size(nbar: float, spread: float) -> int:
    return int(nbar + 14.0 * math.sqrt(spread + 1.0) + 30)


def coherent_amplitudes(nbar: float, phi: float) -> np.ndarray:
    """<n|alpha> with alpha = sqrt(nbar) exp(-i phi), from Poisson weights."""
    n = np.arange(_work_size(nbar, nbar))
    log_p = -nbar + n * math.log(nbar) - gammaln(n + 1.0)
    return _truncate(np.exp(0.5 * log_p - 1j * n * phi))


def displaced_squeezed_amplitudes(nbar: float, r: float, phi: float) -> np.ndarray:
    """D(alpha) S(zeta)|0>, squeezed along the displacement, <n> = nbar.

    |alpha|^2 = nbar - sinh^2 r, alpha = |alpha| exp(-i phi), zeta = r e^{i t}
    with t = 2 arg(alpha).  Amplitudes from the Hermite closed form
    <n|alpha,zeta> = N0 h_n / ((2 cosh r)^n sqrt(n!)) where h_n = s^n H_n(x/s),
    x = alpha cosh r + conj(alpha) e^{i t} sinh r and s^2 = e^{i t} sinh 2r.
    """
    alpha = math.sqrt(nbar - math.sinh(r) ** 2) * np.exp(-1j * phi)
    rot = np.exp(2j * np.angle(alpha)) if alpha != 0 else 1.0
    x = alpha * math.cosh(r) + np.conj(alpha) * rot * math.sinh(r)
    s2 = rot * math.sinh(2.0 * r)
    size = _work_size(nbar, nbar + 8.0 * math.sinh(r) ** 2)
    h = np.zeros(size, dtype=complex)
    h[0] = 1.0
    h[1] = 2.0 * x
    for n in range(1, size - 1):
        h[n + 1] = 2.0 * x * h[n] - 2.0 * n * s2 * h[n - 1]
    n = np.arange(size)
    scale = np.exp(-n * math.log(2.0 * math.cosh(r)) - 0.5 * gammaln(n + 1.0))
    return _truncate(h * scale)


def number_squeezed_sigma(nbar: float, q: float) -> float:
    return max(0.2, q * math.sqrt(nbar))


def discrete_gaussian(nbar: float, q: float, size: int | None = None) -> np.ndarray:
    """Weights p_n ~ exp(-(n - mu)^2 / 2 sigma^2), n < size, mean exactly nbar."""
    sigma = number_squeezed_sigma(nbar, q)
    if size is None:
        size = _work_size(nbar, sigma**2)
    n = np.arange(size, dtype=float)

    def weights(mu: float) -> np.ndarray:
        log_w = -((n - mu) ** 2) / (2.0 * sigma**2)
        w = np.exp(log_w - log_w.max())
        return w / w.sum()

    mu = brentq(lambda m: float(n @ weights(m)) - nbar, 0.0, float(size), xtol=1e-14)
    return weights(mu)


def number_squeezed_amplitudes(nbar: float, q: float, phi: float) -> np.ndarray:
    p = discrete_gaussian(nbar, q)
    return _truncate(np.sqrt(p) * np.exp(-1j * np.arange(p.size) * phi))


def battery_amplitudes(kind: str, nbar: float, param: float, phi: float) -> np.ndarray:
    """kind is 'coherent', 'amp_squeezed' (param r) or 'number_squeezed' (param q)."""
    if kind == "coherent":
        return coherent_amplitudes(nbar, phi)
    if kind == "amp_squeezed":
        return displaced_squeezed_amplitudes(nbar, param, phi)
    if kind == "number_squeezed":
        return number_squeezed_amplitudes(nbar, param, phi)
    raise ValueError(f"unknown battery kind {kind!r}")


def photon_stats(amps: np.ndarray) -> tuple[float, float, float]:
    """(mean, variance, |<a>|^2 / mean) of a normalized amplitude vector."""
    p = np.abs(amps) ** 2
    n = np.arange(amps.size)
    mean = float(n @ p)
    var = float(((n - mean) ** 2) @ p)
    a_mean = complex(np.sum(np.sqrt(n[1:]) * np.conj(amps[:-1]) * amps[1:]))
    return mean, var, abs(a_mean) ** 2 / mean


# closed-form initial statistics -----------------------------------------------

def amp_squeezed_stats(nbar: float, r: float) -> tuple[float, float]:
    """(Var n, |<a>|^2 / nbar) of the amplitude-squeezed state of mean nbar."""
    sh2 = math.sinh(r) ** 2
    a2 = nbar - sh2
    var = a2 * math.exp(-2.0 * r) + 2.0 * sh2 * math.cosh(r) ** 2
    return var, a2 / nbar


def number_squeezed_var(nbar: float, q: float, size: int) -> float:
    p = discrete_gaussian(nbar, q, size)
    n = np.arange(size)
    return float(((n - nbar) ** 2) @ p)


# dynamics ---------------------------------------------------------------------

@dataclass(frozen=True)
class CycleResult:
    p_e: float
    delta_n: float


def _qubit(op: np.ndarray, n_cut: int) -> sp.csr_matrix:
    return sp.kron(sp.identity(n_cut), sp.csr_matrix(op), format="csr")


def _evolve(rho: np.ndarray, h_static: sp.csr_matrix, h_z: sp.csr_matrix,
            jumps: list[tuple[float, sp.csr_matrix]], phys: Physics, tau_p: float,
            echo: sp.csr_matrix) -> np.ndarray:
    """Four segments with the qubit-only echo applied at tau_c / 2."""
    d = rho.shape[0]
    h_eff = h_static.astype(complex)
    for rate, op in jumps:
        h_eff = h_eff - 0.5j * rate * (op.conj().T @ op)
    h_eff = h_eff.tocsr()
    z_diag = h_z.diagonal()
    weighted = [(rate, op.tocsr()) for rate, op in jumps if rate > 0]

    def sandwich(op, m):
        """op m op^dag, using (op m^dag)^dag = m op^dag."""
        return op @ (op @ m.conj().T).conj().T

    def rhs(t, y):
        m = y.reshape(d, d)
        # rho stays Hermitian, so rho H_eff^dag = (H_eff rho)^dag
        a = h_eff @ m + phys.delta(t, tau_p) * (z_diag[:, None] * m)
        out = -1j * (a - a.conj().T)
        for rate, op in weighted:
            out += rate * sandwich(op, m)
        return out.ravel()

    t_mid = 0.5 * phys.tau_c
    bounds = [0.0, tau_p, t_mid, phys.tau_c - tau_p, phys.tau_c]
    y = rho.ravel().astype(complex)
    for t0, t1 in zip(bounds, bounds[1:]):
        if t1 - t0 > 1e-12:
            sol = solve_ivp(rhs, (t0, t1), y, method="DOP853", rtol=RTOL, atol=ATOL)
            if not sol.success:
                raise RuntimeError(f"reference integration failed: {sol.message}")
            y = sol.y[:, -1]
        if t1 == t_mid:
            y = sandwich(echo, y.reshape(d, d)).ravel()
    return y.reshape(d, d)


def _echo(phi_echo: float) -> np.ndarray:
    """-i (e^{-i phi} sigma_+ + e^{i phi} sigma_-) in the (g, e) basis."""
    return np.array([[0.0, -1j * np.exp(1j * phi_echo)],
                     [-1j * np.exp(-1j * phi_echo), 0.0]])


SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e|
SIGMA_Z = np.diag([-1.0, 1.0])


def quantum_cycle(phys: Physics, amps: np.ndarray, nbar: float,
                  tau_p: float | None = None) -> CycleResult:
    """P_e and photon loss of one cycle from battery amplitudes (x) |g>.

    The exchange coupling g = Omega / (2 sqrt(nbar)) puts the mean-sector gap
    at Omega.
    """
    tau_p = phys.tau_p if tau_p is None else tau_p
    n_cut = amps.size
    a = sp.diags(np.sqrt(np.arange(1, n_cut)), 1, format="csr")
    a_joint = sp.kron(a, sp.identity(2), format="csr")
    s_minus = _qubit(SIGMA_MINUS, n_cut)
    g = phys.omega / (2.0 * math.sqrt(nbar))
    h_static = g * (a_joint @ s_minus.conj().T + a_joint.conj().T @ s_minus)
    h_z = 0.5 * _qubit(SIGMA_Z, n_cut)
    jumps = [
        (phys.gamma1, s_minus),
        (0.5 * phys.gamma_phi, _qubit(SIGMA_Z, n_cut)),
        (phys.kappa * (phys.nbar_th + 1.0), a_joint),
        (phys.kappa * phys.nbar_th, a_joint.conj().T.tocsr()),
    ]
    psi = np.zeros(2 * n_cut, dtype=complex)
    psi[0::2] = amps
    rho = np.outer(psi, psi.conj())
    rho_f = _evolve(rho, h_static.tocsr(), h_z, jumps, phys, tau_p,
                    _qubit(_echo(phys.phi_echo), n_cut))
    pops = np.real(np.diagonal(rho_f))
    n_battery = np.repeat(np.arange(n_cut), 2)
    n_init = float(np.arange(n_cut) @ (np.abs(amps) ** 2))
    return CycleResult(p_e=float(pops[1::2].sum()), delta_n=n_init - float(n_battery @ pops))


def classical_cycle(phys: Physics, theta: float, tau_p: float | None = None) -> float:
    """P_e of the two-level reference with drive (Omega/2)(e^{-i phi} s+ + h.c.)."""
    tau_p = phys.tau_p if tau_p is None else tau_p
    phi = theta - 0.5 * math.pi
    s_plus = SIGMA_MINUS.T
    h = 0.5 * phys.omega * (np.exp(-1j * phi) * s_plus + np.exp(1j * phi) * SIGMA_MINUS)
    jumps = [(phys.gamma1, sp.csr_matrix(SIGMA_MINUS)),
             (0.5 * phys.gamma_phi, sp.csr_matrix(SIGMA_Z))]
    rho = np.diag([1.0, 0.0]).astype(complex)
    rho_f = _evolve(rho, sp.csr_matrix(h), sp.csr_matrix(0.5 * SIGMA_Z), jumps, phys,
                    tau_p, sp.csr_matrix(_echo(phys.phi_echo)))
    return float(np.real(rho_f[1, 1]))


def battery_phase(theta: float) -> float:
    """glzi's scans lock the battery phase to theta_geo - pi/2."""
    return theta - 0.5 * math.pi
