"""Vectorized Lindblad generator L(t) = L0 + delta(t) * L_delta.

Column-stacking convention: vec(A rho B) = (B^T kron A) vec(rho), so the
commutator part of the generator is -i(I kron H - H^T kron I) and a
dissipator D[L] becomes

    (conj(L) kron L) - (I kron L^dag L)/2 - ((L^dag L)^T kron I)/2.

Superoperators are stored sparse (CSR); at the largest battery occupations
used here the Liouville dimension reaches ~10^4 and the generator stays far
below percent fill.  A generator can be restricted to a subset of the vec(rho)
entries that it never feeds from outside, such as a band of coherence orders
of a generator that conserves the total excitation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, InvalidNoise
from .hilbert import JointOperators, jc_coupling

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class NoiseParams:
    """Dissipation rates in 1/ns: qubit relaxation, pure dephasing, battery loss."""

    gamma1: float = 0.0
    gamma_phi: float = 0.0
    kappa: float = 0.0
    nbar_th: float = 0.0

    def __post_init__(self):
        for name in ("gamma1", "gamma_phi", "kappa", "nbar_th"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvalidNoise(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    @classmethod
    def from_times(cls, t1_ns: float, t2_ns: float,
                   kappa: float = 0.0, nbar_th: float = 0.0) -> "NoiseParams":
        """Derive gamma1 = 1/T1 and gamma_phi = 1/T2 - gamma1/2 (requires T2 <= 2 T1)."""
        if t1_ns <= 0 or t2_ns <= 0:
            raise InvalidNoise(f"T1, T2 must be > 0, got {t1_ns}, {t2_ns}")
        gamma1 = 1.0 / t1_ns
        gamma_phi = 1.0 / t2_ns - gamma1 / 2.0
        if gamma_phi < -1e-15:
            raise InvalidNoise(f"T2={t2_ns} exceeds 2*T1={2 * t1_ns}: negative dephasing")
        return cls(gamma1=gamma1, gamma_phi=max(gamma_phi, 0.0),
                   kappa=kappa, nbar_th=nbar_th)


NOISELESS = NoiseParams()


def mhz_to_rad_per_ns(f_mhz: float) -> float:
    """Convert an ordinary frequency in MHz to angular frequency in rad/ns."""
    return 2.0 * math.pi * f_mhz * 1e-3


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix: [[a,b],[c,d]] -> (a, c, b, d)."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {rho.shape}")
    return rho.reshape(-1, order="F").copy()


def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of vectorize."""
    v = np.asarray(v)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise DimensionMismatch(f"vector of length {v.size} is not a stacked square matrix")
    return v.reshape((d, d), order="F").copy()


def hamiltonian_super(h: np.ndarray) -> sp.csr_matrix:
    """Superoperator of rho -> -i[H, rho]."""
    import scipy.sparse as sp  # deferred: importing glzi loads no scipy

    hs = sp.csr_matrix(h)
    eye = sp.identity(h.shape[0], dtype=complex, format="csr")
    return (-1j * (sp.kron(eye, hs) - sp.kron(hs.T, eye))).tocsr()


def dissipator_super(l_op: np.ndarray) -> sp.csr_matrix:
    """Superoperator of rho -> L rho L^dag - {L^dag L, rho}/2."""
    import scipy.sparse as sp

    ls = sp.csr_matrix(l_op)
    ldl = (ls.conj().T @ ls).tocsr()
    eye = sp.identity(l_op.shape[0], dtype=complex, format="csr")
    out = sp.kron(ls.conj(), ls) - 0.5 * sp.kron(eye, ldl) - 0.5 * sp.kron(ldl.T, eye)
    return out.tocsr()


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Static and detuning-proportional parts of the generator, both sparse.

    Both act on the entries kept of vec(rho), rho being dim x dim: all dim^2
    of them for an assembled generator, a subset after restrict().  l_delta
    is diagonal (assemble_lindblad checks it), so a right-hand side is
    l0 @ y + delta * (l_delta.diagonal() * y).
    """

    dim: int
    l0: sp.csr_matrix
    l_delta: sp.csr_matrix
    kept: np.ndarray


def coherence_orders(n_tot: np.ndarray) -> np.ndarray:
    """Coherence order N_row - N_col of each vec(rho) entry.

    n_tot is a diagonal excitation-number operator; the result is an integer
    array aligned with vectorize(rho).
    """
    n = np.rint(np.real(np.diagonal(n_tot))).astype(int)
    return vectorize(n[:, None] - n[None, :])


def restrict(lv: Liouvillian, kept: np.ndarray) -> Liouvillian:
    """The assembled generator lv acting on the vec(rho) entries kept only.

    Integrating the kept entries alone is exact only if no kept entry feeds a
    dropped one; that is checked here, entry by entry, and a violation raises
    DimensionMismatch.
    """
    dropped = np.ones(lv.dim ** 2, dtype=bool)
    dropped[kept] = False
    for gen in (lv.l0, lv.l_delta):
        if gen[dropped][:, kept].count_nonzero():
            raise DimensionMismatch("kept vec(rho) entries feed dropped ones")
    return Liouvillian(dim=lv.dim, l0=lv.l0[kept][:, kept], l_delta=lv.l_delta[kept][:, kept],
                       kept=kept)


def assemble_lindblad(h0: np.ndarray, h_delta: np.ndarray,
                      channels: list[tuple[float, np.ndarray]]) -> Liouvillian:
    """Assemble L0 (Hamiltonian h0 plus weighted dissipators) and L_delta.

    h_delta must be diagonal, so that L_delta is diagonal too and a
    right-hand side needs one sparse product (see Liouvillian).
    """
    dim = h0.shape[0]
    if np.count_nonzero(h_delta - np.diag(np.diagonal(h_delta))):
        raise ValueError("h_delta must be diagonal")
    l0 = hamiltonian_super(h0)
    for rate, l_op in channels:
        if rate < 0:
            raise InvalidNoise(f"negative dissipation rate {rate}")
        if rate > 0:
            l0 = l0 + rate * dissipator_super(l_op)
    return Liouvillian(dim=dim, l0=l0.tocsr(), l_delta=hamiltonian_super(h_delta),
                       kept=np.arange(dim * dim))


def assemble(ops: JointOperators, g: float, noise: NoiseParams) -> Liouvillian:
    """Joint-space generator for the battery-powered interferometer.

    L0 carries the exchange coupling and all four dissipators; L_delta is the
    commutator with sigma_z/2 and gets scaled by the detuning waveform.
    """
    channels = [
        (noise.gamma1, ops.sigma_minus),
        (noise.gamma_phi / 2.0, ops.sigma_z),
        (noise.kappa * (noise.nbar_th + 1.0), ops.a_b),
        (noise.kappa * noise.nbar_th, ops.a_dag),
    ]
    return assemble_lindblad(jc_coupling(ops, g), 0.5 * ops.sigma_z, channels)
