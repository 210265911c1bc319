"""Vectorized Lindblad generator L(t) = L0 + delta(t) * L_delta.

Column-stacking convention: vec(A rho B) = (B^T kron A) vec(rho).  The
generator is written

    L rho = K rho + rho K^dag + sum_j r_j J_j rho J_j^dag,
    K = -i H - (1/2) sum_j r_j J_j^dag J_j,

and assemble_lindblad builds the rows of the vec(rho) entries kept straight
from the nonzeros of each row of K and of each J_j, so a band of coherence
orders costs only its own entries.  The adjoint L^dag X = K^dag X + X K +
sum_j r_j J_j^dag X J_j has the same form, so the same builder makes it from
K^dag and J_j^dag.  Generators are stored sparse (CSR).

The kron forms (hamiltonian_super, dissipator_super, kron_lindblad) and
restrict, which slices a full-space generator, are the reference that the
oracle and the tests compare the direct bands against.
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


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Static and detuning-proportional parts of the generator, both sparse.

    Both act on the entries kept of vec(rho), rho being dim x dim: all dim^2
    of them by default, a band of coherence orders for the protocol.  l_delta
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


def _row_nonzeros(a: sp.csr_matrix, rows: np.ndarray):
    """The stored entries of a in each of rows: (which, col, value), which indexing rows."""
    count = np.diff(a.indptr)[rows]
    which = np.repeat(np.arange(rows.size), count)
    at = np.arange(which.size) - np.repeat(np.cumsum(count) - count, count) + a.indptr[rows][which]
    return which, a.indices[at], a.data[at]


def _diagonal_csr(d: np.ndarray) -> sp.csr_matrix:
    import scipy.sparse as sp

    nz = np.flatnonzero(d)
    return sp.csr_matrix((d[nz], nz, np.searchsorted(nz, np.arange(d.size + 1))),
                         shape=(d.size, d.size))


def assemble_lindblad(h0: np.ndarray, h_delta: np.ndarray,
                      channels: list[tuple[float, np.ndarray]],
                      kept: np.ndarray | None = None, *, adjoint: bool = False) -> Liouvillian:
    """L0 (Hamiltonian h0 plus weighted dissipators) and L_delta on the
    vec(rho) entries kept (all of them by default); L^dag with adjoint.

    Integrating the kept entries alone is exact only if no kept row reads a
    dropped entry; that is checked here, and a violation raises
    DimensionMismatch.  h_delta must be diagonal, so that L_delta is diagonal
    too and a right-hand side needs one sparse product (see Liouvillian).
    """
    import scipy.sparse as sp  # deferred: importing glzi loads no scipy

    dim = h0.shape[0]
    if np.count_nonzero(h_delta - np.diag(np.diagonal(h_delta))):
        raise ValueError("h_delta must be diagonal")
    for rate, _ in channels:
        if rate < 0:
            raise InvalidNoise(f"negative dissipation rate {rate}")
    # sparse products: no BLAS call, so no cost from idle OpenBLAS threads
    # when a caller has not pinned them (see glzi._blas)
    jumps = [(rate, sp.csr_matrix(l_op)) for rate, l_op in channels if rate > 0]
    k_op = -1j * sp.csr_matrix(h0)
    for rate, l_op in jumps:
        k_op = k_op - 0.5 * rate * (l_op.conj().T @ l_op)
    k_delta = -1j * np.diagonal(h_delta)
    if adjoint:
        k_op, k_delta = k_op.conj().T, k_delta.conj()
        jumps = [(rate, l_op.conj().T.tocsr()) for rate, l_op in jumps]
    k_op = k_op.tocsr()
    kept = np.arange(dim * dim) if kept is None else np.asarray(kept)
    r, c = kept % dim, kept // dim

    # (kept row, vec(rho) index read, coefficient) of every term
    w, m, v = _row_nonzeros(k_op, r)
    terms = [(w, m + dim * c[w], v)]  # K rho
    w, m, v = _row_nonzeros(k_op, c)
    terms.append((w, r[w] + dim * m, v.conj()))  # rho K^dag
    for rate, l_op in jumps:  # J rho J^dag
        w, m, v = _row_nonzeros(l_op, r)
        w2, l, v2 = _row_nonzeros(l_op, c[w])
        terms.append((w[w2], m[w2] + dim * l, rate * v[w2] * v2.conj()))
    row, read, coef = (np.concatenate(part) for part in zip(*terms))
    key, at = np.unique(row * dim ** 2 + read, return_inverse=True)
    coef = (np.bincount(at, coef.real, key.size)
            + 1j * np.bincount(at, coef.imag, key.size))
    pos = np.full(dim * dim, -1)
    pos[kept] = np.arange(kept.size)
    nz = coef != 0
    row, col, coef = key[nz] // dim ** 2, pos[key[nz] % dim ** 2], coef[nz]
    if np.any(col < 0):
        raise DimensionMismatch("kept vec(rho) entries read dropped ones")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=kept.size))))
    l0 = sp.csr_matrix((coef, col, indptr), shape=(kept.size, kept.size))
    return Liouvillian(dim=dim, l0=l0, l_delta=_diagonal_csr(k_delta[r] + k_delta[c].conj()),
                       kept=kept)


def generator_terms(ops: JointOperators, g: float, noise: NoiseParams):
    """(h0, h_delta, channels) of the battery-powered interferometer.

    h0 is the exchange coupling, h_delta = sigma_z/2 gets scaled by the
    detuning waveform, and channels are the four dissipators.
    """
    channels = [
        (noise.gamma1, ops.sigma_minus),
        (noise.gamma_phi / 2.0, ops.sigma_z),
        (noise.kappa * (noise.nbar_th + 1.0), ops.a_b),
        (noise.kappa * noise.nbar_th, ops.a_dag),
    ]
    return jc_coupling(ops, g), 0.5 * ops.sigma_z, channels


def assemble(ops: JointOperators, g: float, noise: NoiseParams,
             kept: np.ndarray | None = None, *, adjoint: bool = False) -> Liouvillian:
    """Joint-space generator (L^dag with adjoint) on the vec(rho) entries kept."""
    return assemble_lindblad(*generator_terms(ops, g, noise), kept, adjoint=adjoint)


def hamiltonian_super(h: np.ndarray) -> sp.csr_matrix:
    """Superoperator of rho -> -i[H, rho], in kron form (reference)."""
    import scipy.sparse as sp  # deferred: importing glzi loads no scipy

    hs = sp.csr_matrix(h)
    eye = sp.identity(h.shape[0], dtype=complex, format="csr")
    return (-1j * (sp.kron(eye, hs) - sp.kron(hs.T, eye))).tocsr()


def dissipator_super(l_op: np.ndarray) -> sp.csr_matrix:
    """Superoperator of rho -> L rho L^dag - {L^dag L, rho}/2, in kron form (reference)."""
    import scipy.sparse as sp

    ls = sp.csr_matrix(l_op)
    ldl = (ls.conj().T @ ls).tocsr()
    eye = sp.identity(l_op.shape[0], dtype=complex, format="csr")
    out = sp.kron(ls.conj(), ls) - 0.5 * sp.kron(eye, ldl) - 0.5 * sp.kron(ldl.T, eye)
    return out.tocsr()


def kron_lindblad(h0: np.ndarray, h_delta: np.ndarray,
                  channels: list[tuple[float, np.ndarray]]) -> Liouvillian:
    """The full-space generator of assemble_lindblad, summed from kron forms
    (reference)."""
    dim = h0.shape[0]
    l0 = hamiltonian_super(h0)
    for rate, l_op in channels:
        if rate > 0:
            l0 = l0 + rate * dissipator_super(l_op)
    return Liouvillian(dim=dim, l0=l0.tocsr(), l_delta=hamiltonian_super(h_delta),
                       kept=np.arange(dim * dim))


def restrict(lv: Liouvillian, kept: np.ndarray) -> Liouvillian:
    """A full-space generator lv acting on the vec(rho) entries kept only
    (reference).

    Refuses (DimensionMismatch) a kept entry that feeds a dropped one.
    """
    dropped = np.ones(lv.dim ** 2, dtype=bool)
    dropped[kept] = False
    for gen in (lv.l0, lv.l_delta):
        if gen[dropped][:, kept].count_nonzero():
            raise DimensionMismatch("kept vec(rho) entries feed dropped ones")
    return Liouvillian(dim=lv.dim, l0=lv.l0[kept][:, kept], l_delta=lv.l_delta[kept][:, kept],
                       kept=kept)
