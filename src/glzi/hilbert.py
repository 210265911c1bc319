"""Truncated battery(x)qubit Hilbert space: operators and observables.

The joint basis ordering is fixed everywhere in this package:

    joint index k = 2*n + s,  s = 0 -> |g>,  s = 1 -> |e>,

i.e. the battery Fock index is the outer (slow) index and the qubit the
inner (fast) one.  Battery-only operators therefore enter as kron(op, I2)
and qubit-only operators as kron(I_B, op).  The qubit raising/lowering
operators carry all phase conventions; sigma_y is never constructed, so the
basis ordering cannot silently flip a sign.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class HilbertSpec:
    """Fock truncation of the battery mode; the joint dimension is 2*n_cut."""

    n_cut: int

    def __post_init__(self):
        if self.n_cut < 1:
            raise ValueError(f"n_cut must be >= 1, got {self.n_cut}")

    @property
    def joint_dim(self) -> int:
        return 2 * self.n_cut


def joint_index(n: int, excited: bool) -> int:
    """Index of |n,g> (excited=False) or |n,e> (excited=True)."""
    return 2 * n + int(excited)


def destroy(n_cut: int) -> np.ndarray:
    """Battery-only annihilation operator with <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, n_cut, dtype=float)), k=1).astype(complex)


@dataclass(frozen=True, eq=False)
class JointOperators:
    """Dense operators on the joint space, all in the k = 2n + s ordering."""

    n_cut: int
    a_b: np.ndarray
    a_dag: np.ndarray
    sigma_z: np.ndarray
    sigma_plus: np.ndarray
    sigma_minus: np.ndarray
    n_op: np.ndarray
    n_tot: np.ndarray
    proj_e: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.n_cut


def build_operators(spec: HilbertSpec) -> JointOperators:
    """Construct every operator needed by the interferometer on the joint space."""
    nc = spec.n_cut
    eye_b = np.eye(nc, dtype=complex)
    eye_q = np.eye(2, dtype=complex)

    a = destroy(nc)
    # (|g>, |e>) ordering: sigma_+ = |e><g|, sigma_- = |g><e|, sigma_z = |e><e| - |g><g|
    s_plus = np.zeros((2, 2), dtype=complex)
    s_plus[1, 0] = 1.0
    s_minus = s_plus.conj().T
    s_z = np.diag([-1.0, 1.0]).astype(complex)
    p_e = np.diag([0.0, 1.0]).astype(complex)

    a_b = np.kron(a, eye_q)
    n_op = np.kron(a.conj().T @ a, eye_q)
    proj_e = np.kron(eye_b, p_e)
    return JointOperators(
        n_cut=nc,
        a_b=a_b,
        a_dag=a_b.conj().T,
        sigma_z=np.kron(eye_b, s_z),
        sigma_plus=np.kron(eye_b, s_plus),
        sigma_minus=np.kron(eye_b, s_minus),
        n_op=n_op,
        n_tot=n_op + proj_e,
        proj_e=proj_e,
    )


def jc_coupling(ops: JointOperators, g: float) -> np.ndarray:
    """Exchange Hamiltonian g(a sigma_+ + a^dag sigma_-), in rad/ns.

    The products are sparse: a dense one goes through OpenBLAS, whose idle
    pool threads make it some 50x slower where no caller has pinned them.
    """
    import scipy.sparse as sp  # deferred: importing glzi loads no scipy

    h = g * (sp.csr_matrix(ops.a_b) @ sp.csr_matrix(ops.sigma_plus))
    return (h + h.conj().T).toarray()


def expectation(rho: np.ndarray, op: np.ndarray) -> complex:
    """Tr[rho op]; complex in general, real up to roundoff for Hermitian op."""
    if rho.shape != op.shape:
        raise DimensionMismatch(f"state {rho.shape} vs operator {op.shape}")
    return complex(np.einsum("ij,ji->", rho, op))


def real_expectation(rho: np.ndarray, op: np.ndarray, imag_tol: float = 1e-9) -> float:
    """Real part of Tr[rho op], warning when the imaginary residue is large.

    Intended for Hermitian observables, where a residue above imag_tol means
    the state (or the operator) has drifted from Hermiticity.
    """
    value = expectation(rho, op)
    if abs(value.imag) >= imag_tol:
        warnings.warn(f"expectation has imaginary residue {value.imag:.3e}",
                      stacklevel=2)
    return value.real


def excited_population(rho: np.ndarray) -> float:
    """Tr[rho (I_B x |e><e|)] -- the interferometer output."""
    return float(np.real(rho.diagonal()[1::2].sum()))


def partial_trace_qubit(rho: np.ndarray) -> np.ndarray:
    """Reduced battery density matrix (trace over the qubit)."""
    nc = rho.shape[0] // 2
    return np.einsum("isjs->ij", rho.reshape(nc, 2, nc, 2))


def partial_trace_battery(rho: np.ndarray) -> np.ndarray:
    """Reduced 2x2 qubit density matrix (trace over the battery)."""
    nc = rho.shape[0] // 2
    return np.einsum("nsnt->st", rho.reshape(nc, 2, nc, 2))


@dataclass(frozen=True)
class BatteryObservables:
    mean_n: float
    var_n: float
    a_mean: complex
    eta_coh: float


def battery_observables(rho: np.ndarray) -> BatteryObservables:
    """Photon statistics of the battery mode inside a joint state.

    eta_coh = |<a>|^2 / <n> is the coherent fraction; it is defined as 0 for
    an empty mode, which carries no phase reference.
    """
    rho_b = partial_trace_qubit(rho)
    nc = rho_b.shape[0]
    pops = np.real(rho_b.diagonal())
    ns = np.arange(nc)
    mean_n = float(ns @ pops)
    var_n = float((ns**2) @ pops - mean_n**2)
    # Tr[rho_b a] picks up the first subdiagonal with ladder weights
    a_mean = complex(np.sqrt(ns[1:]) @ rho_b.diagonal(-1))
    eta_coh = float(abs(a_mean) ** 2 / mean_n) if mean_n > 0.0 else 0.0
    return BatteryObservables(mean_n=mean_n, var_n=var_n, a_mean=a_mean, eta_coh=eta_coh)


@dataclass(frozen=True)
class DensityDiagnostics:
    herm_defect: float
    trace_defect: float
    min_eig: float
    positivity_violated: bool


def check_density(rho: np.ndarray, tol_pos: float = 1e-7) -> DensityDiagnostics:
    """Audit Hermiticity, unit trace, and positivity of a density matrix."""
    herm_defect = float(np.linalg.norm(rho - rho.conj().T, "fro"))
    trace_defect = float(abs(np.trace(rho) - 1.0))
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    return DensityDiagnostics(
        herm_defect=herm_defect,
        trace_defect=trace_defect,
        min_eig=min_eig,
        positivity_violated=min_eig < -tol_pos,
    )


def sector_min_eig(rho: np.ndarray) -> float:
    """Smallest eigenvalue of the excitation-number-diagonal part of rho.

    Keeping only the blocks of fixed total excitation N = n + s is a pinching,
    which is a channel, so the result is >= the smallest eigenvalue of rho.
    The blocks are 1x1 for |0,g> and |n_cut-1,e> and 2x2 on {|N-1,e>, |N,g>}
    otherwise; P_e, <n> and <n^2> read this part of rho only.
    """
    pops = np.real(rho.diagonal())
    e, g = pops[1:-1:2], pops[2::2]
    off = np.abs(0.5 * (rho.diagonal(-1) + rho.diagonal(1).conj()))[1::2]
    lam = 0.5 * (e + g) - np.hypot(0.5 * (e - g), off)
    return float(min(pops[0], pops[-1], lam.min(initial=np.inf)))
