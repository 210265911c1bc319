"""Initial battery states in the truncated Fock basis.

Every builder returns a unit-norm complex amplitude vector of length n_cut.
The battery phase convention matches the protocol driver: a coherent state
uses alpha = sqrt(nbar) * exp(-i*phi), and phase-carrying Fock expansions use
amplitude factors exp(-i*n*phi), so that <a> = |<a>| exp(-i*phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CutoffTooSmall,
    EnergyBudgetExceeded,
    IndexOutOfRange,
    MeanUnreachable,
)
from .hilbert import destroy

COHERENT = "coherent"
DISPLACED_SQUEEZED = "displaced_squeezed"
NUMBER_SQUEEZED = "number_squeezed"
FOCK = "fock"
SQUEEZED_VACUUM = "squeezed_vacuum"

ALIGN_AMPLITUDE = "amplitude"
ALIGN_PHASE = "phase"
ALIGN_ANGLE = "angle"

# truncation tail allowed before a state build refuses the cutoff
TAIL_TOL = 1e-8


@dataclass(frozen=True)
class BatterySpec:
    """Tagged description of an initial battery state.

    kind selects the family; the remaining fields are read per family:
      coherent            -- nbar, phi
      displaced_squeezed  -- nbar, r, phi, alignment (theta_s if "angle")
      number_squeezed     -- nbar, q, phi
      fock                -- n
      squeezed_vacuum     -- r, theta_s
    """

    kind: str
    nbar: float = 0.0
    phi: float = 0.0
    r: float = 0.0
    q: float = 1.0
    n: int = 0
    alignment: str = ALIGN_AMPLITUDE
    theta_s: float = 0.0

    @classmethod
    def coherent(cls, nbar: float, phi: float = 0.0) -> "BatterySpec":
        return cls(kind=COHERENT, nbar=nbar, phi=phi)

    @classmethod
    def displaced_squeezed(
        cls,
        nbar: float,
        r: float,
        phi: float = 0.0,
        alignment: str = ALIGN_AMPLITUDE,
        theta_s: float = 0.0,
    ) -> "BatterySpec":
        return cls(kind=DISPLACED_SQUEEZED, nbar=nbar, r=r, phi=phi,
                   alignment=alignment, theta_s=theta_s)

    @classmethod
    def number_squeezed(cls, nbar: float, q: float, phi: float = 0.0) -> "BatterySpec":
        return cls(kind=NUMBER_SQUEEZED, nbar=nbar, q=q, phi=phi)

    @classmethod
    def fock(cls, n: int) -> "BatterySpec":
        return cls(kind=FOCK, n=n)

    @classmethod
    def squeezed_vacuum(cls, r: float, theta_s: float = 0.0) -> "BatterySpec":
        return cls(kind=SQUEEZED_VACUUM, r=r, theta_s=theta_s)

    def with_phase(self, phi: float) -> "BatterySpec":
        """Copy with the battery phase replaced (no-op for phase-free kinds)."""
        if self.kind in (FOCK, SQUEEZED_VACUUM):
            return self
        return replace(self, phi=phi)

    def label(self) -> str:
        """Short descriptor used in filenames and CSV columns."""
        def num(x: float) -> str:
            return f"{x:g}".replace(".", "p").replace("-", "m")

        if self.kind == COHERENT:
            return f"coherent_nbar{num(self.nbar)}"
        if self.kind == DISPLACED_SQUEEZED:
            return f"displaced_squeezed_nbar{num(self.nbar)}_r{num(self.r)}_{self.alignment}"
        if self.kind == NUMBER_SQUEEZED:
            return f"number_squeezed_nbar{num(self.nbar)}_q{num(self.q)}"
        if self.kind == FOCK:
            return f"fock_n{self.n}"
        return f"squeezed_vacuum_r{num(self.r)}"


def compute_cutoff(spec: BatterySpec) -> int:
    """State-dependent Fock cutoff large enough for percent-level dynamics.

    Coherent states keep five standard deviations of headroom, displaced
    squeezed states seven (on an inflated effective occupation), and
    number-squeezed states eight widths.
    """
    if spec.kind == COHERENT:
        return max(8, math.ceil(spec.nbar + 5.0 * math.sqrt(spec.nbar + 1.0) + 8.0))
    if spec.kind in (DISPLACED_SQUEEZED, SQUEEZED_VACUUM):
        sh2 = math.sinh(spec.r) ** 2
        nbar = spec.nbar if spec.kind == DISPLACED_SQUEEZED else sh2
        n_eff = nbar + 4.0 * sh2 + 2.0
        return max(12, math.ceil(n_eff + 7.0 * math.sqrt(n_eff + 1.0) + 8.0))
    if spec.kind == NUMBER_SQUEEZED:
        sigma = max(0.2, spec.q * math.sqrt(spec.nbar))
        return max(10, math.ceil(spec.nbar + 8.0 * sigma + 10.0))
    if spec.kind == FOCK:
        return spec.n + 3
    raise ValueError(f"unknown battery kind {spec.kind!r}")


def build_state(spec: BatterySpec, n_cut: int | None = None) -> np.ndarray:
    """Build the amplitude vector for a battery spec at the given cutoff."""
    if n_cut is None:
        n_cut = compute_cutoff(spec)
    if spec.kind == COHERENT:
        return build_coherent(spec.nbar, spec.phi, n_cut)
    if spec.kind == DISPLACED_SQUEEZED:
        return build_displaced_squeezed(spec.nbar, spec.r, spec.phi, n_cut,
                                        alignment=spec.alignment, theta_s=spec.theta_s)
    if spec.kind == NUMBER_SQUEEZED:
        return build_number_squeezed(spec.nbar, spec.q, spec.phi, n_cut)
    if spec.kind == FOCK:
        return build_fock(spec.n, n_cut)
    if spec.kind == SQUEEZED_VACUUM:
        return build_squeezed_vacuum(spec.r, spec.theta_s, n_cut)
    raise ValueError(f"unknown battery kind {spec.kind!r}")


def vector_stats(c: np.ndarray) -> tuple[float, float, complex]:
    """(mean_n, var_n, <a>) of a normalized battery amplitude vector."""
    p = np.abs(c) ** 2
    ns = np.arange(c.size)
    mean_n = float(ns @ p)
    var_n = float((ns**2) @ p - mean_n**2)
    a_mean = complex(np.sum(np.sqrt(ns[1:]) * np.conj(c[:-1]) * c[1:]))
    return mean_n, var_n, a_mean


def build_coherent(nbar: float, phi: float, n_cut: int) -> np.ndarray:
    """Coherent state |alpha> with alpha = sqrt(nbar) exp(-i phi)."""
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    alpha = math.sqrt(nbar) * np.exp(-1j * phi)
    c = np.zeros(n_cut, dtype=complex)
    c[0] = math.exp(-nbar / 2.0)
    for n in range(1, n_cut):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    tail = 1.0 - float(np.sum(np.abs(c) ** 2))
    if tail >= TAIL_TOL:
        raise CutoffTooSmall(f"coherent tail {tail:.3e} at n_cut={n_cut} (nbar={nbar})")
    return c / np.linalg.norm(c)


def displacement_matrix(alpha: complex, n_cut: int) -> np.ndarray:
    """Truncated displacement operator exp(K), K = alpha a^dag - alpha* a, as
    V diag(e^{-iw}) V^dagger from numpy's eigh of the Hermitian iK."""
    a = destroy(n_cut)
    w, v = np.linalg.eigh(1j * (alpha * a.conj().T - np.conj(alpha) * a))
    return (v * np.exp(-1j * w)) @ v.conj().T


def build_squeezed_vacuum(r: float, theta_s: float, n_cut: int) -> np.ndarray:
    """Squeezed vacuum S(zeta)|0> with zeta = r exp(i theta_s); even Fock support only."""
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    c = np.zeros(n_cut, dtype=complex)
    c[0] = 1.0 / math.sqrt(math.cosh(r))
    factor = -np.exp(1j * theta_s) * math.tanh(r)
    for m in range(1, (n_cut - 1) // 2 + 1):
        c[2 * m] = c[2 * m - 2] * factor * math.sqrt((2 * m) * (2 * m - 1)) / (2.0 * m)
    c = c / np.linalg.norm(c)
    mean_n, _, _ = vector_stats(c)
    if abs(mean_n - math.sinh(r) ** 2) > 1e-6:
        raise CutoffTooSmall(
            f"squeezed vacuum <n>={mean_n:.8f} differs from sinh^2(r)={math.sinh(r)**2:.8f} "
            f"at n_cut={n_cut}"
        )
    return c


def build_displaced_squeezed(
    nbar: float,
    r: float,
    phi_batt: float,
    n_cut: int,
    alignment: str = ALIGN_AMPLITUDE,
    theta_s: float = 0.0,
) -> np.ndarray:
    """Fixed-energy displaced squeezed state D(alpha)S(zeta)|0>.

    The displacement magnitude is set by the energy budget,
    |alpha|^2 = nbar - sinh^2(r), with alpha = |alpha| exp(-i phi_batt).
    Amplitude alignment squeezes along the displacement direction
    (theta_s = -2 phi_batt); phase alignment squeezes orthogonally.
    """
    sh2 = math.sinh(r) ** 2
    if nbar <= sh2:
        raise EnergyBudgetExceeded(
            f"nbar={nbar} <= sinh^2(r)={sh2:.6f}: no energy left for displacement"
        )
    phi_alpha = -phi_batt
    if alignment == ALIGN_AMPLITUDE:
        angle = 2.0 * phi_alpha
    elif alignment == ALIGN_PHASE:
        angle = 2.0 * phi_alpha + math.pi
    elif alignment == ALIGN_ANGLE:
        angle = theta_s
    else:
        raise ValueError(f"unknown alignment {alignment!r}")
    alpha = math.sqrt(nbar - sh2) * np.exp(1j * phi_alpha)

    base = build_squeezed_vacuum(r, angle, n_cut)
    c = displacement_matrix(alpha, n_cut) @ base
    c = c / np.linalg.norm(c)

    mean_n, _, a_mean = vector_stats(c)
    if abs(mean_n - nbar) > 1e-4 or abs(a_mean - alpha) > 1e-4:
        raise CutoffTooSmall(
            f"displaced squeezed state off target at n_cut={n_cut}: "
            f"<n>={mean_n:.6f} (want {nbar}), |<a>-alpha|={abs(a_mean - alpha):.2e}"
        )
    return c


def build_number_squeezed(nbar: float, q: float, phi: float, n_cut: int) -> np.ndarray:
    """Discrete-Gaussian phase state: sqrt(p_n) exp(-i n phi) with exact mean nbar.

    The Gaussian center is solved by bisection so that the truncated
    distribution has mean exactly nbar, compensating the n = 0 boundary and
    the cutoff.
    """
    if nbar <= 0:
        raise ValueError(f"nbar must be > 0, got {nbar}")
    if q <= 0:
        raise ValueError(f"q must be > 0, got {q}")
    sigma = max(0.2, q * math.sqrt(nbar))
    ns = np.arange(n_cut, dtype=float)

    def probs(mu: float) -> np.ndarray:
        log_w = -((ns - mu) ** 2) / (2.0 * sigma**2)
        w = np.exp(log_w - log_w.max())
        return w / w.sum()

    def mean_of(mu: float) -> float:
        return float(ns @ probs(mu))

    lo, hi = 0.0, float(n_cut)
    if not (mean_of(lo) <= nbar <= mean_of(hi)):
        raise MeanUnreachable(
            f"target mean {nbar} outside [{mean_of(lo):.4f}, {mean_of(hi):.4f}] "
            f"for n_cut={n_cut}, sigma={sigma:.4f}"
        )
    mu = 0.5 * (lo + hi)
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        m = mean_of(mu)
        if abs(m - nbar) < 1e-9:
            break
        if m < nbar:
            lo = mu
        else:
            hi = mu
    else:
        raise MeanUnreachable(f"bisection stalled at mean {mean_of(mu):.12f} != {nbar}")
    p = probs(mu)
    return np.sqrt(p) * np.exp(-1j * ns * phi)


def build_fock(n: int, n_cut: int) -> np.ndarray:
    """Fock state |n>."""
    if not 0 <= n < n_cut:
        raise IndexOutOfRange(f"Fock index {n} outside basis of size {n_cut}")
    c = np.zeros(n_cut, dtype=complex)
    c[n] = 1.0
    return c
