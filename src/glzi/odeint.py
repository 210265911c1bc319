"""Adaptive embedded Runge-Kutta integration of the vectorized master equation.

The stepper is the 13-stage Dormand-Prince 8(5,3) pair (Hairer's dop853
coefficients).  The error estimate combines the embedded 5th- and 3rd-order
solutions in the usual deno-weighted way, measured in the mixed norm

    scale_i = atol + rtol * max(|y_i|, |y_new_i|),

and the accepted-step controller is a PI controller (safety 0.9, exponent
1/8 per the embedded order, Lund stabilization beta = 0.04).  Rejected steps
are at least halved.  Everything is deterministic: identical inputs produce
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import MaxStepsExceeded, StepUnderflow, ZeroTrace

# Dormand-Prince 8(5,3) tableau --------------------------------------------

_C = np.array([
    0.0,
    0.526001519587677318785587544488e-1,
    0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])

_A = np.zeros((12, 12))
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, 0] = 1.97250569845378994544595329183e-2
_A[2, 1] = 5.91751709536136983633785987549e-2
_A[3, 0] = 2.95875854768068491816892993775e-2
_A[3, 2] = 8.87627564304205475450678981324e-2
_A[4, 0] = 2.41365134159266685502369798665e-1
_A[4, 2] = -8.84549479328286085344864962717e-1
_A[4, 3] = 9.24834003261792003115737966543e-1
_A[5, 0] = 3.7037037037037037037037037037e-2
_A[5, 3] = 1.70828608729473871279604482173e-1
_A[5, 4] = 1.25467687566822425016691814123e-1
_A[6, 0] = 3.7109375e-2
_A[6, 3] = 1.70252211019544039314978060272e-1
_A[6, 4] = 6.02165389804559606850219397283e-2
_A[6, 5] = -1.7578125e-2
_A[7, 0] = 3.70920001185047927108779319836e-2
_A[7, 3] = 1.70383925712239993810214054705e-1
_A[7, 4] = 1.07262030446373284651809199168e-1
_A[7, 5] = -1.53194377486244017527936158236e-2
_A[7, 6] = 8.27378916381402288758473766002e-3
_A[8, 0] = 6.24110958716075717114429577812e-1
_A[8, 3] = -3.36089262944694129406857109825
_A[8, 4] = -8.68219346841726006818189891453e-1
_A[8, 5] = 2.75920996994467083049415600797e1
_A[8, 6] = 2.01540675504778934086186788979e1
_A[8, 7] = -4.34898841810699588477366255144e1
_A[9, 0] = 4.77662536438264365890433908527e-1
_A[9, 3] = -2.48811461997166764192642586468
_A[9, 4] = -5.90290826836842996371446475743e-1
_A[9, 5] = 2.12300514481811942347288949897e1
_A[9, 6] = 1.52792336328824235832596922938e1
_A[9, 7] = -3.32882109689848629194453265587e1
_A[9, 8] = -2.03312017085086261358222928593e-2
_A[10, 0] = -9.3714243008598732571704021658e-1
_A[10, 3] = 5.18637242884406370830023853209
_A[10, 4] = 1.09143734899672957818500254654
_A[10, 5] = -8.14978701074692612513997267357
_A[10, 6] = -1.85200656599969598641566180701e1
_A[10, 7] = 2.27394870993505042818970056734e1
_A[10, 8] = 2.49360555267965238987089396762
_A[10, 9] = -3.0467644718982195003823669022
_A[11, 0] = 2.27331014751653820792359768449
_A[11, 3] = -1.05344954667372501984066689879e1
_A[11, 4] = -2.00087205822486249909675718444
_A[11, 5] = -1.79589318631187989172765950534e1
_A[11, 6] = 2.79488845294199600508499808837e1
_A[11, 7] = -2.85899827713502369474065508674
_A[11, 8] = -8.87285693353062954433549289258
_A[11, 9] = 1.23605671757943030647266201528e1
_A[11, 10] = 6.43392746015763530355970484046e-1

_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566,
    1.89151789931450038304281599044,
    -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
])

# embedded 3rd-order error weights (against the 13th stage f(t+h, y_new))
_E3 = np.zeros(13)
_E3[:12] = _B
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1

# embedded 5th-order error weights
_E5 = np.zeros(13)
_E5[0] = 0.1312004499419488073250102996e-1
_E5[5] = -0.1225156446376204440720569753e1
_E5[6] = -0.4957589496572501915214079952
_E5[7] = 0.1664377182454986536961530415e1
_E5[8] = -0.3503288487499736816886487290
_E5[9] = 0.3341791187130174790297318841
_E5[10] = 0.8192320648511571246570742613e-1
_E5[11] = -0.2235530786388629525884427845e-1

_SAFETY = 0.9
_PI_BETA = 0.04
_ERR_EXPONENT = 1.0 / 8.0
_ACCEPT_EXPONENT = _ERR_EXPONENT - 0.2 * _PI_BETA
_MAX_GROWTH = 6.0
_MAX_SHRINK = 3.0


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step bounds; times in ns."""

    rtol: float = 2e-7
    atol: float = 2e-9
    h_init: float = 0.1
    h_min: float = 1e-6
    h_max: float | None = None
    max_steps: int = 200_000

    def __post_init__(self):
        bad = [f.name for f in fields(self)
               if getattr(self, f.name) is not None and not math.isfinite(getattr(self, f.name))]
        if bad:
            raise ValueError(f"non-finite integrator settings: {', '.join(bad)}")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("rtol and atol must be positive")
        if self.h_min > self.h_init:
            raise ValueError(f"h_min={self.h_min} exceeds h_init={self.h_init}")
        if self.h_max is not None and self.h_init > self.h_max:
            raise ValueError(f"h_init={self.h_init} exceeds h_max={self.h_max}")


def _error_norm(k: np.ndarray, h: float, scale: np.ndarray) -> float:
    err5 = (_E5 @ k) / scale
    err3 = (_E3 @ k) / scale
    e5 = float(np.real(np.vdot(err5, err5)))
    e3 = float(np.real(np.vdot(err3, err3)))
    denom = e5 + 0.01 * e3
    if denom <= 0.0:
        return 0.0
    return abs(h) * e5 / np.sqrt(denom * scale.size)


def integrate_segment(
    y0: np.ndarray,
    t0: float,
    t1: float,
    rhs: Callable[[float, np.ndarray], np.ndarray],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> np.ndarray:
    """Propagate y' = rhs(t, y) from t0 to t1 and return y(t1).

    The final step is clipped to land exactly on t1.  Raises StepUnderflow
    if the controller pushes the step below cfg.h_min and MaxStepsExceeded
    past cfg.max_steps attempted steps.
    """
    if t1 < t0:
        raise ValueError(f"t1={t1} must be >= t0={t0}")
    y = np.array(y0, dtype=complex, copy=True)
    if t1 == t0:
        return y

    span = t1 - t0
    h_max = span if cfg.h_max is None else min(cfg.h_max, span)
    h = min(cfg.h_init, h_max)
    t = t0
    k = np.empty((13, y.size), dtype=complex)
    k[0] = rhs(t0, y)
    fac_old = 1e-4
    attempts = 0

    while t < t1:
        if h < cfg.h_min:
            raise StepUnderflow(f"step {h:.3e} ns below h_min={cfg.h_min} at t={t:.6f}")
        attempts += 1
        if attempts > cfg.max_steps:
            raise MaxStepsExceeded(f"exceeded {cfg.max_steps} steps at t={t:.6f}")

        last = (t1 - t) <= h
        step = (t1 - t) if last else h

        for i in range(1, 12):
            k[i] = rhs(t + _C[i] * step, y + step * (_A[i, :i] @ k[:i]))
        y_new = y + step * (_B @ k[:12])
        k[12] = rhs(t + step, y_new)

        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _error_norm(k, step, scale)

        if err <= 1.0:
            t = t1 if last else t + step
            y = y_new
            k[0] = k[12]
            fac11 = err**_ACCEPT_EXPONENT
            fac = fac11 / fac_old**_PI_BETA
            fac = max(1.0 / _MAX_GROWTH, min(_MAX_SHRINK, fac / _SAFETY))
            h = min(step / fac, h_max)
            fac_old = max(err, 1e-4)
        else:
            h = step * min(0.5, _SAFETY * err ** (-_ERR_EXPONENT))
    return y


def sanitize(rho: np.ndarray) -> np.ndarray:
    """Symmetrize and renormalize a density matrix after a protocol segment."""
    herm = 0.5 * (rho + rho.conj().T)
    tr = float(np.real(np.trace(herm)))
    if abs(tr) < 1e-6:
        raise ZeroTrace(f"trace {tr:.3e} too small to renormalize")
    return herm / tr
