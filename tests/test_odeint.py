import math

import numpy as np
import pytest

from glzi.errors import MaxStepsExceeded, StepUnderflow, ZeroTrace
from glzi.odeint import IntegratorConfig, integrate_segment, sanitize


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h_min=1.0, h_init=0.1)
    with pytest.raises(ValueError):
        IntegratorConfig(h_init=2.0, h_max=1.0)
    for bad in ({"rtol": math.nan}, {"atol": math.inf}, {"h_max": math.nan}):
        with pytest.raises(ValueError):
            IntegratorConfig(**bad)


def test_exponential_oracle():
    y = integrate_segment(np.array([2.0 + 0j]), 0.0, 10.0,
                          lambda t, v: -0.1 * v, IntegratorConfig())
    assert abs(y[0] - 2.0 * math.exp(-1.0)) / (2.0 * math.exp(-1.0)) < 1e-9


def test_harmonic_oracle_global_error():
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-12)
    y = integrate_segment(np.array([1.0 + 0j]), 0.0, 100.0,
                          lambda t, v: 1j * v, cfg)
    assert abs(y[0] - np.exp(100j)) < 1e-7


def test_zero_rhs_identity():
    y0 = np.array([0.3 + 0.4j, -1.2 + 0j, 7.0 + 0j])
    y = integrate_segment(y0, 0.0, 50.0, lambda t, v: 0.0 * v, IntegratorConfig())
    assert np.array_equal(y, y0)


def test_degenerate_interval_returns_copy():
    y0 = np.array([1.0 + 1j])
    y = integrate_segment(y0, 5.0, 5.0, lambda t, v: v, IntegratorConfig())
    assert np.array_equal(y, y0)
    assert y is not y0
    with pytest.raises(ValueError):
        integrate_segment(y0, 5.0, 4.0, lambda t, v: v, IntegratorConfig())


def test_determinism_bit_identical():
    rhs = lambda t, v: (-0.02 + 0.9j) * v + 0.001 * t
    a = integrate_segment(np.array([1.0 + 0j]), 0.0, 40.0, rhs, IntegratorConfig())
    b = integrate_segment(np.array([1.0 + 0j]), 0.0, 40.0, rhs, IntegratorConfig())
    assert np.array_equal(a, b)


def test_fixed_step_order_eight():
    # loose tolerances with h pinned: halving h must shrink the error ~2^8
    def err(h):
        cfg = IntegratorConfig(rtol=10.0, atol=10.0, h_init=h, h_max=h)
        y = integrate_segment(np.array([1.0 + 0j]), 0.0, 10.0,
                              lambda t, v: 1j * v, cfg)
        return abs(y[0] - np.exp(10j))

    ratio = err(0.5) / err(0.25)
    assert 180.0 < ratio < 360.0


def test_error_tracks_tolerance():
    # tolerance controls the achieved error: monotone per decade, >= 10x
    # improvement over two decades on the oscillator oracle
    def err(rtol):
        cfg = IntegratorConfig(rtol=rtol, atol=1e-14)
        y = integrate_segment(np.array([1.0 + 0j]), 0.0, 100.0,
                              lambda t, v: 1j * v, cfg)
        return abs(y[0] - np.exp(100j))

    errs = [err(r) for r in (1e-4, 1e-5, 1e-6)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[2] >= 10.0


def test_step_underflow():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, h_init=1e-3, h_min=1e-3)
    with pytest.raises(StepUnderflow):
        integrate_segment(np.array([1.0 + 0j]), 0.0, 1.0,
                          lambda t, v: 1e9 * v, cfg)


def test_max_steps_exceeded():
    cfg = IntegratorConfig(max_steps=3)
    with pytest.raises(MaxStepsExceeded):
        integrate_segment(np.array([1.0 + 0j]), 0.0, 200.0,
                          lambda t, v: 1j * v, cfg)


def test_lands_exactly_on_t1():
    calls = []

    def rhs(t, v):
        calls.append(t)
        return -0.3 * v

    integrate_segment(np.array([1.0 + 0j]), 0.0, 7.3, rhs, IntegratorConfig())
    assert max(calls) <= 7.3 + 1e-12


def test_sanitize():
    rho = np.array([[0.6, 0.1 + 0.05j], [0.1 - 0.05j, 0.4]], dtype=complex)
    out = sanitize(rho)
    assert np.max(np.abs(out - rho)) < 1e-16

    bumped = rho * (1 + 3e-8)
    assert np.trace(sanitize(bumped)).real == pytest.approx(1.0, abs=1e-16)

    skewed = rho + 1e-8 * np.array([[0, 1], [-1, 0]], dtype=complex)
    out = sanitize(skewed)
    assert np.linalg.norm(out - out.conj().T, "fro") == 0.0

    with pytest.raises(ZeroTrace):
        sanitize(np.zeros((2, 2), dtype=complex))
