import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glzi.errors import (
    CutoffTooSmall,
    EnergyBudgetExceeded,
    IndexOutOfRange,
    MeanUnreachable,
)
from glzi.states import (
    BatterySpec,
    build_coherent,
    build_displaced_squeezed,
    build_fock,
    build_number_squeezed,
    build_squeezed_vacuum,
    build_state,
    compute_cutoff,
    vector_stats,
)

PAPER_NBAR_LIST = [0.5, 0.8, 1.0, 1.5, 2.0, 3.0, 5.0, 7.5, 10.0, 15.0]


def test_cutoff_formulas():
    assert compute_cutoff(BatterySpec.coherent(5.0)) == 26
    assert compute_cutoff(BatterySpec.coherent(0.5)) == 15
    assert compute_cutoff(BatterySpec.number_squeezed(5.0, 0.5)) == 24
    assert compute_cutoff(BatterySpec.fock(7)) == 10
    # squeezing inflates the coherent estimate and lifts the floor to 12
    assert compute_cutoff(BatterySpec.displaced_squeezed(5.0, 0.35)) >= 26
    assert compute_cutoff(BatterySpec.squeezed_vacuum(0.1)) >= 12


def test_coherent_vacuum_limit():
    c = build_coherent(0.0, 0.0, 8)
    assert c[0] == pytest.approx(1.0)
    assert np.allclose(c[1:], 0.0)


def test_coherent_statistics():
    c = build_state(BatterySpec.coherent(5.0, 0.0))
    mean_n, var_n, a_mean = vector_stats(c)
    assert var_n == pytest.approx(5.0, abs=1e-6)
    assert a_mean.real == pytest.approx(math.sqrt(5.0), abs=1e-6)
    assert abs(a_mean.imag) < 1e-12


@pytest.mark.parametrize("nbar", PAPER_NBAR_LIST)
def test_coherent_variance_over_mean_at_computed_cutoff(nbar):
    c = build_state(BatterySpec.coherent(nbar, 0.3))
    mean_n, var_n, _ = vector_stats(c)
    assert var_n / mean_n == pytest.approx(1.0, abs=1e-4)


def test_coherent_cutoff_too_small():
    with pytest.raises(CutoffTooSmall):
        build_coherent(10.0, 0.0, 12)


@given(nbar=st.floats(0.0, 20.0), phi=st.floats(-10.0, 10.0))
@settings(max_examples=40, deadline=None)
def test_coherent_unit_norm(nbar, phi):
    c = build_coherent(nbar, phi, compute_cutoff(BatterySpec.coherent(nbar)))
    assert abs(np.linalg.norm(c) - 1.0) < 1e-12


def test_displaced_squeezed_reduces_to_coherent_at_r0():
    phi = 1.2
    n_cut = compute_cutoff(BatterySpec.displaced_squeezed(5.0, 0.0, phi))
    ds = build_displaced_squeezed(5.0, 0.0, phi, n_cut)
    coh = build_coherent(5.0, phi, n_cut)
    fidelity = abs(np.vdot(coh, ds)) ** 2
    assert fidelity >= 1.0 - 1e-10


def test_displaced_squeezed_amplitude_variance_and_eta():
    nbar, r = 5.0, 0.35
    spec = BatterySpec.displaced_squeezed(nbar, r, 0.7)
    c = build_state(spec)
    mean_n, var_n, a_mean = vector_stats(c)
    sh2 = math.sinh(r) ** 2
    expected_var = (nbar - sh2) * math.exp(-2 * r) + 2 * sh2 * (sh2 + 1)
    assert expected_var == pytest.approx(2.7073, abs=2e-4)
    assert var_n == pytest.approx(expected_var, abs=1e-4)
    assert mean_n == pytest.approx(nbar, abs=1e-4)
    eta = abs(a_mean) ** 2 / mean_n
    assert eta == pytest.approx(1.0 - sh2 / nbar, abs=1e-6)
    assert 1.0 - sh2 / nbar == pytest.approx(0.97448, abs=1e-5)


def test_displaced_squeezed_energy_budget():
    with pytest.raises(EnergyBudgetExceeded):
        build_displaced_squeezed(0.1, 1.0, 0.0, 30)


@pytest.mark.parametrize("r", [0.05, 0.15, 0.35, 0.5])
def test_phase_alignment_widens_number_distribution(r):
    nbar = 5.0
    n_cut = compute_cutoff(BatterySpec.displaced_squeezed(nbar, r))
    _, var_amp, _ = vector_stats(
        build_displaced_squeezed(nbar, r, 0.4, n_cut, alignment="amplitude"))
    _, var_phase, _ = vector_stats(
        build_displaced_squeezed(nbar, r, 0.4, n_cut, alignment="phase"))
    assert var_phase > var_amp


@pytest.mark.parametrize("r", [0.02, 0.05, 0.1])
def test_small_r_variance_expansion(r):
    nbar = 5.0
    spec = BatterySpec.displaced_squeezed(nbar, r, 0.0)
    _, var_n, _ = vector_stats(build_state(spec))
    series = nbar - 2 * nbar * r + (2 * nbar + 1) * r**2
    assert abs(var_n - series) / var_n < 5 * r**3 / var_n + 1e-4 / var_n


def test_number_squeezed_mean_is_exact():
    for nbar, q in [(1.0, 0.75), (5.0, 0.5), (10.0, 0.75)]:
        c = build_state(BatterySpec.number_squeezed(nbar, q, 0.2))
        mean_n, _, _ = vector_stats(c)
        assert mean_n == pytest.approx(nbar, abs=1e-9)


def test_number_squeezed_variance_near_q2_nbar():
    # wide regime, far from the n = 0 boundary
    nbar, q = 50.0, 1.0
    c = build_state(BatterySpec.number_squeezed(nbar, q, 0.0))
    _, var_n, _ = vector_stats(c)
    assert var_n == pytest.approx(q**2 * nbar, rel=0.1)


def test_number_squeezed_eta_from_overlap_sum():
    from glzi.oracle import adjacent_overlap_amean

    c = build_state(BatterySpec.number_squeezed(5.0, 0.5, 0.9))
    mean_n, _, a_mean = vector_stats(c)
    overlap = adjacent_overlap_amean(np.abs(c) ** 2)
    assert abs(a_mean) ** 2 / mean_n == pytest.approx(overlap**2 / mean_n, abs=1e-10)


def test_number_squeezed_phase_reference_shrinks_with_q():
    amps = []
    for q in (1.0, 0.75, 0.5):
        c = build_state(BatterySpec.number_squeezed(5.0, q, 0.0))
        _, _, a_mean = vector_stats(c)
        amps.append(abs(a_mean))
    assert amps[0] > amps[1] > amps[2]


def test_number_squeezed_mean_unreachable():
    with pytest.raises(MeanUnreachable):
        build_number_squeezed(4.9, 0.02, 0.0, 5)


def test_fock_states():
    c = build_fock(0, 4)
    assert c[0] == 1.0
    c3 = build_fock(3, 8)
    mean_n, var_n, a_mean = vector_stats(c3)
    assert (mean_n, var_n, a_mean) == (3.0, 0.0, 0.0)
    with pytest.raises(IndexOutOfRange):
        build_fock(5, 5)


def test_squeezed_vacuum_statistics():
    c = build_state(BatterySpec.squeezed_vacuum(0.5))
    mean_n, _, a_mean = vector_stats(c)
    assert mean_n == pytest.approx(math.sinh(0.5) ** 2, abs=1e-6)
    assert mean_n == pytest.approx(0.27154, abs=1e-5)
    assert a_mean == 0.0
    assert np.allclose(c[1::2], 0.0)
    # r = 0 is the vacuum
    v = build_squeezed_vacuum(0.0, 0.0, 8)
    assert v[0] == pytest.approx(1.0)


def test_squeezed_vacuum_weights_match_direct_expansion():
    r, theta_s = 0.5, 0.8
    c = build_state(BatterySpec.squeezed_vacuum(r, theta_s))
    # renormalization after truncation cancels in weight ratios
    for m in range(1, 6):
        direct = (math.factorial(2 * m) / (2 ** (2 * m) * math.factorial(m) ** 2)
                  * math.tanh(r) ** (2 * m))
        ratio = abs(c[2 * m]) ** 2 / abs(c[0]) ** 2
        assert ratio == pytest.approx(direct, rel=1e-10)


def test_with_phase_and_labels():
    spec = BatterySpec.coherent(5.0).with_phase(0.4)
    assert spec.phi == 0.4
    assert BatterySpec.fock(3).with_phase(0.4).phi == 0.0
    assert BatterySpec.coherent(7.5).label() == "coherent_nbar7p5"
    assert "q0p5" in BatterySpec.number_squeezed(5.0, 0.5).label()


# the default cutoff rule is designed for the benchmark range r <= 0.5;
# stronger squeezing needs an explicit (larger) cutoff
@given(r=st.floats(0.0, 0.6), theta=st.floats(-3.2, 3.2))
@settings(max_examples=30, deadline=None)
def test_squeezed_vacuum_unit_norm_even_support(r, theta):
    c = build_state(BatterySpec.squeezed_vacuum(r, theta))
    assert abs(np.linalg.norm(c) - 1.0) < 1e-12
    assert np.allclose(c[1::2], 0.0)


def test_squeezed_vacuum_strong_r_needs_explicit_cutoff():
    with pytest.raises(CutoffTooSmall):
        build_squeezed_vacuum(1.2, 0.0, 20)
    c = build_squeezed_vacuum(1.2, 0.0, 120)
    mean_n, _, _ = vector_stats(c)
    assert mean_n == pytest.approx(math.sinh(1.2) ** 2, abs=1e-6)


@pytest.mark.parametrize("spec", [
    BatterySpec.coherent(2.0),
    BatterySpec.displaced_squeezed(5.0, 0.35),
    BatterySpec.displaced_squeezed(5.0, 0.35, alignment="phase"),
    BatterySpec.number_squeezed(5.0, 0.5),
    BatterySpec.fock(3),
], ids=lambda b: b.label())
def test_battery_phase_rotates_the_state(spec):
    # sweep's closed form in theta_geo rests on rho(phi) = e^{-i phi n} rho(0) e^{i phi n};
    # density matrices, since a state is defined up to a global phase
    n = np.arange(compute_cutoff(spec))
    c0 = build_state(spec.with_phase(0.0))
    rho0 = np.outer(c0, c0.conj())
    for phi in (0.3, 1.9, -2.4):
        c = build_state(spec.with_phase(phi))
        rotated = rho0 * np.exp(-1j * phi * np.subtract.outer(n, n))
        assert np.max(np.abs(np.outer(c, c.conj()) - rotated)) < 1e-12
