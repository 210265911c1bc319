import math

import numpy as np
import pytest

from glzi.errors import DimensionMismatch, InvalidNoise
from glzi.hilbert import HilbertSpec, build_operators, expectation
from glzi.liouvillian import (
    NoiseParams,
    assemble,
    assemble_lindblad,
    devectorize,
    dissipator_super,
    hamiltonian_super,
    mhz_to_rad_per_ns,
    vectorize,
)
from glzi.odeint import IntegratorConfig, integrate_segment
from glzi.states import BatterySpec, build_state

SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_Z = np.diag([-1.0, 1.0]).astype(complex)


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_unit_conversion():
    assert mhz_to_rad_per_ns(20.0) == pytest.approx(2 * math.pi * 0.020, rel=1e-15)


def test_noise_params_from_times():
    n = NoiseParams.from_times(118.0, 157.0)
    assert n.gamma1 == pytest.approx(1.0 / 118.0)
    assert n.gamma_phi == pytest.approx(1.0 / 157.0 - 0.5 / 118.0)
    with pytest.raises(InvalidNoise):
        NoiseParams.from_times(100.0, 300.0)  # T2 > 2 T1
    with pytest.raises(InvalidNoise):
        NoiseParams(gamma1=-0.1)
    for bad in ({"gamma1": math.nan}, {"kappa": math.inf}, {"nbar_th": math.nan}):
        with pytest.raises(InvalidNoise):
            NoiseParams(**bad)


def test_vectorize_column_stacking():
    rho = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.array_equal(vectorize(rho), np.array([1, 3, 2, 4], dtype=complex))
    assert np.array_equal(devectorize(vectorize(rho)), rho)
    with pytest.raises(DimensionMismatch):
        devectorize(np.zeros(5, dtype=complex))
    with pytest.raises(DimensionMismatch):
        vectorize(np.zeros((2, 3), dtype=complex))


def test_vectorize_kron_identity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = vectorize(a @ rho @ b)
        rhs = np.kron(b.T, a) @ vectorize(rho)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_dissipator_excited_state_decay_rate():
    d = dissipator_super(SIGMA_MINUS)
    rho = np.diag([0.0, 1.0]).astype(complex)
    drho = devectorize(d @ vectorize(rho))
    assert drho[1, 1].real == pytest.approx(-1.0, abs=1e-14)
    assert drho[0, 0].real == pytest.approx(1.0, abs=1e-14)


def test_dissipator_dephasing_rate():
    d = dissipator_super(SIGMA_Z)
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    drho = devectorize(d @ vectorize(plus))
    # coherence decays at rate 2 in D[sigma_z] units
    assert drho[0, 1] == pytest.approx(-2.0 * plus[0, 1], abs=1e-14)
    assert drho[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_dissipator_amplitude_damping_photon_loss():
    c = build_state(BatterySpec.coherent(3.0))
    n_cut = c.size
    a = np.diag(np.sqrt(np.arange(1, n_cut, dtype=float)), k=1).astype(complex)
    rho = np.outer(c, c.conj())
    drho = devectorize(dissipator_super(a) @ vectorize(rho))
    n_op = np.diag(np.arange(n_cut, dtype=float)).astype(complex)
    dn_dt = np.einsum("ij,ji->", drho, n_op).real
    assert dn_dt == pytest.approx(-3.0, abs=1e-6)


def test_assemble_zero_coupling_zero_rates():
    ops = build_operators(HilbertSpec(4))
    lv = assemble(ops, 0.0, NoiseParams())
    assert abs(lv.l0).max() == 0.0
    # detuning-only evolution leaves populations alone
    rho = random_density(np.random.default_rng(0), 8)
    drho = devectorize(lv.l_delta @ vectorize(rho))
    assert np.max(np.abs(np.diag(drho))) < 1e-14


def test_assemble_relaxation_only_exponential_decay():
    gamma1 = 1.0 / 118.0
    lv = assemble_lindblad(np.zeros((2, 2), dtype=complex),
                           np.zeros((2, 2), dtype=complex),
                           [(gamma1, SIGMA_MINUS)])
    rho = np.diag([0.0, 1.0]).astype(complex)
    y = integrate_segment(vectorize(rho), 0.0, 118.0,
                          lambda t, v: lv.l0 @ v, IntegratorConfig())
    p_e = devectorize(y)[1, 1].real
    assert p_e == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_assemble_battery_loss_percent_level():
    ops = build_operators(HilbertSpec(26))
    lv = assemble(ops, 0.0, NoiseParams(kappa=1e-4))
    c = build_state(BatterySpec.coherent(5.0), 26)
    rho = np.outer(np.kron(c, [1, 0]), np.kron(c, [1, 0]).conj())
    y = integrate_segment(vectorize(rho), 0.0, 100.0,
                          lambda t, v: lv.l0 @ v, IntegratorConfig())
    n_final = expectation(devectorize(y), ops.n_op).real
    n_initial = expectation(rho, ops.n_op).real
    assert n_final / n_initial == pytest.approx(math.exp(-0.01), abs=1e-9)


def test_generator_preserves_trace_and_hermiticity():
    ops = build_operators(HilbertSpec(5))
    lv = assemble(ops, 0.09, NoiseParams(gamma1=0.008, gamma_phi=0.002, kappa=1e-4))
    rng = np.random.default_rng(42)
    for gen in (lv.l0, lv.l_delta):
        rho = random_density(rng, 10)
        drho = devectorize(gen @ vectorize(rho))
        assert abs(np.trace(drho)) < 1e-12
        assert np.linalg.norm(drho - drho.conj().T, "fro") < 1e-12


def test_hamiltonian_super_matches_commutator():
    rng = np.random.default_rng(9)
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = h + h.conj().T
    rho = random_density(rng, 6)
    via_super = devectorize(hamiltonian_super(h) @ vectorize(rho))
    direct = -1j * (h @ rho - rho @ h)
    assert np.max(np.abs(via_super - direct)) < 1e-12


def test_dissipator_free_generator_conserves_total_excitation():
    ops = build_operators(HilbertSpec(5))
    lv = assemble(ops, 0.11, NoiseParams())
    rng = np.random.default_rng(13)
    rho = random_density(rng, 10)
    for delta in (-0.5, 0.0, 0.9):
        drho = devectorize(lv.l0 @ vectorize(rho) + delta * (lv.l_delta @ vectorize(rho)))
        d_ntot = np.einsum("ij,ji->", drho, ops.n_tot)
        assert abs(d_ntot) < 1e-10


def test_assemble_rejects_negative_rate():
    with pytest.raises(InvalidNoise):
        assemble_lindblad(np.zeros((2, 2), complex), np.zeros((2, 2), complex),
                          [(-0.1, SIGMA_MINUS)])


def test_assemble_requires_a_diagonal_detuning_term():
    # every right-hand side scales the diagonal of L_delta, not a sparse product
    lv = assemble(build_operators(HilbertSpec(4)), 0.1, NoiseParams(gamma1=0.01))
    off = lv.l_delta.tocoo()
    assert not np.any(off.data[off.row != off.col])
    with pytest.raises(ValueError, match="diagonal"):
        assemble_lindblad(np.zeros((2, 2), complex), SIGMA_MINUS + SIGMA_MINUS.T, [])
