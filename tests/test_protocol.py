import math

import numpy as np
import pytest

from glzi.errors import OutOfWindow
from glzi.liouvillian import NoiseParams
from glzi.protocol import (
    ProtocolParams,
    detuning,
    echo_unitary,
    run_classical,
    run_quantum,
    simulate_constant_detuning,
)
from glzi.states import BatterySpec

from conftest import classical_fringe, fringe_results


def test_protocol_params_calibration():
    p = ProtocolParams(nbar=5.0)
    assert p.g * 2.0 * math.sqrt(5.0) == pytest.approx(p.omega, abs=1e-12)
    assert p.phi_batt == pytest.approx(p.theta_geo - math.pi / 2.0)
    with pytest.raises(ValueError):
        ProtocolParams(tau_p=60.0, tau_c=100.0)
    with pytest.raises(ValueError):
        ProtocolParams(nbar=0.0)
    for bad in ({"tau_p": math.nan}, {"omega": math.inf}, {"theta_geo": -math.inf}):
        with pytest.raises(ValueError):
            ProtocolParams(**bad)


def test_detuning_waveform():
    p = ProtocolParams()
    assert detuning(0.0, p) == pytest.approx(-p.delta0)
    assert detuning(p.tau_p / 2.0, p) == pytest.approx(0.0, abs=1e-12)
    assert detuning(p.tau_p, p) == pytest.approx(p.delta0)
    assert detuning(50.0, p) == pytest.approx(p.delta0)
    assert detuning(p.tau_c - p.tau_p, p) == pytest.approx(p.delta0)
    assert detuning(p.tau_c, p) == pytest.approx(-p.delta0)
    with pytest.raises(OutOfWindow):
        detuning(-1.0, p)
    with pytest.raises(OutOfWindow):
        detuning(p.tau_c + 1.0, p)


def test_echo_unitary():
    u = echo_unitary(0.0)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
    g = np.array([1.0, 0.0], dtype=complex)
    e = np.array([0.0, 1.0], dtype=complex)
    assert np.allclose(u @ g, -1j * e)
    assert np.allclose(u @ e, -1j * g)
    # a pi rotation squared is -identity
    assert np.allclose(u @ u, -np.eye(2), atol=1e-14)

    phi = 0.7
    uj = np.kron(np.eye(3, dtype=complex), echo_unitary(phi))
    n2g = np.zeros(6, dtype=complex)
    n2g[4] = 1.0  # |2, g>
    out = uj @ n2g
    expected = np.zeros(6, dtype=complex)
    expected[5] = -1j * np.exp(-1j * phi)  # phase * |2, e>
    assert np.allclose(out, expected, atol=1e-14)


def test_echo_conjugation_preserves_spectrum():
    rng = np.random.default_rng(23)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    u = np.kron(np.eye(4, dtype=complex), echo_unitary(1.3))
    rotated = u @ rho @ u.conj().T
    before = np.linalg.eigvalsh(rho)
    after = np.linalg.eigvalsh(rotated)
    assert np.max(np.abs(before - after)) < 1e-12
    assert np.trace(rotated).real == pytest.approx(1.0, abs=1e-12)


def test_decoupled_protocol_is_a_single_pi_pulse():
    p = ProtocolParams(omega=0.0, theta_geo=0.4)
    res = run_quantum(p, BatterySpec.coherent(5.0, p.phi_batt))
    assert res.p_e == pytest.approx(1.0, abs=1e-9)
    res_cl = run_classical(ProtocolParams(omega=0.0, theta_geo=0.4))
    assert res_cl.p_e == pytest.approx(1.0, abs=1e-9)
    assert math.isnan(res_cl.mean_n_initial)


def test_fock_battery_rabi_oscillation():
    n = 2
    p = ProtocolParams(nbar=float(n))
    times = np.linspace(0.0, 40.0, 11)
    trace = simulate_constant_detuning(BatterySpec.fock(n), p.g, 0.0, times)
    for t, pe in zip(trace.times, trace.p_e):
        assert abs(pe - math.sin(p.g * math.sqrt(n) * t) ** 2) < 1e-7


def test_echo_bookkeeping_of_total_excitation():
    p = ProtocolParams(theta_geo=0.9, nbar=2.0)
    res = run_quantum(p, BatterySpec.coherent(2.0, p.phi_batt),
                      record_segments=True)
    log = {s.label: s for s in res.segments}
    jump = log["echo"].n_tot - log["plateau_first"].n_tot
    assert jump == pytest.approx(1.0 - 2.0 * log["plateau_first"].p_e, abs=1e-10)
    # between echoes the exchange dynamics conserves the total excitation
    assert log["plateau_first"].n_tot == pytest.approx(log["initial"].n_tot, abs=1e-9)
    assert log["sweep_out"].n_tot == pytest.approx(log["echo"].n_tot, abs=1e-9)
    # raw integration keeps the trace to well under the sanitize budget
    assert res.trace_defect < 1e-9


def test_battery_phase_covariance_with_echo_axis():
    noise = NoiseParams.from_times(118.0, 157.0, kappa=1e-4)
    shift = 0.83
    base = ProtocolParams(theta_geo=0.5, nbar=2.0)
    ref = run_quantum(base, BatterySpec.coherent(2.0, base.phi_batt), noise)
    shifted = ProtocolParams(theta_geo=0.5 + shift, nbar=2.0, phi_echo=shift)
    moved = run_quantum(shifted, BatterySpec.coherent(2.0, shifted.phi_batt), noise)
    assert abs(ref.p_e - moved.p_e) < 1e-9


def test_quantum_fringe_visibility_and_period(reference_noise):
    thetas = np.linspace(0.0, 2.0 * np.pi, 9)
    results = fringe_results(5.0, thetas, reference_noise)
    p_es = [r.p_e for r in results]
    assert max(p_es) - min(p_es) > 0.1
    # the battery phase is 2*pi periodic by construction
    assert p_es[0] == pytest.approx(p_es[-1], abs=1e-9)
    for r in results:
        assert -1e-7 <= r.p_e <= 1.0 + 1e-7


def test_classical_noiseless_fringe_shape():
    thetas = np.linspace(0.0, 2.0 * np.pi, 21)
    p_es = np.array([run_classical(ProtocolParams(theta_geo=t)).p_e for t in thetas])
    s2 = np.sin(thetas) ** 2
    amp = float(np.sum(s2 * (1.0 - p_es)) / np.sum(s2 * s2))
    resid = p_es - (1.0 - amp * s2)
    assert math.sqrt(float(np.mean(resid**2))) < 0.05
    assert amp > 0.5


def test_classical_contrast_regression_anchor(reference_noise):
    thetas = np.linspace(0.0, 2.0 * np.pi, 21)
    p_es = [r.p_e for r in classical_fringe(thetas, reference_noise)]
    c_cl = max(p_es) - min(p_es)
    # frozen full-simulation value for the reference noise set
    assert c_cl == pytest.approx(0.561415568753, abs=1e-6)


def test_quantum_approaches_classical_pointwise(reference_noise):
    theta = 0.7
    p_cl = run_classical(ProtocolParams(theta_geo=theta), reference_noise).p_e
    diffs = []
    for nbar in (2.0, 5.0, 10.0, 15.0):
        p = ProtocolParams(theta_geo=theta, nbar=nbar)
        r = run_quantum(p, BatterySpec.coherent(nbar, p.phi_batt), reference_noise)
        diffs.append(abs(r.p_e - p_cl))
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


def test_simulate_constant_detuning_validates_input():
    with pytest.raises(ValueError):
        simulate_constant_detuning(BatterySpec.fock(1), 0.1, 0.0, [3.0, 1.0])
    with pytest.raises(ValueError):
        simulate_constant_detuning(np.array([0.5, 0.5]), 0.1, 0.0, [1.0])


def test_run_quantum_without_echo_keeps_populations_conserved():
    p = ProtocolParams(theta_geo=0.2, nbar=2.0)
    res = run_quantum(p, BatterySpec.coherent(2.0, p.phi_batt),
                      apply_echo=False, record_segments=True)
    n_tots = [s.n_tot for s in res.segments]
    assert max(n_tots) - min(n_tots) < 1e-9
