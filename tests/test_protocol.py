import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import glzi.protocol
from glzi.errors import DimensionMismatch, OutOfWindow
from glzi.hilbert import HilbertSpec, build_operators, check_density, sector_min_eig
from glzi.liouvillian import NoiseParams, assemble, coherence_orders, restrict
from glzi.odeint import IntegratorConfig
from glzi.protocol import (
    ProtocolParams,
    detuning,
    classical_heisenberg,
    echo_unitary,
    heisenberg_observables,
    run_classical,
    run_quantum,
    simulate_constant_detuning,
)
from glzi.states import BatterySpec, build_state, compute_cutoff

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


def _full_space(monkeypatch):
    """Make run_quantum integrate every coherence order and report the full
    state's smallest eigenvalue."""
    monkeypatch.setattr(glzi.protocol, "_order_band",
                        lambda n_cut, g, noise, max_order:
                        glzi.protocol._assembled(n_cut, g, noise)[1])
    monkeypatch.setattr(glzi.protocol, "sector_min_eig",
                        lambda rho: check_density(rho).min_eig)


@pytest.mark.parametrize("battery", [
    BatterySpec.coherent(2.0),
    BatterySpec.displaced_squeezed(2.0, 0.35),
    BatterySpec.displaced_squeezed(2.0, 0.35, alignment="angle", theta_s=0.3),
    BatterySpec.number_squeezed(2.0, 0.5),
    BatterySpec.fock(2),
], ids=lambda b: b.label())
def test_restricted_orders_match_full_space(battery, monkeypatch):
    noise = NoiseParams.from_times(118.0, 157.0, kappa=1e-4, nbar_th=0.1)
    p = ProtocolParams(theta_geo=0.7, nbar=2.0, phi_echo=0.4)
    battery = battery.with_phase(p.phi_batt)
    for echo in (True, False):
        kept = run_quantum(p, battery, noise, apply_echo=echo, record_segments=True)
        with monkeypatch.context() as m:
            _full_space(m)
            full = run_quantum(p, battery, noise, apply_echo=echo, record_segments=True)
        for name in ("p_e", "mean_n_final", "var_n_final", "a_mean_final", "trace_defect"):
            assert abs(getattr(kept, name) - getattr(full, name)) <= 1e-6, (name, echo)
        assert [s.label for s in kept.segments] == [s.label for s in full.segments]
        for a, b in zip(kept.segments, full.segments):
            assert abs(a.n_tot - b.n_tot) <= 1e-6 and abs(a.p_e - b.p_e) <= 1e-6, a.label
        assert full.min_eig >= -1e-7
        assert kept.min_eig >= full.min_eig - 1e-12


def test_restrict_refuses_an_open_index_set():
    ops = build_operators(HilbertSpec(4))
    lv = assemble(ops, 0.1, NoiseParams(gamma1=0.01, kappa=1e-3, nbar_th=0.2))
    orders = coherence_orders(ops.n_tot)
    band = restrict(lv, np.flatnonzero(np.abs(orders) <= 1))
    assert band.l0.shape == (band.kept.size, band.kept.size)
    with pytest.raises(DimensionMismatch):  # decay feeds the dropped |0,g> population
        restrict(lv, np.flatnonzero(orders == 0)[1:])


def test_sector_min_eig_is_the_pinched_spectrum():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    n = (np.arange(10) + 1) // 2
    pinched = np.where(n[:, None] == n[None, :], rho, 0.0)
    assert sector_min_eig(rho) == pytest.approx(np.linalg.eigvalsh(pinched)[0], abs=1e-14)
    assert sector_min_eig(rho) >= np.linalg.eigvalsh(rho)[0]


def test_noiseless_cycle_matches_independent_pure_state_evolution():
    # |psi_B> (x) |g> under H = g(a s+ + a^dag s-) + delta(t) sz/2 with scipy's
    # DOP853, the pi pulse applied to the amplitudes at tau_c/2
    for battery in (BatterySpec.coherent(2.0), BatterySpec.number_squeezed(3.0, 0.5)):
        p = ProtocolParams(theta_geo=0.7, nbar=battery.nbar, phi_echo=0.4)
        battery = battery.with_phase(p.phi_batt)
        n_cut = compute_cutoff(battery)
        a = np.diag(np.sqrt(np.arange(1.0, n_cut)), k=1)
        s_plus = np.array([[0.0, 0.0], [1.0, 0.0]])  # |e><g|
        h_jc = p.g * (np.kron(a, s_plus) + np.kron(a.T, s_plus.T))
        h_z = np.kron(np.eye(n_cut), np.diag([-0.5, 0.5]))
        flip = -1j * (np.exp(-1j * p.phi_echo) * s_plus + np.exp(1j * p.phi_echo) * s_plus.T)
        d0, tp, tc = p.delta0, p.tau_p, p.tau_c

        def delta(t):
            if t <= tp:
                return -d0 + 2.0 * d0 * t / tp
            return d0 if t < tc - tp else d0 - 2.0 * d0 * (t - tc + tp) / tp

        psi = np.kron(build_state(battery, n_cut), [1.0, 0.0]).astype(complex)
        knots = (0.0, tp, tc / 2.0, tc - tp, tc)
        for t_a, t_b in zip(knots, knots[1:]):
            sol = solve_ivp(lambda t, y: -1j * ((h_jc + delta(t) * h_z) @ y), (t_a, t_b),
                            psi, method="DOP853", rtol=1e-12, atol=1e-13)
            psi = sol.y[:, -1]
            if t_b == tc / 2.0:
                psi = np.kron(np.eye(n_cut), flip) @ psi
        pops = np.abs(psi) ** 2
        res = run_quantum(p, battery, cfg=IntegratorConfig(rtol=1e-10, atol=1e-12))
        assert abs(res.p_e - pops[1::2].sum()) < 1e-7
        assert abs(res.mean_n_final - np.repeat(np.arange(n_cut), 2) @ pops) < 1e-7


@pytest.mark.parametrize("battery", [
    BatterySpec.coherent(15.0),
    BatterySpec.displaced_squeezed(10.0, 0.5),
    BatterySpec.number_squeezed(10.0, 0.5),
], ids=lambda b: b.label())
def test_cutoff_and_tolerance_convergence(battery, reference_noise, monkeypatch):
    # the largest batteries the scans use: a wider Fock cutoff and a tighter
    # integrator tolerance must not move P_e
    p = ProtocolParams(theta_geo=0.7, nbar=battery.nbar)
    battery = battery.with_phase(p.phi_batt)
    base = run_quantum(p, battery, reference_noise).p_e
    tight = run_quantum(p, battery, reference_noise, IntegratorConfig(rtol=2e-8)).p_e
    assert abs(tight - base) < 1e-6
    cutoff = glzi.protocol.compute_cutoff
    monkeypatch.setattr(glzi.protocol, "compute_cutoff", lambda spec: cutoff(spec) + 8)
    wider = run_quantum(p, battery, reference_noise).p_e
    assert abs(wider - base) < 1e-7


TIGHT = IntegratorConfig(rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("battery", [
    BatterySpec.coherent(2.0),
    BatterySpec.displaced_squeezed(2.0, 0.35),
    BatterySpec.displaced_squeezed(2.0, 0.35, alignment="phase"),
    BatterySpec.number_squeezed(2.0, 0.5),
    BatterySpec.fock(2),
], ids=lambda b: b.label())
def test_heisenberg_pass_matches_tight_forward_cycles(battery, reference_noise):
    # one backward integration, at a cutoff wider than the battery's own,
    # contracted with the phase-0 state, against forward cycles at each phase
    p = ProtocolParams(nbar=2.0, phi_echo=0.4)
    heis = heisenberg_observables(p, compute_cutoff(BatterySpec.displaced_squeezed(2.0, 0.5)),
                                  reference_noise)
    thetas = (0.0, 0.7, 2.3)
    got = heis.expectations(battery.with_phase(0.0), np.array(thetas) - math.pi / 2.0)
    for theta, (p_e, n_final) in zip(thetas, got):
        q = dataclasses.replace(p, theta_geo=theta)
        fwd = run_quantum(q, battery.with_phase(q.phi_batt), reference_noise, TIGHT)
        assert abs(p_e - fwd.p_e) <= 1e-7 and abs(n_final - fwd.mean_n_final) <= 1e-7, theta


def test_heisenberg_pass_serves_a_fixed_squeezing_angle(reference_noise):
    # not a rotation of the phase-0 state: contracted as built, at one theta
    p = ProtocolParams(theta_geo=0.7, nbar=2.0, phi_echo=0.4)
    battery = BatterySpec.displaced_squeezed(2.0, 0.35, alignment="angle",
                                             theta_s=0.3).with_phase(p.phi_batt)
    heis = heisenberg_observables(p, compute_cutoff(battery), reference_noise)
    (p_e, n_final), = heis.expectations(battery, np.zeros(1))
    fwd = run_quantum(p, battery, reference_noise, TIGHT)
    assert abs(p_e - fwd.p_e) <= 1e-7 and abs(n_final - fwd.mean_n_final) <= 1e-7


def test_classical_half_cycles_match_forward_cycles(reference_noise):
    p = ProtocolParams(phi_echo=0.4)
    thetas = (0.0, 0.7, 2.3)
    got = classical_heisenberg(p, reference_noise).expectations(
        None, np.array(thetas) - math.pi / 2.0)
    for theta, (p_e, no_battery) in zip(thetas, got):
        assert math.isnan(no_battery)
        fwd = run_classical(dataclasses.replace(p, theta_geo=theta), reference_noise, TIGHT)
        assert abs(p_e - fwd.p_e) <= 1e-7, theta
