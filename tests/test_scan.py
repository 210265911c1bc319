import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.linalg

import glzi
import glzi.oracle
import glzi.protocol
import glzi.scan
from glzi.cli import main
from glzi.errors import ConfigError
from glzi.odeint import IntegratorConfig
from glzi.oracle import SectorAmplitudes, oracle_report
from glzi.scan import (
    cmd_backaction,
    cmd_contrast_scan,
    cmd_fringe,
    cmd_heatmap,
    cmd_oracle_check,
    cmd_squeeze_bench,
    load_config,
    noise_from,
    protocol_for,
    sweep,
    tau_p_grid,
    theta_grid,
)
from glzi.protocol import echo_unitary, run_classical, run_quantum
from glzi.states import BatterySpec

FAST = ["--set", "grid.theta_count=5", "--workers", "1"]


def cfg_for(experiment, tmp_path, *pairs, workers=1):
    return load_config(experiment, overrides=list(pairs),
                       out_dir=tmp_path, workers=workers)


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config("fringe", out_dir=tmp_path)
    assert cfg.f("protocol.omega_mhz") == 20.0
    assert cfg.flist("grid.nbar_list") == [0.5, 1.0, 2.0, 5.0, 10.0]
    cfg2 = load_config("contrast-scan", out_dir=tmp_path)
    assert cfg2.flist("grid.nbar_list") == [0.5, 0.8, 1.0, 1.5, 2.0, 3.0,
                                            5.0, 7.5, 10.0, 15.0]
    cfg3 = load_config("squeeze-bench", out_dir=tmp_path,
                       overrides=["grid.nbar_list=2,5"])
    assert cfg3.flist("grid.nbar_list") == [2.0, 5.0]
    assert cfg3.flist("grid.r_list") == [0.15, 0.25, 0.35, 0.5]
    assert cfg3.flist("grid.q_list") == [0.75, 0.5]


def test_load_config_rejects_bad_input(tmp_path):
    with pytest.raises(ConfigError):
        load_config("nonsense", out_dir=tmp_path)
    with pytest.raises(ConfigError):
        load_config("fringe", overrides=["no.such.key=3"], out_dir=tmp_path)
    with pytest.raises(ConfigError):
        load_config("fringe", overrides=["grid.theta_count=zebra"], out_dir=tmp_path)
    with pytest.raises(ConfigError):
        load_config("fringe", overrides=["protocol.tau_p_ns=80"], out_dir=tmp_path)
    with pytest.raises(ConfigError):
        load_config("fringe", config_file=tmp_path / "missing.cfg", out_dir=tmp_path)
    for pair in ("protocol.tau_p_ns=nan", "integrator.rtol=nan", "noise.t1_ns=inf",
                 "noise.kappa_per_ns=nan", "grid.tau_p_max_ns=nan",
                 "protocol.omega_mhz=inf", "noise.gamma1_per_ns=nan",
                 "noise.gamma_phi_per_ns=-inf", "grid.nbar_list=1,inf",
                 "integrator.h_init_ns=nan", "noise.t1_ns=-1",
                 "integrator.h_min_ns=1", "grid.tau_p_min_ns=0", "grid.nbar_list=1,-1",
                 "integrator.max_steps=0"):
        with pytest.raises(ConfigError):
            load_config("fringe", overrides=[pair], out_dir=tmp_path)
    # squeeze-bench builds every r at every nbar: sinh^2(r) >= nbar has no displacement
    for pairs in (["grid.nbar_list=1", "grid.r_list=3"],
                  ["grid.nbar_list=5,1", "grid.r_list=0.5,0.9"],
                  ["grid.r_list=-0.1"], ["grid.q_list=0"],
                  # no Gaussian center reaches a mean of 0.3 at width q * sqrt(0.3)
                  ["grid.nbar_list=0.3", "grid.r_list=0.1", "grid.q_list=3"]):
        with pytest.raises(ConfigError):
            load_config("squeeze-bench", overrides=pairs, out_dir=tmp_path)
    # batteries whose labels coincide would overwrite each other's files
    for experiment, nbars in (("fringe", "2,2.0000001"), ("heatmap", "2,2")):
        with pytest.raises(ConfigError, match="label"):
            load_config(experiment, overrides=["grid.nbar_list=" + nbars], out_dir=tmp_path)
    load_config("squeeze-bench", overrides=["grid.nbar_list=1", "grid.r_list=0.88"],
                out_dir=tmp_path)
    # other experiments ignore grid.r_list
    load_config("fringe", overrides=["grid.nbar_list=0.1"], out_dir=tmp_path)


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\nprotocol.omega_mhz = 25\n\ngrid.theta_count=11\n")
    cfg = load_config("fringe", config_file=cfg_file, out_dir=tmp_path)
    assert cfg.f("protocol.omega_mhz") == 25.0
    assert cfg.i("grid.theta_count") == 11
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    with pytest.raises(ConfigError):
        load_config("fringe", config_file=bad, out_dir=tmp_path)


def test_rates_win_over_times_with_warning(tmp_path):
    cfg = load_config("fringe", overrides=["noise.gamma1_per_ns=0.01",
                                           "noise.t1_ns=118"], out_dir=tmp_path)
    with pytest.warns(UserWarning):
        noise = noise_from(cfg)
    assert noise.gamma1 == 0.01
    # gamma_phi still derived from the time pair
    assert noise.gamma_phi == pytest.approx(1 / 157.0 - 0.5 / 118.0)


def test_protocol_resolution_units(tmp_path):
    cfg = load_config("fringe", out_dir=tmp_path)
    p = protocol_for(cfg, theta=0.3, nbar=5.0)
    assert p.omega == pytest.approx(2 * math.pi * 0.020)
    assert p.delta0 == pytest.approx(2 * math.pi * 0.100)
    assert p.tau_p == 25.0 and p.tau_c == 100.0


def test_cmd_fringe_files_and_schema(tmp_path):
    cfg = cfg_for("fringe", tmp_path, "grid.theta_count=11",
                  "grid.nbar_list=0.5,1,2,5,10")
    files = cmd_fringe(cfg)
    assert len(files) == 6  # five batteries + classical
    for path in files:
        lines = path.read_text().splitlines()
        assert lines[0] == "theta_geo,P_e,delta_n,var_n_init,eta_coh_init"
        assert len(lines) == 12
        assert path.with_suffix(".json").exists()
    classical = (tmp_path / "fringe_classical.csv").read_text().splitlines()
    assert classical[1].split(",")[2] == "nan"  # no battery fields
    sidecar = json.loads((tmp_path / "fringe_classical.json").read_text())
    assert sidecar["units"] == {"freq": "MHz (f)", "time": "ns"}
    assert "config" in sidecar and "version" in sidecar and "timings" in sidecar
    _assert_runtime(sidecar["runtime"], workers=1, start_method=None)


def _assert_runtime(runtime, workers, start_method):
    assert set(runtime) == {"workers", "start_method", "blas_threads", "task_s"}
    assert runtime["workers"] == workers
    assert runtime["start_method"] == start_method
    assert set(runtime["blas_threads"]) == {"numpy", "scipy"}
    assert set(runtime["blas_threads"].values()) <= {1, None}
    task_s = runtime["task_s"]
    assert set(task_s) == {"p50", "p95", "max"}
    assert 0.0 < task_s["p50"] <= task_s["p95"] <= task_s["max"]


def test_cmd_fringe_deterministic_bytes(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out, workers in ((out_a, 1), (out_b, 2)):
        cfg = load_config("fringe", overrides=["grid.theta_count=5",
                                               "grid.nbar_list=2"],
                          out_dir=out, workers=workers)
        cmd_fringe(cfg)
    name = "fringe_coherent_nbar2.csv"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    sidecar = json.loads((out_b / name).with_suffix(".json").read_text())
    _assert_runtime(sidecar["runtime"], workers=2,
                    start_method=multiprocessing.get_start_method())


def test_cmd_heatmap_grid_order(tmp_path):
    cfg = cfg_for("heatmap", tmp_path, "grid.theta_count=5", "grid.tau_p_count=3",
                  "grid.nbar_list=5")
    files = cmd_heatmap(cfg)
    quantum = [p for p in files if "nbar5" in p.name][0]
    lines = quantum.read_text().splitlines()
    assert lines[0] == "theta_geo,tau_p,P_e"
    assert len(lines) == 1 + 5 * 3
    # theta-outer ordering: first three rows share theta_geo = 0
    first = [line.split(",") for line in lines[1:4]]
    assert all(row[0] == "0" for row in first)
    assert [row[1] for row in first] == ["25", "30", "35"]
    meta = json.loads(quantum.with_suffix(".json").read_text())
    assert meta["max_abs_diff_vs_classical"] > 0.0
    assert meta["min_eigenvalue"] > -1e-7


def test_cmd_contrast_scan_columns(tmp_path):
    cfg = cfg_for("contrast-scan", tmp_path, "grid.theta_count=9",
                  "grid.nbar_list=2,5")
    files = cmd_contrast_scan(cfg)
    rows = [line.split(",") for line in files[0].read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ["2", "5"]
    for r in rows:
        nbar, c, c_cl, deficit, inv = map(float, r)
        assert deficit == pytest.approx(c_cl - c, abs=1e-12)
        assert inv == pytest.approx(1.0 / nbar, abs=1e-12)
    fit = json.loads((tmp_path / "contrast_fit.json").read_text())
    assert set(fit) == {"slope", "intercept", "r2", "n_points", "nbar_min"}


def test_cmd_backaction_control_row(tmp_path, monkeypatch):
    def no_classical(*args):
        raise AssertionError("backaction ran a classical cycle")

    monkeypatch.setattr(glzi.scan, "run_classical", no_classical)
    cfg = cfg_for("backaction", tmp_path, "grid.theta_count=5",
                  "grid.nbar_list=2", "protocol.omega_mhz=0",
                  "noise.kappa_per_ns=0")
    files = cmd_backaction(cfg)
    row = files[0].read_text().splitlines()[1].split(",")
    # decoupled lossless battery: no photon exchange at all
    assert abs(float(row[1])) < 1e-10
    assert abs(float(row[2])) < 1e-10
    timings = json.loads(files[0].with_suffix(".json").read_text())["timings"]
    assert timings["n_runs"] == 2  # one backward integration and one spot cycle


def test_cmd_squeeze_bench_rows(tmp_path):
    cfg = cfg_for("squeeze-bench", tmp_path, "grid.theta_count=5",
                  "grid.nbar_list=2", "grid.r_list=0.35", "grid.q_list=0.5")
    files = cmd_squeeze_bench(cfg)
    lines = files[0].read_text().splitlines()
    assert lines[0] == "state_kind,nbar,r_or_q,C,delta_C,var_n_init,eta_coh_init"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["coherent", "amp_squeezed", "number_squeezed"]
    assert float(rows[0][4]) == 0.0  # coherent row delta_C
    assert all(float(r[4]) <= 0.0 for r in rows)


@pytest.fixture
def task_counts(monkeypatch):
    """Sizes of the run_tasks calls glzi.scan makes."""
    sizes = []
    original = glzi.scan.run_tasks

    def counting(tasks, workers):
        sizes.append(len(tasks))
        return original(tasks, workers)

    monkeypatch.setattr(glzi.scan, "run_tasks", counting)
    return sizes


def test_each_scan_is_one_sweep(tmp_path, task_counts):
    # whatever the theta grid: per tau_p one backward pass per battery size
    # (and one for the classical reference), plus one spot cycle per battery
    cases = [  # (command, experiment, extra overrides, tasks)
        (cmd_fringe, "fringe", (), 3 + 3),
        (cmd_heatmap, "heatmap", ("grid.tau_p_count=2",), 3 * 2 + 3),
        (cmd_contrast_scan, "contrast-scan", (), 3 + 3),
        (cmd_backaction, "backaction", (), 2 + 2),
        (cmd_squeeze_bench, "squeeze-bench", ("grid.r_list=0.25", "grid.q_list=0.5"),
         2 + 2 * 3),
    ]
    for n_theta in (4, 7):
        grid = (f"grid.theta_count={n_theta}", "grid.nbar_list=1,2")
        for cmd, experiment, extra, tasks in cases:
            task_counts.clear()
            cmd(cfg_for(experiment, tmp_path / f"{experiment}{n_theta}", *grid, *extra))
            assert task_counts == [tasks], (experiment, n_theta)


def _direct(cfg, battery, taus=(None,)):
    """Reference: one tight-tolerance cycle per grid point, theta-outer."""
    noise, icfg = noise_from(cfg), IntegratorConfig(rtol=1e-11, atol=1e-13)
    results = []
    for theta in theta_grid(cfg):
        for tau_p in taus:
            p = protocol_for(cfg, float(theta), nbar=battery.nbar if battery else None,
                             tau_p=tau_p)
            results.append(run_classical(p, noise, icfg) if battery is None else
                           run_quantum(p, battery.with_phase(p.phi_batt), noise, icfg))
    return results


def _assert_matches_direct(cfg, batteries, taus=(None,)):
    shape = (len(theta_grid(cfg)), len(taus))
    for battery, sw in zip(batteries, sweep(cfg, batteries, taus)):
        assert len(sw.runs) == len(taus) + 1  # the passes and the spot cycle
        assert sw.p_e.shape == sw.delta_n.shape == shape
        direct = _direct(cfg, battery, taus)
        for got_pe, got_dn, want in zip(sw.p_e.ravel(), sw.delta_n.ravel(), direct):
            assert abs(got_pe - want.p_e) <= 1e-7, battery
            for a, b in ((got_dn, want.delta_n),
                         (sw.initial.var_n_initial, want.var_n_initial),
                         (sw.initial.eta_coh_initial, want.eta_coh_initial)):
                assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-7, battery


def test_sweep_reconstruction_matches_direct_integration(tmp_path):
    cfg = cfg_for("fringe", tmp_path, "grid.theta_count=13", "grid.nbar_list=2")
    _assert_matches_direct(cfg, [BatterySpec.coherent(2.0),
                                 BatterySpec.displaced_squeezed(2.0, 0.35),
                                 BatterySpec.number_squeezed(2.0, 0.5), None])
    cut = cfg_for("heatmap", tmp_path, "grid.theta_count=4", "grid.tau_p_count=3",
                  "grid.nbar_list=2")
    _assert_matches_direct(cut, [None, BatterySpec.coherent(2.0)], tau_p_grid(cut))
    # the smallest grid the config accepts
    four = cfg_for("fringe", tmp_path, "grid.theta_count=4", "grid.nbar_list=2")
    _assert_matches_direct(four, [BatterySpec.coherent(2.0), None])


def test_sweep_refuses_fixed_squeezing_angle(tmp_path, task_counts):
    # a fixed squeezing angle does not rotate with theta_geo, so the probes'
    # second-harmonic form does not hold for it
    cfg = cfg_for("fringe", tmp_path / "out", "grid.theta_count=5", "grid.nbar_list=2")
    angle = BatterySpec.displaced_squeezed(2.0, 0.35, alignment="angle", theta_s=0.3)
    with pytest.raises(ValueError, match="angle"):
        sweep(cfg, [BatterySpec.coherent(2.0), angle])
    assert task_counts == []
    assert not (tmp_path / "out").exists()


def test_oracle_check_report(tmp_path):
    cfg = cfg_for("oracle-check", tmp_path)
    files = cmd_oracle_check(cfg)
    doc = json.loads(files[0].read_text())
    assert doc["n_checks"] >= 12
    assert doc["n_failed"] == 0
    names = {c["name"] for c in doc["checks"]}
    assert {"sector_decomposition_vs_simulation", "fringe_is_second_harmonic",
            "generator_conserves_coherence_order", "detuning_generator_is_diagonal",
            "adjoint_matches_forward"} <= names
    for chk in doc["checks"]:
        assert set(chk) == {"name", "defect", "threshold", "passed"}


def test_oracle_check_catches_sign_mutation(monkeypatch):
    original = glzi.oracle.sector_amplitudes

    def flipped(n, g, delta, t):
        amp = original(n, g, delta, t)
        return SectorAmplitudes(stay=amp.stay, flip=-amp.flip)

    monkeypatch.setattr(glzi.oracle, "sector_amplitudes", flipped)
    report = {c["name"]: c for c in oracle_report()}
    bad = report["sector_decomposition_vs_simulation"]
    assert not bad["passed"]
    assert bad["defect"] > 0.1


def test_oracle_check_catches_order_mixing_echo(monkeypatch):
    def half_pulse(phi):  # a pi/2 rotation moves the coherence order by +-1 too
        return scipy.linalg.expm(math.pi / 4.0 * echo_unitary(phi))

    monkeypatch.setattr(glzi.oracle, "echo_unitary", half_pulse)
    report = {c["name"]: c for c in oracle_report()}
    assert report["echo_moves_between_sectors"]["passed"]
    bad = report["generator_conserves_coherence_order"]
    assert not bad["passed"]
    assert bad["defect"] > 0.1


def test_oracle_check_catches_forward_generator_in_backward_pass(monkeypatch):
    # integrating L where the Heisenberg picture needs L^H
    monkeypatch.setattr(glzi.protocol, "_adjoint_band", glzi.protocol._order_band)
    report = {c["name"]: c for c in oracle_report()}
    bad = report["adjoint_matches_forward"]
    assert not bad["passed"]
    assert bad["defect"] > 1e-3
    assert report["fringe_is_second_harmonic"]["passed"]


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["fringe", "--set", "bogus=1", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err

    ok = main(["fringe", "--out", str(tmp_path / "ok"), "--workers", "1",
               "--set", "grid.theta_count=4", "--set", "grid.nbar_list=1"])
    assert ok == 0
    out = capsys.readouterr().out
    assert "fringe_classical.csv" in out

    bad = main(["fringe", "--out", str(tmp_path / "fail"), "--workers", "1",
                "--set", "grid.theta_count=4", "--set", "grid.nbar_list=1",
                "--set", "integrator.max_steps=2"])
    assert bad == 3

    nan = main(["fringe", "--out", str(tmp_path / "nan"), "--workers", "1",
                "--set", "protocol.tau_p_ns=nan", "--set", "grid.theta_count=4",
                "--set", "grid.nbar_list=1"])
    assert nan == 2
    assert not (tmp_path / "nan").exists()

    for i, (experiment, *pairs) in enumerate((
            ("squeeze-bench", "grid.nbar_list=1", "grid.r_list=3"),
            ("fringe", "integrator.max_steps=0"),
            ("fringe", "grid.nbar_list=2,2.0000001", "grid.theta_count=4"),
            ("heatmap", "grid.nbar_list=2,2"),
            ("squeeze-bench", "grid.nbar_list=0.3", "grid.r_list=0.1",
             "grid.q_list=3", "grid.theta_count=4"))):
        out = tmp_path / f"late-{i}-{experiment}"
        args = [experiment, "--out", str(out), "--workers", "1"]
        assert main(args + [x for pair in pairs for x in ("--set", pair)]) == 2
        assert not out.exists()


def test_two_or_three_angles_are_refused(tmp_path, capsys):
    # P_e has period pi in theta_geo: linspace(0, 2pi, n <= 3) is one point
    for experiment in ("fringe", "contrast-scan"):
        for n in (2, 3):
            out = tmp_path / f"{experiment}-{n}"
            assert main([experiment, "--out", str(out), "--workers", "1",
                         "--set", f"grid.theta_count={n}", "--set", "grid.nbar_list=2,3"]) == 2
            assert "period pi" in capsys.readouterr().err
            assert not out.exists()


def test_spot_cycle_mismatch_exits_3(tmp_path, monkeypatch, capsys):
    # a forward spot cycle that disagrees with the closed form stops the scan
    original = glzi.scan.run_quantum

    def off(*args):
        res = original(*args)
        return dataclasses.replace(res, p_e=res.p_e + 2e-6)

    monkeypatch.setattr(glzi.scan, "run_quantum", off)
    rc = main(["fringe", "--out", str(tmp_path), "--workers", "1",
               "--set", "grid.theta_count=4", "--set", "grid.nbar_list=1"])
    assert rc == 3
    assert "spot cycle" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_config_validation_loads_no_scipy(tmp_path):
    # a fresh interpreter: importing glzi and checking a config, good or bad,
    # must not pay for scipy, which loads at the first cycle
    probe = (
        "import sys, glzi.scan, glzi.cli\n"
        "glzi.scan.load_config('fringe', overrides=['grid.theta_count=4'])\n"
        "glzi.scan.load_config('squeeze-bench', overrides=['grid.theta_count=4'])\n"
        "rc = glzi.cli.main(['fringe', '--out', sys.argv[1],\n"
        "                    '--set', 'protocol.tau_p_ns=nan'])\n"
        "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(glzi.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "nan")], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["2", "[]"]
    assert "config error" in out.stderr


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers inherit the patched cycle only when forked")
def test_cli_crashed_worker_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(glzi.scan, "run_quantum", lambda *args: os._exit(1))
    rc = main(["fringe", "--out", str(tmp_path), "--workers", "2",
               "--set", "grid.theta_count=4", "--set", "grid.nbar_list=1"])
    assert rc == 3
    assert "fringe failed" in capsys.readouterr().err


def test_cli_svg(tmp_path):
    rc = main(["fringe", "--out", str(tmp_path), "--workers", "1", "--svg",
               "--set", "grid.theta_count=5", "--set", "grid.nbar_list=1"])
    assert rc == 0
    svg = (tmp_path / "fringe_coherent_nbar1.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
