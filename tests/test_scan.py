import json
import math
import multiprocessing
import os

import pytest

import glzi.oracle
import glzi.scan
from glzi.cli import main
from glzi.errors import ConfigError
from glzi.oracle import SectorAmplitudes
from glzi.scan import (
    cmd_backaction,
    cmd_contrast_scan,
    cmd_fringe,
    cmd_heatmap,
    cmd_oracle_check,
    cmd_squeeze_bench,
    load_config,
    noise_from,
    oracle_report,
    protocol_for,
)

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
                 "integrator.h_min_ns=1", "grid.tau_p_min_ns=0", "grid.nbar_list=1,-1"):
        with pytest.raises(ConfigError):
            load_config("fringe", overrides=[pair], out_dir=tmp_path)


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
    assert timings["n_runs"] == 1 * 5


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


def test_each_scan_is_one_sweep(tmp_path, monkeypatch):
    sizes = []
    original = glzi.scan.run_tasks

    def counting(tasks, workers):
        sizes.append(len(tasks))
        return original(tasks, workers)

    monkeypatch.setattr(glzi.scan, "run_tasks", counting)
    grid = ("grid.theta_count=3", "grid.nbar_list=1,2")
    cases = [  # (command, experiment, extra overrides, cycles)
        (cmd_fringe, "fringe", (), 3 * 3),
        (cmd_heatmap, "heatmap", ("grid.tau_p_count=2",), 3 * 3 * 2),
        (cmd_contrast_scan, "contrast-scan", (), 3 * 3),
        (cmd_backaction, "backaction", (), 2 * 3),
        (cmd_squeeze_bench, "squeeze-bench", ("grid.r_list=0.25", "grid.q_list=0.5"),
         2 * 3 * 3),
    ]
    for cmd, experiment, extra, cycles in cases:
        sizes.clear()
        cmd(cfg_for(experiment, tmp_path / experiment, *grid, *extra))
        assert sizes == [cycles], experiment


def test_oracle_check_report(tmp_path):
    cfg = cfg_for("oracle-check", tmp_path)
    files = cmd_oracle_check(cfg)
    doc = json.loads(files[0].read_text())
    assert doc["n_checks"] >= 12
    assert doc["n_failed"] == 0
    names = {c["name"] for c in doc["checks"]}
    assert "sector_decomposition_vs_simulation" in names
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


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["fringe", "--set", "bogus=1", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err

    ok = main(["fringe", "--out", str(tmp_path / "ok"), "--workers", "1",
               "--set", "grid.theta_count=3", "--set", "grid.nbar_list=1"])
    assert ok == 0
    out = capsys.readouterr().out
    assert "fringe_classical.csv" in out

    bad = main(["fringe", "--out", str(tmp_path / "fail"), "--workers", "1",
                "--set", "grid.theta_count=3", "--set", "grid.nbar_list=1",
                "--set", "integrator.max_steps=2"])
    assert bad == 3

    nan = main(["fringe", "--out", str(tmp_path / "nan"), "--workers", "1",
                "--set", "protocol.tau_p_ns=nan", "--set", "grid.theta_count=3",
                "--set", "grid.nbar_list=1"])
    assert nan == 2
    assert not (tmp_path / "nan").exists()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers inherit the patched cycle only when forked")
def test_cli_crashed_worker_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(glzi.scan, "run_quantum", lambda *args: os._exit(1))
    rc = main(["fringe", "--out", str(tmp_path), "--workers", "2",
               "--set", "grid.theta_count=3", "--set", "grid.nbar_list=1"])
    assert rc == 3
    assert "fringe failed" in capsys.readouterr().err


def test_cli_svg(tmp_path):
    rc = main(["fringe", "--out", str(tmp_path), "--workers", "1", "--svg",
               "--set", "grid.theta_count=5", "--set", "grid.nbar_list=1"])
    assert rc == 0
    svg = (tmp_path / "fringe_coherent_nbar1.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
