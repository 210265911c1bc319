"""The benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import reference
import run
import stats
import workloads
from conftest import BENCH, ROOT

# stats ---------------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 50) == 50
    assert stats.percentile(xs, 90) == 90
    assert stats.percentile(xs, 100) == 100
    assert stats.percentile([7.0], 99.9) == 7.0


@pytest.mark.parametrize("n, level", [(10, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
                                      (100, 90.0), (1000, 99.0), (9999, 99.0),
                                      (10_000, 99.9), (100_000, 99.99)])
def test_tail_level_keeps_ten_samples_beyond(n, level):
    assert stats.tail_level(n) == level
    if n >= stats.TAIL_MIN_SAMPLES:
        xs = list(range(n))
        _, value = stats.tail(xs)
        assert sum(x > value for x in xs) >= stats.TAIL_BEYOND


def test_benchmark_json_lists_what_run_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    plan = workloads.make_plan("fringe-serial", 1)
    rounds = [run.Round(2.0, 3.0, 60.0, 0, [], setup_s=(0.5, 0.6))]
    printed = run.end_to_end(plan, rounds)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        name: m["unit"] for name, m in printed.items()}
    assert printed["points_per_s"]["value"] == plan.points / 2.0
    assert printed["setup_s"]["value"] == pytest.approx(0.55)
    assert sorted(w["name"] for w in doc["workloads"]) == ["fringe-serial", "squeeze-serial"]


def test_crashed_round_fails_the_run_and_stays_out_of_the_medians():
    plan = workloads.make_plan("squeeze-serial", 1)
    clean = run.Round(2.0, 3.0, 60.0, 0, [], setup_s=(0.5,))
    crashed = run.Round(0.1, 0.1, 20.0, 1, ["glzi exited 1"], setup_s=(0.7,))
    printed = run.end_to_end(plan, [clean, crashed, clean])
    assert printed["wall_s"]["value"] == 2.0
    assert printed["peak_rss_mb"]["value"] == 60.0
    assert run.outcome([clean, crashed, clean]) == {"correct": False, "attempted": 3, "failed": 1}
    assert run.outcome([clean, clean]) == {"correct": True, "attempted": 2, "failed": 0}
    with pytest.raises(RuntimeError):
        run.end_to_end(plan, [crashed])


def _span_doc():
    # one quantum cycle of 1.0 s holding a 0.6 s segment (0.4 s in 25 RHS calls)
    # and a 0.1 s state build; one run_tasks returning two task times
    spans = [
        ["scan.run_tasks", 0.0, 1.5, -1, {"task_s": [1.0, 0.25]}],
        ["protocol.quantum_cycle", 0.0, 1.0, 0, None],
        ["states.build", 0.0, 0.1, 1, {"n_cut": 19}],
        ["odeint.integrate_segment", 0.1, 0.7, 1, {"rhs_evals": 25}],
        ["liouvillian.assemble", 0.7, 0.75, 1, {"nnz": 1234}],
        ["protocol.classical_cycle", 1.0, 1.25, 0, None],
        ["scan.write", 1.5, 1.52, -1, {"bytes": 300}],
    ]
    return {"pid": 1, "spans": spans, "rhs_s": [0.016] * 25}


def test_reduce_trace_self_times_and_counts():
    metrics, levels = stats.reduce_trace([_span_doc()])
    assert metrics["protocol.quantum_cycles"] == 1
    assert metrics["protocol.classical_cycles"] == 1
    # (1.0 - 0.1 - 0.6 - 0.05) + 0.25 with no children
    assert metrics["protocol.self_s"] == pytest.approx(0.5)
    assert metrics["odeint.segments"] == 1
    assert metrics["odeint.step_attempts"] == pytest.approx(2.0)
    assert metrics["odeint.self_s"] == pytest.approx(0.6 - 0.4)
    assert metrics["liouvillian.rhs_evals"] == 25
    assert metrics["liouvillian.rhs_us_p50"] == pytest.approx(16000.0)
    assert metrics["liouvillian.nnz_max"] == 1234
    assert metrics["states.n_cut_max"] == 19
    assert metrics["scan.task_s_sum"] == pytest.approx(1.25)
    assert metrics["scan.task_ms_max"] == pytest.approx(1000.0)
    assert metrics["scan.bytes_written"] == 300
    assert metrics["scan.write_ms"] == pytest.approx(20.0)
    assert levels["liouvillian.rhs_us_tail"] == 50.0   # 25 samples: no tail


def test_reduce_trace_merges_worker_documents():
    one, _ = stats.reduce_trace([_span_doc()])
    two, _ = stats.reduce_trace([_span_doc(), _span_doc()])
    assert two["liouvillian.rhs_evals"] == 2 * one["liouvillian.rhs_evals"]
    assert two["protocol.self_s"] == pytest.approx(2 * one["protocol.self_s"])


# workloads -----------------------------------------------------------------------


def test_plan_depends_only_on_seed():
    a = workloads.make_plan("fringe-serial", 7)
    b = workloads.make_plan("fringe-serial", 7)
    c = workloads.make_plan("fringe-serial", 8)
    assert a == b
    assert a.config["grid.nbar_list"] != c.config["grid.nbar_list"]


def test_ranges_hold_every_cutoff_constant():
    from glzi.states import BatterySpec, compute_cutoff

    def cutoffs(nbar):
        specs = [BatterySpec.coherent(nbar)]
        specs += [BatterySpec.displaced_squeezed(nbar, r) for r in workloads.SQUEEZE_R]
        specs += [BatterySpec.number_squeezed(nbar, q) for q in workloads.SQUEEZE_Q]
        return [compute_cutoff(s) for s in specs]

    ranges = workloads.FRINGE_NBAR + (workloads.HEATMAP_NBAR,)
    for lo, hi in ranges:
        grid = np.linspace(lo, hi, 50)
        assert len({compute_cutoff(BatterySpec.coherent(x)) for x in grid}) == 1
    for lo, hi in workloads.SQUEEZE_NBAR:
        assert len({tuple(cutoffs(x)) for x in np.linspace(lo, hi, 50)}) == 1


# reference and closed forms ------------------------------------------------------


@pytest.mark.parametrize("nbar, r", [(3.0, 0.25), (10.0, 0.5), (5.0, 0.0)])
def test_displaced_squeezed_amplitudes_match_closed_form_stats(nbar, r):
    amps = reference.displaced_squeezed_amplitudes(nbar, r, 0.8)
    mean, var, eta = reference.photon_stats(amps)
    want_var, want_eta = reference.amp_squeezed_stats(nbar, r)
    assert mean == pytest.approx(nbar, abs=1e-10)
    assert var == pytest.approx(want_var, abs=1e-9)
    assert eta == pytest.approx(want_eta, abs=1e-10)


def test_zero_squeezing_is_coherent():
    a = reference.displaced_squeezed_amplitudes(4.0, 0.0, 0.3)
    b = reference.coherent_amplitudes(4.0, 0.3)
    n = min(a.size, b.size)
    assert np.max(np.abs(a[:n] - b[:n])) < 1e-12


def test_number_squeezed_mean_is_exact():
    p = reference.discrete_gaussian(3.0, 0.5)
    assert float(np.arange(p.size) @ p) == pytest.approx(3.0, abs=1e-12)


def test_classical_reference_is_second_harmonic():
    phys = reference.Physics.from_config(workloads.PHYSICS)
    thetas = np.linspace(0.0, 2 * math.pi, 7)[:-1]
    p_e = np.array([reference.classical_cycle(phys, th) for th in thetas])
    _, resid = checks.harmonic_fit(thetas, p_e)
    assert resid < 1e-8
    assert np.ptp(p_e) > 0.1


def test_harmonic_check_rejects_a_perturbed_point():
    thetas = np.linspace(0.0, 2 * math.pi, 17)
    p_e = checks.harmonic_eval(np.array([0.4, 0.2, -0.1]), thetas)
    assert checks.check_harmonic("clean", thetas, p_e) == []
    p_e[5] += 1e-5
    assert [f.check for f in checks.check_harmonic("bad", thetas, p_e)] == ["b.second_harmonic"]


# end to end on real program output -----------------------------------------------


@pytest.fixture(scope="module")
def smoke_fringe(tmp_path_factory):
    """Outputs of a tiny fringe run of the glzi CLI."""
    plan = workloads.make_plan("fringe-serial", 5, smoke=True)
    out = tmp_path_factory.mktemp("fringe") / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "glzi.cli"] + plan.cli_args(str(out)),
                          capture_output=True, text=True, env=env, check=True)
    return plan, proc.stdout, out


def _edit_cell(path, row, column, edit):
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = f"{edit(float(cells[col])):.12g}"
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_real_output_passes_every_check(smoke_fringe):
    plan, stdout, out = smoke_fringe
    assert checks.check_outputs(plan, stdout, out) == []


def test_perturbed_pe_fails_reference_or_harmonic_check(smoke_fringe, tmp_path):
    plan, stdout, out = smoke_fringe
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    name, i = plan.fringe_spots[0]
    _edit_cell(bad / name, i, "P_e", lambda p: p + 1e-5)
    failed = {f.check for f in checks.check_outputs(plan, stdout, bad)}
    assert failed & {"a.P_e", "b.second_harmonic"}
    # the reference check alone also catches it
    assert "a.P_e" in {f.check for f in checks.check_reference(plan, bad)}


@pytest.fixture(scope="module")
def smoke_heatmap(tmp_path_factory):
    """Outputs of a tiny heatmap run of the glzi CLI through its process pool."""
    plan = workloads.make_plan("heatmap-pool", 5, smoke=True)
    assert plan.workers == 2
    out = tmp_path_factory.mktemp("heatmap") / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "glzi.cli"] + plan.cli_args(str(out)),
                          capture_output=True, text=True, env=env, check=True, timeout=120)
    return plan, proc.stdout, out


def test_real_heatmap_passes_every_check(smoke_heatmap):
    plan, stdout, out = smoke_heatmap
    assert checks.check_outputs(plan, stdout, out) == []


def test_perturbed_heatmap_cell_fails_harmonic_and_reference_checks(smoke_heatmap, tmp_path):
    plan, stdout, out = smoke_heatmap
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    name, i, j = plan.heatmap_spots[0]
    _edit_cell(bad / name, i * int(plan.config["grid.tau_p_count"]) + j, "P_e", lambda p: p + 1e-5)
    failed = {f.check for f in checks.check_outputs(plan, stdout, bad)}
    assert "b.second_harmonic" in failed
    assert "a.P_e" in {f.check for f in checks.check_reference(plan, bad)}


@pytest.mark.parametrize("factor, failed", [(1.0 + 1e-10, set()), (1.0 + 1e-3, {"c.var_n"})])
def test_initial_variance_is_checked_on_every_row(smoke_fringe, tmp_path, factor, failed):
    plan, stdout, out = smoke_fringe
    edited = tmp_path / "out"
    shutil.copytree(out, edited)
    _edit_cell(edited / plan.outputs[0], 3, "var_n_init", lambda v: v * factor)
    assert {f.check for f in checks.check_outputs(plan, stdout, edited)} == failed


def test_missing_output_fails_shape_check(smoke_fringe):
    plan, stdout, out = smoke_fringe
    short = "\n".join(stdout.split()[:-1])
    assert [f.check for f in checks.check_outputs(plan, short, out)] == ["d.files"]


def _copy_bench(root):
    shutil.copytree(BENCH, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def _fake_tree(root, cli_source):
    """A source tree whose glzi loads any config and whose CLI is cli_source."""
    _copy_bench(root)
    pkg = root / "src" / "glzi"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "scan.py").write_text("def load_config(*args, **kwargs):\n    return None\n")
    (pkg / "cli.py").write_text(cli_source)


def _bench(root):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fringe-serial",
                           "--seed", "1", "--trace", "0", "--smoke"],
                          capture_output=True, text=True, cwd=root, timeout=120)


def test_cli_that_always_crashes_gives_no_result(tmp_path):
    _fake_tree(tmp_path, "import sys\nsys.exit(1)\n")
    proc = _bench(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "glzi exited 1" in proc.stderr


def test_cli_that_writes_nothing_is_incorrect(tmp_path):
    _fake_tree(tmp_path, "")
    proc = _bench(tmp_path)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_benchmark_refuses_a_tree_without_the_program(tmp_path):
    _copy_bench(tmp_path)
    proc = _bench(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
