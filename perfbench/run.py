"""Benchmark of glzi sweeps, measured from outside the program.

    python3 perfbench/run.py --workload fringe-serial --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload squeeze-serial --smoke

Run from the root of a glzi source tree.  Each round launches the ``glzi`` CLI
(``python3 -m glzi.cli`` with ``src`` on PYTHONPATH and the environment
otherwise untouched) on the workload's generated config.  The first round's
outputs are checked against computations made apart from the program
(checks.py, in its own process); later rounds must write the same CSV bytes.
Rounds repeat until their CLI wall time adds up to --seconds.

This process imports the standard library only, so that the CLI it forks
starts with a small resident set and peak_rss_mb is the program's own.

--trace 0 prints the end-to-end metrics: medians over the rounds whose CLI
exited cleanly, and for setup_s over fresh-interpreter set-ups, a few before
each round, so that they sample the machine at the same times as the rounds
do.  --trace 1 alternates untraced and traced rounds (tracer.py) and prints
the per-layer metrics of the traced ones, with the tracing overhead against
the untraced.  A round fails if the CLI exits non-zero or a check fails; any
failed round makes the run incorrect, and a run with no clean round exits 1
without a result.  The last stdout line is one JSON object; progress goes to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import stats
from workloads import WORKLOADS, Plan, make_plan

HERE = Path(__file__).resolve().parent
SETUPS_PER_ROUND = 3
RUN_BUDGET_S = 150.0   # stop starting rounds when a run nears the 180 s limit

# per-layer metrics printed with --trace 1 (BENCHMARK.json "per_layer")
PER_LAYER_UNITS = {
    "scan.run_tasks_s": "s", "scan.task_s_sum": "s", "scan.task_ms_p50": "ms",
    "scan.task_ms_tail": "ms", "scan.task_ms_max": "ms", "scan.write_ms": "ms",
    "scan.bytes_written": "bytes",
    "protocol.quantum_cycles": "count", "protocol.classical_cycles": "count",
    "protocol.quantum_ms_p50": "ms", "protocol.quantum_ms_tail": "ms",
    "protocol.classical_ms_p50": "ms", "protocol.self_s": "s",
    "odeint.segments": "count", "odeint.step_attempts": "count",
    "odeint.integrate_s": "s", "odeint.self_s": "s", "odeint.sanitize_ms": "ms",
    "liouvillian.rhs_evals": "count", "liouvillian.rhs_us_p50": "us",
    "liouvillian.rhs_us_tail": "us", "liouvillian.rhs_s": "s",
    "liouvillian.assemble_calls": "count", "liouvillian.assemble_ms": "ms",
    "liouvillian.nnz_max": "count",
    "states.build_calls": "count", "states.build_ms": "ms", "states.n_cut_max": "count",
    "hilbert.check_density_ms": "ms", "hilbert.observables_ms": "ms",
    "metrics.reduce_ms": "ms",
    "trace.overhead_pct": "%",
}


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    failures: list[str]
    trace: list[dict] | None = None   # span documents of a traced round
    setup_s: tuple[float, ...] = ()

    @property
    def completed(self) -> bool:
        """The CLI ran to a clean exit, so its times measure the whole workload."""
        return self.exit_code == 0

    @property
    def ok(self) -> bool:
        return self.completed and not self.failures


def program_env(root: Path) -> dict[str, str]:
    """The caller's environment with the checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(argv: list[str], env: dict[str, str], log_dir: Path) -> tuple[float, float, float, int]:
    """Run a process to exit; (wall s, user+sys CPU s of it and its reaped
    children, largest resident set MB of any of them, exit code)."""
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=log_dir)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:   # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def measure_setup(plan: Plan, env: dict[str, str], work: Path, repeats: int) -> tuple[float, ...]:
    """Fresh interpreter -> glzi imported and the workload's config validated.

    The probe reads the system-wide monotonic clock once the config is
    validated, so the interpreter's teardown is not counted."""
    probe = ("import sys, time, glzi.scan as s; "
             "s.load_config(sys.argv[1], overrides=sys.argv[3:], workers=int(sys.argv[2])); "
             "print(time.monotonic(), s.__file__)")
    overrides = [f"{k}={v}" for k, v in plan.config.items()]
    argv = [sys.executable, "-c", probe, plan.experiment, str(plan.workers)] + overrides
    src = Path(env["PYTHONPATH"].split(os.pathsep)[0])
    times = []
    for _ in range(repeats):
        t0 = time.monotonic()
        _, _, _, code = launch(argv, env, work)
        printed = (work / "stdout.txt").read_text().split(maxsplit=1)
        if (code != 0 or len(printed) != 2
                or not Path(printed[1].strip()).resolve().is_relative_to(src.resolve())):
            raise RuntimeError(f"set-up probe failed (exit {code}, printed {printed!r}): "
                               + (work / "stderr.txt").read_text()[-2000:])
        times.append(float(printed[0]) - t0)
    return tuple(times)


class Verifier:
    """Checks rounds: the full check once, then byte equality with that round."""

    def __init__(self, plan: Plan, seed: int, smoke: bool):
        self.plan = plan
        self.argv = [sys.executable, str(HERE / "checks.py"), "--workload", plan.workload,
                     "--seed", str(seed)] + (["--smoke"] if smoke else [])
        self.verified: dict[str, bytes] | None = None

    def failures(self, stdout_path: Path, out_dir: Path) -> list[str]:
        """stdout_path holds what the CLI printed: the paths it wrote."""
        if self.verified is not None:
            got = [Path(line).name for line in stdout_path.read_text().split()
                   if line.endswith(".csv")]
            if got != self.plan.outputs:
                return [f"d.files: wrote {got}, expected {self.plan.outputs}"]
            return [f"d.stable: {name} differs from the checked round"
                    for name, data in self.verified.items()
                    if (out_dir / name).read_bytes() != data]
        proc = subprocess.run(
            self.argv + ["--out-dir", str(out_dir), "--stdout-file", str(stdout_path)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            return [f"checker exited {proc.returncode}: {proc.stderr[-2000:]}"]
        failures = json.loads(proc.stdout.splitlines()[-1])
        if not failures:
            self.verified = {name: (out_dir / name).read_bytes() for name in self.plan.outputs}
        return failures


def run_round(plan: Plan, verifier: Verifier, env: dict[str, str], work: Path,
              trace: bool) -> Round:
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    for old in work.glob("trace.json*"):
        old.unlink()
    cli = [sys.executable, "-m", "glzi.cli"]
    if trace:
        cli = [sys.executable, str(HERE / "tracer.py"), str(work / "trace.json")]
    wall, cpu, rss, code = launch(cli + plan.cli_args(str(out_dir)), env, work)
    docs = None
    if trace:
        docs = [json.loads(p.read_text()) for p in sorted(work.glob("trace.json*"))]
    if code != 0:
        err = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"glzi exited {code}: {err}", file=sys.stderr)
        return Round(wall, cpu, rss, code, [f"glzi exited {code}"], trace=docs)
    failures = verifier.failures(work / "stdout.txt", out_dir)
    for failure in failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    return Round(wall, cpu, rss, code, failures, trace=docs)


def run_rounds(plan: Plan, verifier: Verifier, env, work: Path, seconds: float,
               started: float, *, once: bool, setups: int = 0,
               alternate_trace: bool = False) -> list[Round]:
    """Whole passes until the rounds' CLI wall time reaches seconds (one pass
    if once).  A pass is one round after `setups` set-up probes, or with
    alternate_trace an untraced round and a traced one."""
    passes = (False, True) if alternate_trace else (False,)
    rounds: list[Round] = []
    while True:
        for trace in passes:
            setup_s = measure_setup(plan, env, work, setups)
            rounds.append(run_round(plan, verifier, env, work, trace))
            rounds[-1].setup_s = setup_s
            print(f"round {len(rounds)}{' traced' if trace else ''}: "
                  f"wall {rounds[-1].wall_s:.3f} s {'ok' if rounds[-1].ok else 'FAILED'}",
                  file=sys.stderr)
        elapsed = time.monotonic() - started
        if (once or sum(r.wall_s for r in rounds) >= seconds
                or elapsed + len(passes) * rounds[-1].wall_s > RUN_BUDGET_S):
            return rounds


def end_to_end(plan: Plan, rounds: list[Round]) -> dict:
    """Medians over the completed rounds; a crashed CLI's short times are left out."""
    setup_s = [t for r in rounds for t in r.setup_s]
    rounds = [r for r in rounds if r.completed]
    if not rounds:
        raise RuntimeError("no round ran to a clean exit: nothing was measured")
    return {
        "setup_s": {"value": stats.median(setup_s), "unit": "s"},
        "wall_s": {"value": stats.median([r.wall_s for r in rounds]), "unit": "s"},
        "points_per_s": {"value": stats.median([plan.points / r.wall_s for r in rounds]),
                         "unit": "points/s"},
        "cpu_s": {"value": stats.median([r.cpu_s for r in rounds]), "unit": "s"},
        "peak_rss_mb": {"value": stats.median([r.peak_rss_mb for r in rounds]), "unit": "MB"},
    }


def per_layer(rounds: list[Round], summary_path: Path) -> dict:
    """Medians over traced rounds; the overhead compares them with the
    untraced rounds run in between.  The summary file keeps every round."""
    rounds = [r for r in rounds if r.completed]
    untraced = [r.wall_s for r in rounds if r.trace is None]
    traced = [r for r in rounds if r.trace is not None]
    if not traced or not untraced:
        raise RuntimeError("a traced run needs clean traced and untraced rounds")
    reduced = [stats.reduce_trace(r.trace) for r in traced]
    values = {name: stats.median([m[name] for m, _ in reduced])
              for name in PER_LAYER_UNITS if name != "trace.overhead_pct"}
    traced_wall = stats.median([r.wall_s for r in traced])
    values["trace.overhead_pct"] = 100.0 * (traced_wall / stats.median(untraced) - 1.0)
    summary_path.write_text(json.dumps({
        "untraced_wall_s": untraced,
        "traced_wall_s": [r.wall_s for r in traced],
        "tail_levels": reduced[0][1],
        "rounds": [m for m, _ in reduced],
    }, indent=1) + "\n")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def outcome(rounds: list[Round]) -> dict:
    """Operations attempted and failed: a round fails if the CLI exits non-zero
    or a check fails, and any failed round makes the run incorrect."""
    failed = sum(not r.ok for r in rounds)
    return {"correct": failed == 0, "attempted": len(rounds), "failed": failed}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="CLI wall time to accumulate in whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, one round, one set-up: seconds, not steady")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    # turn SIGTERM into SystemExit so that launch() stops the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    src = root / "src"
    if not (src / "glzi" / "cli.py").is_file():
        print(f"no glzi source tree at {src}; run from the repository root", file=sys.stderr)
        return 2
    plan = make_plan(args.workload, args.seed, smoke=args.smoke)
    work = root / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = program_env(root)
    verifier = Verifier(plan, args.seed, args.smoke)
    try:
        if args.trace:
            rounds = run_rounds(plan, verifier, env, work, args.seconds, started,
                                once=args.smoke, alternate_trace=True)
            summary = root / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = per_layer(rounds, summary)
        else:
            rounds = run_rounds(plan, verifier, env, work, args.seconds, started,
                                once=args.smoke, setups=1 if args.smoke else SETUPS_PER_ROUND)
            metrics = end_to_end(plan, rounds)
    except RuntimeError as exc:
        print(f"no result: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(dict(outcome(rounds), metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
