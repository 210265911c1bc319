"""Run the glzi CLI with spans recorded around each layer's public functions.

    python3 tracer.py TRACE_FILE <glzi arguments>

Wrappers are installed where the caller binds each function (glzi.scan for
the scan -> protocol boundary, glzi.protocol for protocol -> odeint,
liouvillian, states and hilbert), and around the right-hand side that
``integrate_segment`` receives.  Nothing in glzi changes.  Spans stay in
memory and are written as JSON when the process ends; a forked pool worker
writes its own file, TRACE_FILE.<pid>, when it exits.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from multiprocessing import util
from pathlib import Path
from time import perf_counter

import glzi.cli
import glzi.protocol
import glzi.scan


class Recorder:
    """Spans as (name, start, end, parent index, attrs); RHS calls as durations."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rhs_s: list[float] = []

    def reset(self):
        self.__init__()

    def dump(self, path: Path) -> None:
        doc = {"pid": os.getpid(), "spans": self.spans, "rhs_s": self.rhs_s}
        path.write_text(json.dumps(doc), encoding="utf-8")


REC = Recorder()


def span(name: str, attrs=None):
    """Decorator factory: record a span per call; attrs(args, result) adds fields."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            idx = len(REC.spans)
            rec = [name, 0.0, 0.0, REC.stack[-1] if REC.stack else -1, None]
            REC.spans.append(rec)
            REC.stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                REC.stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, result)
            return result
        return inner
    return wrap


def timed_rhs(rhs):
    times = REC.rhs_s

    def inner(t, y):
        t0 = perf_counter()
        out = rhs(t, y)
        times.append(perf_counter() - t0)
        return out
    return inner


def integrate_with_timed_rhs(fn):
    @functools.wraps(fn)
    def inner(y0, t0, t1, rhs, *args, **kwargs):
        before = len(REC.rhs_s)
        result = fn(y0, t0, t1, timed_rhs(rhs), *args, **kwargs)
        REC.spans[REC.stack[-1]][4] = {"rhs_evals": len(REC.rhs_s) - before}
        return result
    return inner


def _task_seconds(args, result):
    return {"task_s": [item[2] for item in result]}


def _bytes(path) -> int:
    return Path(path).stat().st_size


def install() -> None:
    scan, protocol = glzi.scan, glzi.protocol
    scan.run_tasks = span("scan.run_tasks", _task_seconds)(scan.run_tasks)
    scan.run_quantum = span("protocol.quantum_cycle")(scan.run_quantum)
    scan.run_classical = span("protocol.classical_cycle")(scan.run_classical)
    scan.write_csv = span("scan.write", lambda a, r: {"bytes": _bytes(a[0])})(scan.write_csv)
    scan.write_sidecar = span("scan.write", lambda a, r: {"bytes": _bytes(r)})(scan.write_sidecar)
    for name in ("contrast", "backaction", "contrast_deficit_fit"):
        setattr(scan, name, span("metrics.reduce")(getattr(scan, name)))
    protocol.integrate_segment = span("odeint.integrate_segment")(
        integrate_with_timed_rhs(protocol.integrate_segment))
    protocol.sanitize = span("odeint.sanitize")(protocol.sanitize)
    protocol.assemble = span(
        "liouvillian.assemble",
        lambda a, lv: {"nnz": int(lv.l0.nnz + lv.l_delta.nnz)})(protocol.assemble)
    protocol.build_state = span("states.build", lambda a, c: {"n_cut": int(c.size)})(
        protocol.build_state)
    protocol.check_density = span("hilbert.check_density")(protocol.check_density)
    protocol.battery_observables = span("hilbert.observables")(protocol.battery_observables)


def main(argv: list[str]) -> int:
    trace_path = Path(argv[0])
    install()

    def in_worker(rec: Recorder) -> None:
        # runs in a pool worker after multiprocessing has cleared the inherited
        # finalizers; the worker runs its finalizers when the pool shuts down
        rec.reset()
        util.Finalize(rec, rec.dump, args=(Path(f"{trace_path}.{os.getpid()}"),),
                      exitpriority=10)

    util.register_after_fork(REC, in_worker)
    try:
        return glzi.cli.main(argv[1:])
    finally:
        REC.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
