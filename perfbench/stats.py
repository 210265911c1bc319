"""Metric arithmetic: medians, tail percentiles and per-layer trace reduction."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Sequence

# percentiles a tail may be reported at, lowest first
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99, 99.999)
TAIL_MIN_SAMPLES = 40
TAIL_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with pct% of samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(xs) - 1e-9))
    return xs[rank - 1]


def tail_level(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND samples above its rank.

    Below TAIL_MIN_SAMPLES samples there is no tail, and the median stands in.
    """
    if n < TAIL_MIN_SAMPLES:
        return 50.0
    return max(p for p in TAIL_LADDER
               if n - math.ceil(p / 100.0 * n - 1e-9) >= TAIL_BEYOND)


def tail(values: Sequence[float]) -> tuple[float, float]:
    """(percentile level, value) of the reportable tail of a timing."""
    level = tail_level(len(values))
    return level, percentile(values, level)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _p50(values: Sequence[float]) -> float:
    return percentile(values, 50.0) if values else 0.0


def reduce_trace(docs: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from the span files of one traced CLI run.

    docs holds one span document per process (the CLI and any pool workers).
    Returns (metrics, tail levels used).  A layer's self time is its spans'
    duration minus the time covered by their direct child spans.
    """
    total = defaultdict(float)     # seconds by span name
    count = defaultdict(int)
    child = defaultdict(float)     # seconds of direct children, by parent name
    samples = defaultdict(list)
    task_s: list[float] = []
    rhs_s: list[float] = []
    bytes_written = 0
    rhs_evals = 0
    nnz_max = 0
    n_cut_max = 0
    for doc in docs:
        spans = doc["spans"]
        rhs_s += doc["rhs_s"]
        for name, t0, t1, parent, attrs in spans:
            dur = t1 - t0
            total[name] += dur
            count[name] += 1
            samples[name].append(dur)
            if parent >= 0:
                child[spans[parent][0]] += dur
            attrs = attrs or {}
            task_s += attrs.get("task_s", [])
            bytes_written += attrs.get("bytes", 0)
            rhs_evals += attrs.get("rhs_evals", 0)
            nnz_max = max(nnz_max, attrs.get("nnz", 0))
            n_cut_max = max(n_cut_max, attrs.get("n_cut", 0))

    cycles = ("protocol.quantum_cycle", "protocol.classical_cycle")
    rhs_total = sum(rhs_s)
    segments = count["odeint.integrate_segment"]
    task_level, task_tail = tail(task_s) if task_s else (50.0, 0.0)
    q_ms = [1e3 * s for s in samples["protocol.quantum_cycle"]]
    q_level, q_tail = tail(q_ms) if q_ms else (50.0, 0.0)
    rhs_us = [1e6 * s for s in rhs_s]
    rhs_level, rhs_tail = tail(rhs_us) if rhs_us else (50.0, 0.0)
    metrics = {
        "scan.run_tasks_s": total["scan.run_tasks"],
        "scan.task_s_sum": sum(task_s),
        "scan.task_ms_p50": 1e3 * _p50(task_s),
        "scan.task_ms_tail": 1e3 * task_tail,
        "scan.task_ms_max": 1e3 * max(task_s, default=0.0),
        "scan.write_ms": 1e3 * total["scan.write"],
        "scan.bytes_written": bytes_written,
        "protocol.quantum_cycles": count["protocol.quantum_cycle"],
        "protocol.classical_cycles": count["protocol.classical_cycle"],
        "protocol.quantum_ms_p50": _p50(q_ms),
        "protocol.quantum_ms_tail": q_tail,
        "protocol.classical_ms_p50": 1e3 * _p50(samples["protocol.classical_cycle"]),
        "protocol.self_s": sum(total[c] - child[c] for c in cycles),
        "odeint.segments": segments,
        "odeint.step_attempts": (rhs_evals - segments) / 12.0,
        "odeint.integrate_s": total["odeint.integrate_segment"],
        "odeint.self_s": total["odeint.integrate_segment"] - rhs_total,
        "odeint.sanitize_ms": 1e3 * total["odeint.sanitize"],
        "liouvillian.rhs_evals": rhs_evals,
        "liouvillian.rhs_us_p50": _p50(rhs_us),
        "liouvillian.rhs_us_tail": rhs_tail,
        "liouvillian.rhs_s": rhs_total,
        "liouvillian.assemble_calls": count["liouvillian.assemble"],
        "liouvillian.assemble_ms": 1e3 * total["liouvillian.assemble"],
        "liouvillian.nnz_max": nnz_max,
        "states.build_calls": count["states.build"],
        "states.build_ms": 1e3 * total["states.build"],
        "states.n_cut_max": n_cut_max,
        "hilbert.check_density_ms": 1e3 * total["hilbert.check_density"],
        "hilbert.observables_ms": 1e3 * total["hilbert.observables"],
        "metrics.reduce_ms": 1e3 * total["metrics.reduce"],
    }
    levels = {"scan.task_ms_tail": task_level, "protocol.quantum_ms_tail": q_level,
              "liouvillian.rhs_us_tail": rhs_level}
    return metrics, levels
