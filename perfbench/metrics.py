"""Metric catalogue and the statistics the benchmark reports.

Names and units here must match ``BENCHMARK.json``; ``selfcheck.py``
asserts that they do.
"""

from __future__ import annotations

import statistics

#: End-to-end metrics (untraced run) with a bound, name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_tail_ms": "ms",
}

#: End-to-end metrics printed next to ``END_TO_END`` but left out of the
#: result line, so they carry no bound.  On a 2-vCPU shared host, speed
#: changes by up to 1.8x in phases of seconds; a run's median and mean
#: follow how much of it falls in fast phases, and spread up to 0.25
#: (IQR/median over ten runs) where the tail, set by the slow phases
#: present in nearly every run, spread 0.06-0.15.
UNBOUNDED = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
}

#: Per-layer metrics (traced run), name -> unit.  A layer that does no
#: work on a workload reports 0.
PER_LAYER = {
    "sim.circuit_ms": "ms",
    "sim.compile_ms": "ms",
    "sim.dem_ms": "ms",
    "sim.dem_mechanisms": "count",
    "sim.sample_ms": "ms",
    "sim.sample_shots_per_s": "1/s",
    "decode.graph_ms": "ms",
    "decode.graph_nodes": "count",
    "decode.graph_mb": "MB",
    "decode.decode_ms": "ms",
    "decode.unique_per_shot": "ratio",
    "decode.cache_hit_ratio": "ratio",
    "decode.window_push_ms": "ms",
    "decode.windows_per_chunk": "ratio",
    "deform.removal_ms": "ms",
    "deform.enlargement_ms": "ms",
    "deform.instructions": "count",
    "deform.restored_ratio": "ratio",
    "serve.submit_wait_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.chunk_p50_ms": "ms",
    "serve.chunk_p99_ms": "ms",
    "eval.reduce_ms": "ms",
    "eval.unattributed_ms": "ms",
    "eval.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "host.calib_ms": "ms",
}

#: ROADMAP's ceiling on time no layer span accounts for.
UNATTRIBUTED_LIMIT = 0.10

#: The tail percentile keeps at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` of the reported tail.

    The tail is the highest percentile with at least
    ``TAIL_SAMPLES_BEYOND`` samples above it: the ``(n - 11)``-th
    smallest of ``n`` samples.  With ``n <= 10`` no percentile qualifies
    and the fastest sample is reported, with its true count beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - 1 - TAIL_SAMPLES_BEYOND)
    percentile = 100.0 * k / (n - 1) if n > 1 else 0.0
    return ordered[k], percentile, n - 1 - k
