"""Repository benchmark: build the package, run one workload, report.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload memory_d9 --seed 1 --seconds 30 --trace 0

The package, its compiled kernel included, is built from ``setup.py``
into ``.bench_build/``.  The workload then runs in a child process
(``workloads.py``) with every ``REPRO_*`` variable cleared and only the
fresh build on ``PYTHONPATH``.  Diagnostics (shape, seeds, kernel
backend, tail percentile, host speed) go to standard output first; the
last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from metrics import (
    END_TO_END,
    PER_LAYER,
    UNATTRIBUTED_LIMIT,
    UNBOUNDED,
    median,
    tail,
)

HERE = Path(__file__).resolve().parent
WORKLOADS = ("memory_d9", "stream_d9", "defect_response_d5")
BUILD_DIR = ".bench_build"
#: A workload process is stopped after this many seconds.
WORKLOAD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def build(root: Path) -> Path:
    """Build the package into ``.bench_build``; return its lib directory."""
    base = root / BUILD_DIR / "py"
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", str(base)],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=BUILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"package build failed:\n{proc.stderr}")
    libs = glob.glob(str(base / "lib.*"))
    if len(libs) != 1:
        raise RuntimeError(f"expected one build lib directory, found {libs}")
    return Path(libs[0])


def run_workload(root: Path, lib: Path, args) -> dict:
    """Run one workload in a child process and return its raw results."""
    out = root / BUILD_DIR / f"result-{os.getpid()}.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(lib)
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(out),
    ]
    if args.toy:
        cmd.append("--toy")
    if args.fail_op is not None:
        cmd += ["--fail-op", str(args.fail_op)]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        code = proc.wait(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(
            f"workload did not finish within {WORKLOAD_TIMEOUT_S} s"
        ) from None
    finally:
        if proc.poll() is None:  # interrupted while waiting
            proc.kill()
            proc.wait()
    try:
        if code != 0:
            raise RuntimeError(f"workload process exited with code {code}")
        with open(out) as fh:
            return json.load(fh)
    finally:
        out.unlink(missing_ok=True)


def end_to_end(raw: dict) -> tuple[dict[str, float], dict]:
    latencies = raw["latencies_ms"]
    if not latencies:
        raise RuntimeError("no operation succeeded")
    tail_ms, percentile, beyond = tail(latencies)
    values = {
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ops_per_s": (raw["attempted"] - raw["failed"]) / raw["wall_s"],
        "op_p50_ms": median(latencies),
        "op_tail_ms": tail_ms,
    }
    notes = {
        "op_tail_percentile": percentile,
        "op_tail_samples_beyond": beyond,
        "op_latency_samples": len(latencies),
        "op_quantiles_ms": {
            f"p{q}": sorted(latencies)[(len(latencies) - 1) * q // 100]
            for q in (10, 25, 50, 75, 90)
        },
        "op_mean_ms": sum(latencies) / len(latencies),
    }
    return values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help="toy sizes (for selfcheck.py)"
    )
    parser.add_argument(
        "--fail-op", type=int, default=None,
        help="make this operation fail on purpose (for selfcheck.py)",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "setup.py").is_file() or not (root / "src" / "repro").is_dir():
        return fail("run from the root of a checkout holding setup.py and src/repro")
    try:
        raw = run_workload(root, build(root), args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        return fail(str(exc))

    notes = {}
    if args.trace:
        catalogue = PER_LAYER
        values = raw["layers"]
    else:
        catalogue = END_TO_END
        try:
            values, notes = end_to_end(raw)
        except RuntimeError as exc:
            return fail(str(exc))
    bad = [k for k in catalogue if not math.isfinite(values.get(k, math.nan))]
    if bad:
        return fail(f"metrics missing or not finite: {bad}")

    info = {
        k: v
        for k, v in raw.items()
        if k not in ("latencies_ms", "layers", "attempted", "failed")
    }
    info.update(notes)
    info["failed_share"] = raw["failed"] / max(1, raw["attempted"])
    print("info " + json.dumps(info))
    for name in catalogue:
        print(f"  {name:<28} {values[name]:>14.4f} {catalogue[name]}")
    if not args.trace:
        for name, unit in UNBOUNDED.items():
            print(f"  {name:<28} {values[name]:>14.4f} {unit} (no bound)")
    if raw.get("unattributed_over_limit"):
        print(
            f"  WARNING: unattributed time is above "
            f"{UNATTRIBUTED_LIMIT:.0%} of the traced op wall time"
        )
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in catalogue.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
