"""Fast self-check of the benchmark itself (about a minute).

Run from the root of a source checkout::

    python3 perfbench/selfcheck.py

For every workload, at toy size:

* an untraced run with operation 1 made to fail on purpose must print
  every end-to-end metric of ``BENCHMARK.json``, finite and with its
  unit, and count that operation as failed;
* a traced run must print every per-layer metric the same way, with no
  failed operation.

It also checks that ``metrics.py`` and ``BENCHMARK.json`` agree, and
that ``run.py`` exits non-zero without a result in a directory holding
only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from run import BUILD_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    return result


def check_metrics(result: dict, expected: dict[str, str], what: str) -> None:
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise AssertionError(
            f"{what}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(expected))}"
        )
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit:
            raise AssertionError(f"{what}: {name} has unit {metrics[name]['unit']}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise AssertionError(f"{what}: {name} = {value!r} is not a number")
        if not math.isfinite(value):
            raise AssertionError(f"{what}: {name} = {value} is not finite")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if declared["end_to_end"] != END_TO_END or declared["per_layer"] != PER_LAYER:
        raise AssertionError("metrics.py and BENCHMARK.json disagree")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise AssertionError("run.py and BENCHMARK.json list different workloads")

    for workload in WORKLOADS:
        common = ["--workload", workload, "--seed", "7", "--seconds", "2", "--toy"]
        what = f"{workload} untraced"
        result = result_of(
            run_bench(root, *common, "--trace", "0", "--fail-op", "1"), what
        )
        check_metrics(result, END_TO_END, what)
        if result["failed"] < 1 or result["correct"] or result["attempted"] < 2:
            raise AssertionError(f"{what}: injected failure not counted: {result}")

        what = f"{workload} traced"
        result = result_of(run_bench(root, *common, "--trace", "1"), what)
        check_metrics(result, PER_LAYER, what)
        if result["failed"] != 0 or not result["correct"]:
            raise AssertionError(f"{what}: failed operations: {result}")
        print(f"ok  {workload}")

    bare = root / BUILD_DIR / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", WORKLOADS[0], "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            raise AssertionError("run.py produced a result without the program")
    finally:
        shutil.rmtree(bare)
    print("ok  refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
