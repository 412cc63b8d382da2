"""The benchmark's workloads; one workload runs per process.

``run.py`` builds the package, clears every ``REPRO_*`` variable, puts
the built package on ``PYTHONPATH`` and starts this file::

    python3 perfbench/workloads.py --workload memory_d9 --seed 1 \
        --seconds 30 --trace 0 --out result.json

The process sets up the workload ``SETUP_REPEATS`` times from cold,
runs a closed loop of operations for ``--seconds`` seconds, checks every
output after the loop, and writes raw measurements as JSON to ``--out``.
Every operation draws fresh inputs derived from ``--seed``; warm-up
draws from seeds of its own, so no input is seen twice in one process.

With ``--trace 1`` every even-numbered operation is decomposed into the
public calls it makes into each layer, each wrapped in a span
(``spans.py``); odd-numbered operations run untraced so the tracing
overhead can be measured in the same process.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import deque
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import repro
from metrics import PER_LAYER, UNATTRIBUTED_LIMIT, median
from repro.codes import check_code, code_distance
from repro.decode import MatchingDecoder
from repro.decode.blossom import kernel_backend
from repro.defects import CosmicRayModel
from repro.deform import (
    CodeDeformationUnit,
    DeformationReport,
    adaptive_enlargement,
    defect_removal,
)
from repro.eval import LambdaModel, memory_experiment
from repro.eval.montecarlo import clear_decoder_cache
from repro.serve import DecodeService, SlidingWindowDecoder, WindowConfig
from repro.sim import NoiseModel, build_dem, memory_circuit, sample_detectors
from repro.surface import rotated_surface_code
from spans import Tracer

#: Cold set-ups per run; ``setup_s`` is their median.  ``stream_d9``
#: builds its window graphs in each, so it does fewer;
#: a ``defect_response_d5`` set-up is one short op, so it does more.
SETUP_REPEATS = {"memory_d9": 5, "stream_d9": 3, "defect_response_d5": 9}
NOISE = NoiseModel.uniform(1e-3)
#: Shots of the warm-up experiment inside each ``memory_d9`` set-up.
MEMORY_WARMUP_SHOTS = 1024
#: ``defect_response_d5`` draws defect reports from fixed cosmic-ray
#: seeds (deform time per report is heavy-tailed, so every run walks
#: the same list); op ``i`` uses ``REPORT_SEED_BASE + i``.  Every
#: set-up responds to the report of ``WARMUP_REPORT_SEED``, so that
#: repeats differ only in their shot-sampling seed.
REPORT_SEED_BASE = 10_000
WARMUP_REPORT_SEED = 1
#: ``stream_d9`` samples this many streams per second of timed phase
#: up front, above the fastest rate the service has reached (8.8
#: streams/s on 2 vCPUs).
STREAM_POOL_RATE = 10

SHAPES = {
    "memory_d9": {"distance": 9, "basis": "Z", "rounds": 9, "shots": 2048},
    "stream_d9": {
        "distance": 9,
        "basis": "Z",
        "rounds": 100,
        "shots": 64,
        "chunk_layers": 5,
        "streams": 2,
        # One decode thread: with two, three busy threads share the
        # two vCPUs and the service decodes a third fewer streams.
        "workers": 1,
        "window": 10,
        "commit": 5,
        "block_streams": 64,
    },
    "defect_response_d5": {
        "distance": 5,
        "basis": "Z",
        "rounds": 5,
        "shots": 1024,
        "defects": 2,
        "max_layers_per_side": 4,
    },
}

#: Toy sizes for ``selfcheck.py``: same code paths, seconds not minutes.
TOY_SHAPES = {
    "memory_d9": {**SHAPES["memory_d9"], "distance": 3, "rounds": 3, "shots": 512},
    "stream_d9": {
        **SHAPES["stream_d9"],
        "distance": 3,
        "rounds": 20,
        "shots": 16,
        "window": 4,
        "commit": 2,
        "block_streams": 16,
    },
    "defect_response_d5": {
        **SHAPES["defect_response_d5"],
        "distance": 5,
        "rounds": 3,
        "shots": 128,
        "defects": 2,
    },
}

WORKLOAD_IDS = {"memory_d9": 1, "stream_d9": 2, "defect_response_d5": 3}
_WARMUP, _OP = 0, 1


class InjectedFailure(RuntimeError):
    """Raised inside the operation chosen by ``--fail-op``."""


def failure_limit(distance: int, rounds: int, shots: int) -> float:
    """Most logical failures a correct decoder may show on a clean code.

    Ten times the count the repository's calibrated Λ-model predicts
    for a clean distance-``distance`` code, plus ten for Poisson slack.
    A decoder that has stopped correcting fails about half the shots.
    """
    return 10 * shots * LambdaModel().per_cycles(distance, rounds) + 10


def graph_stats(decoder: MatchingDecoder) -> tuple[int, float]:
    """(nodes, MB) of a decoder's graph arrays, matrices and route tables."""
    graph = decoder.graph
    arrays = [
        *graph.edge_endpoints,
        graph.edge_weights,
        graph.edge_parities,
        *graph.ensure_matrices(),
        *graph.ensure_route_tables(),
    ]
    # Route tables may share an array with the matrices; count it once.
    unique = {id(a): a for a in arrays}.values()
    return graph.num_detectors + 1, sum(a.nbytes for a in unique) / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Run:
    """One workload run: its arguments, seeds and measurements."""

    workload: str
    seed: int
    seconds: float
    shape: dict
    tracer: Tracer | None
    fail_op: int | None
    setup_s: list[float] = field(default_factory=list)
    op_seeds: list = field(default_factory=list)
    warmup_seeds: list = field(default_factory=list)
    #: One dict per attempted op: index, inputs, output, seconds, traced.
    records: list[dict] = field(default_factory=list)
    wall_s: float = 0.0
    info: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    #: Traced-run counters: shots per ``sim.sample`` span, (LRU hits,
    #: misses, shots) per ``decode.decode`` span, and (mechanisms,
    #: nodes, MB) per graph built under ``decode.graph``.
    sampled_shots: list[int] = field(default_factory=list)
    lookups: list[tuple[int, int, int]] = field(default_factory=list)
    graphs: list[tuple[int, int, float]] = field(default_factory=list)

    def derive_seed(self, purpose: int, index: int) -> int:
        entropy = [self.seed, WORKLOAD_IDS[self.workload], purpose, index]
        return int(np.random.SeedSequence(entropy).generate_state(1)[0])

    def warmup_seed(self) -> int:
        seed = self.derive_seed(_WARMUP, len(self.warmup_seeds))
        self.warmup_seeds.append(seed)
        return seed

    def op_seed(self, index: int) -> int:
        seed = self.derive_seed(_OP, index)
        self.op_seeds.append(seed)
        return seed

    def traced(self, index: int) -> bool:
        return self.tracer is not None and index % 2 == 0

    def span(self, name: str, op: int | None = None):
        """A span when tracing, else a context that does nothing."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, op)

    def time_setup(self, setup: Callable[[], object]) -> object:
        """Run ``setup`` from cold ``SETUP_REPEATS`` times; keep the last."""
        state = None
        for _ in range(SETUP_REPEATS[self.workload]):
            state = None  # drop the previous set-up before rebuilding
            start = time.perf_counter()
            state = setup()
            self.setup_s.append(time.perf_counter() - start)
        return state

    def inject_failure(self, index: int) -> None:
        if index == self.fail_op:
            raise InjectedFailure(f"operation {index} failed on purpose")

    def record(self, index: int, inputs, output, seconds: float, traced: bool) -> None:
        self.records.append(
            {
                "index": index,
                "inputs": inputs,
                "output": output,
                "seconds": seconds,
                "traced": traced,
            }
        )

    # -- layer calls, each under its span ------------------------------

    def circuit(self, code, rounds: int, op=None):
        with self.span("sim.circuit", op):
            circuit = memory_circuit(code, self.shape["basis"], rounds, NOISE)
        with self.span("sim.compile", op):
            circuit.compiled()
        return circuit

    def sample(self, circuit, shots: int, seed: int, op=None):
        with self.span("sim.sample", op):
            samples = sample_detectors(circuit, shots, seed=seed, output="packed")
        self.sampled_shots.append(shots)
        return samples

    def decoder(self, circuit, op=None) -> MatchingDecoder:
        with self.span("sim.dem", op):
            dem = build_dem(circuit)
        with self.span("decode.graph", op):
            decoder = MatchingDecoder(dem)
            decoder.graph.ensure_route_tables()
        self.graphs.append((len(dem.mechanisms), *graph_stats(decoder)))
        return decoder

    def logical_failures(self, decoder, detectors, observables, op) -> int:
        hits, misses = decoder.cache_hits, decoder.cache_misses
        with self.span("decode.decode", op):
            predictions = decoder.decode_batch(detectors)
        self.lookups.append(
            (
                decoder.cache_hits - hits,
                decoder.cache_misses - misses,
                observables.num_bits,
            )
        )
        with self.span("eval.reduce", op):
            return int((predictions != observables.column_parity()).sum())


def closed_loop(
    run: Run,
    make_input: Callable[[int], object],
    op: Callable[[object], object],
    traced_op: Callable[[object, int], object],
) -> None:
    """One client: build an input, run one op, repeat until time is up."""
    start = time.perf_counter()
    deadline = start + run.seconds
    index = 0
    while time.perf_counter() < deadline:
        inputs = make_input(index)
        traced = run.traced(index)
        started = time.perf_counter()
        try:
            run.inject_failure(index)
            output = traced_op(inputs, index) if traced else op(inputs)
        except Exception as exc:  # counted as a failed op; the loop goes on
            output = exc
        run.record(index, inputs, output, time.perf_counter() - started, traced)
        index += 1
    run.wall_s = time.perf_counter() - start


# -- memory_d9 ---------------------------------------------------------------


def memory_d9(run: Run) -> Callable:
    s = run.shape
    code = None

    def experiment(seed: int, shots: int) -> int:
        result = memory_experiment(
            code, s["basis"], NOISE, rounds=s["rounds"], shots=shots, seed=seed
        )
        return result.errors

    def setup() -> None:
        nonlocal code
        clear_decoder_cache()
        code = rotated_surface_code(s["distance"]).code
        experiment(run.warmup_seed(), MEMORY_WARMUP_SHOTS)

    run.time_setup(setup)

    decoder = None
    if run.tracer is not None:
        # The traced ops decompose memory_experiment into its public
        # calls, so they need a decoder of their own, built with spans.
        decoder = run.decoder(run.circuit(code, s["rounds"]))

    def traced_op(seed: int, i: int) -> int:
        circuit = run.circuit(code, s["rounds"], i)
        detectors, observables = run.sample(circuit, s["shots"], seed, i)
        return run.logical_failures(decoder, detectors, observables, i)

    closed_loop(
        run, run.op_seed, lambda seed: experiment(seed, s["shots"]), traced_op
    )
    limit = failure_limit(s["distance"], s["rounds"], s["shots"])
    run.info["failure_limit"] = limit

    def check(record) -> str | None:
        errors = record["output"]
        if errors > limit:
            return f"{errors} logical failures > limit {limit:.1f}"
        return None

    return check


# -- stream_d9 ---------------------------------------------------------------


class TracedWindows:
    """Stands in for a ``SlidingWindowDecoder`` under ``DecodeService``.

    The service calls ``open_stream``; when ``trace_op`` is set, the
    stream it gets back times every ``push`` and ``finish`` as a
    ``decode`` span of that op.
    """

    def __init__(self, decoder: SlidingWindowDecoder, tracer: Tracer) -> None:
        self.decoder = decoder
        self.tracer = tracer
        self.trace_op: int | None = None
        #: op -> (windows processed, chunks pushed) of its stream.
        self.windows: dict[int, tuple[int, int]] = {}

    def open_stream(self, shots: int):
        stream = self.decoder.open_stream(shots)
        op, self.trace_op = self.trace_op, None
        return stream if op is None else TracedStream(stream, self, op)


class TracedStream:
    def __init__(self, stream, owner: TracedWindows, op: int) -> None:
        self._stream = stream
        self._owner = owner
        self._op = op
        self._chunks = 0
        self.shots = stream.shots

    def push(self, chunk) -> None:
        with self._owner.tracer.span("decode.window_push", self._op):
            self._stream.push(chunk)
        self._chunks += 1

    def finish(self) -> np.ndarray:
        with self._owner.tracer.span("decode.window_finish", self._op):
            predictions = self._stream.finish()
        self._owner.windows[self._op] = (
            self._stream.windows_processed,
            self._chunks,
        )
        return predictions


def stream_d9(run: Run) -> Callable:
    s = run.shape
    tracer = run.tracer
    code = rotated_surface_code(s["distance"]).code

    # Inputs: whole syndrome streams, sampled outside the timed phase
    # and kept bit-packed; each stream is decoded exactly once.
    started = time.perf_counter()
    circuit = run.circuit(code, s["rounds"])
    input_s = time.perf_counter() - started

    def sample_streams(seed: int, count: int) -> list[tuple[np.ndarray, np.ndarray]]:
        nonlocal input_s
        started = time.perf_counter()
        shots = s["shots"]
        detectors, observables = run.sample(circuit, count * shots, seed)
        rows = detectors.transposed().unpack()
        flips = observables.column_parity()
        input_s += time.perf_counter() - started
        return [
            (np.packbits(rows[k : k + shots], axis=1), flips[k : k + shots])
            for k in range(0, count * shots, shots)
        ]

    def unpack(packed: np.ndarray) -> np.ndarray:
        return np.unpackbits(packed, axis=1, count=circuit.num_detectors)

    warmup = deque(
        sample_streams(run.warmup_seed(), SETUP_REPEATS[run.workload])
    )
    chunk_cols = 0

    async def one_stream(service: DecodeService, rows, i=None, traced=False):
        if not traced:
            session = service.open_stream(rows.shape[0])
            for lo in range(0, rows.shape[1], chunk_cols):
                await session.submit(rows[:, lo : lo + chunk_cols])
            return await session.finish()
        with tracer.span("serve.open", i):
            service.decoder.trace_op = i
            session = service.open_stream(rows.shape[0])
        for lo in range(0, rows.shape[1], chunk_cols):
            with tracer.span("serve.submit", i):
                await session.submit(rows[:, lo : lo + chunk_cols])
        with tracer.span("serve.finish", i):
            return await session.finish()

    async def serve_warmup(windows) -> None:
        async with DecodeService(windows, workers=s["workers"]) as service:
            await one_stream(service, unpack(warmup.popleft()[0]))

    def setup():
        nonlocal chunk_cols
        window = SlidingWindowDecoder(
            code,
            s["basis"],
            NOISE,
            config=WindowConfig(s["window"], s["commit"]),
        )
        chunk_cols = s["chunk_layers"] * window.layer_width
        windows = window if tracer is None else TracedWindows(window, tracer)
        asyncio.run(serve_warmup(windows))
        return windows

    windows = run.time_setup(setup)

    # A fixed pool per run, so every run of a seed holds the same
    # inputs; the timed phase ends early (and says so) if the service
    # outruns STREAM_POOL_RATE.
    needed = math.ceil(STREAM_POOL_RATE * run.seconds) + 2 * s["streams"]
    pool: deque = deque()
    while len(pool) < needed:
        seed = run.derive_seed(_OP, len(run.op_seeds))
        run.op_seeds.append(seed)
        pool.extend(sample_streams(seed, s["block_streams"]))
    run.info["input_s"] = input_s

    async def timed_phase():
        next_index = 0
        async with DecodeService(windows, workers=s["workers"]) as service:
            start = time.perf_counter()
            deadline = start + run.seconds

            async def client():
                nonlocal next_index
                while time.perf_counter() < deadline and pool:
                    i = next_index
                    next_index += 1
                    packed, flips = pool.popleft()
                    rows = unpack(packed)
                    traced = run.traced(i)
                    started = time.perf_counter()
                    try:
                        run.inject_failure(i)
                        output = await one_stream(service, rows, i, traced)
                    except Exception as exc:  # counted as a failed op
                        output = exc
                    run.record(
                        i, flips, output, time.perf_counter() - started, traced
                    )

            await asyncio.gather(*(client() for _ in range(s["streams"])))
            run.wall_s = time.perf_counter() - start
        return service.stats()

    stats = asyncio.run(timed_phase())
    run.info["inputs_exhausted"] = not pool
    pool.clear()
    limit = failure_limit(s["distance"], s["rounds"], s["shots"])
    run.info["failure_limit"] = limit

    if tracer is not None:
        ok = [
            r["index"]
            for r in run.records
            if r["traced"] and not isinstance(r["output"], Exception)
        ]
        run.layers.update(
            {
                "decode.windows_per_chunk": median(
                    [w / c for w, c in (windows.windows[i] for i in ok) if c]
                ),
                "decode.graph_nodes": max(
                    windows.decoder.built_graph_sizes().values()
                )
                + 1,
                "serve.chunk_p50_ms": stats.p50_ms,
                "serve.chunk_p99_ms": stats.p99_ms,
                "serve.submit_wait_ms": median(
                    [tracer.op_total(i, ("serve.submit",)) for i in ok]
                )
                * 1e3,
                "serve.overhead_ms": median(
                    [
                        tracer.op_total(i, ("serve.",))
                        - tracer.op_total(i, ("decode.",))
                        for i in ok
                    ]
                )
                * 1e3,
            }
        )

    def check(record) -> str | None:
        predictions, flips = record["output"], record["inputs"]
        if predictions.shape != flips.shape:
            return f"{predictions.shape[0]} predictions for {flips.shape[0]} shots"
        errors = int((predictions != flips).sum())
        if errors > limit:
            return f"{errors} logical failures > limit {limit:.1f}"
        return None

    return check


# -- defect_response_d5 ------------------------------------------------------


def defect_response_d5(run: Run) -> Callable:
    s = run.shape

    def make_inputs(report_seed: int, sample_seed: int):
        patch = rotated_surface_code(s["distance"])
        model = CosmicRayModel(seed=report_seed)
        defects = model.sample_defective_qubits(
            patch.all_qubit_coords(), s["defects"]
        )
        return patch, defects, sample_seed

    def op(inputs):
        patch, defects, sample_seed = inputs
        unit = CodeDeformationUnit(max_layers_per_side=s["max_layers_per_side"])
        report = unit.deform(patch, defects)
        circuit = memory_circuit(patch.code, s["basis"], s["rounds"], NOISE)
        decoder = MatchingDecoder(build_dem(circuit))
        decoder.graph.ensure_route_tables()
        detectors, observables = sample_detectors(
            circuit, s["shots"], seed=sample_seed, output="packed"
        )
        predictions = decoder.decode_batch(detectors)
        return report, int((predictions != observables.column_parity()).sum())

    def traced_op(inputs, i: int):
        # CodeDeformationUnit.deform, one span per subroutine.
        patch, defects, sample_seed = inputs
        with run.span("deform.removal", i):
            removal = defect_removal(patch, defects)
        with run.span("deform.enlargement", i):
            enlargement = adaptive_enlargement(
                patch, max_layers_per_side=s["max_layers_per_side"]
            )
        report = DeformationReport(
            removal=removal,
            enlargement=enlargement,
            instructions=[f"{c}:{a}" for c, a in removal.handled]
            + [f"PatchQ_ADD[{side}]" for side in enlargement.layers_added],
        )
        circuit = run.circuit(patch.code, s["rounds"], i)
        decoder = run.decoder(circuit, i)
        detectors, observables = run.sample(circuit, s["shots"], sample_seed, i)
        return report, run.logical_failures(decoder, detectors, observables, i)

    def setup() -> None:
        report_seed = WARMUP_REPORT_SEED
        sample_seed = run.derive_seed(_WARMUP, len(run.warmup_seeds))
        run.warmup_seeds.append([report_seed, sample_seed])
        op(make_inputs(report_seed, sample_seed))

    run.time_setup(setup)

    def make_input(i: int):
        report_seed = REPORT_SEED_BASE + i
        sample_seed = run.derive_seed(_OP, i)
        run.op_seeds.append([report_seed, sample_seed])
        return make_inputs(report_seed, sample_seed)

    closed_loop(run, make_input, op, traced_op)

    if run.tracer is not None:
        reports = [
            r["output"][0]
            for r in run.records
            if r["traced"] and not isinstance(r["output"], Exception)
        ]
        run.layers["deform.instructions"] = median(
            [len(r.instructions) for r in reports]
        )
        run.layers["deform.restored_ratio"] = sum(
            r.restored for r in reports
        ) / max(1, len(reports))

    def check(record) -> str | None:
        patch = record["inputs"][0]
        report, errors = record["output"]
        check_code(patch.code)  # raises ValidityError on a broken code
        distance = code_distance(patch.code)
        if tuple(distance) != tuple(report.final_distance):
            return (
                f"report says distance {report.final_distance}, "
                f"code has {distance}"
            )
        limit = failure_limit(min(distance), s["rounds"], s["shots"])
        if errors > limit:
            return f"{errors} logical failures > limit {limit:.1f}"
        return None

    return check


WORKLOADS = {
    "memory_d9": memory_d9,
    "stream_d9": stream_d9,
    "defect_response_d5": defect_response_d5,
}

#: Spans that are not nested in another span of the same op, per
#: workload: the op time they leave uncovered is unattributed.
TOP_LEVEL = {
    "memory_d9": ("sim.", "decode.", "eval."),
    "stream_d9": ("serve.",),
    "defect_response_d5": ("sim.", "decode.", "deform.", "eval."),
}


# -- host probe, results -----------------------------------------------------


def host_probe_ms() -> float:
    """Median of three timings of a fixed pure-Python + NumPy kernel."""
    rng = np.random.default_rng(12345)
    matrix = rng.random((160, 160))
    values = rng.random(200_000)
    times = []
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for k in range(150_000):
            acc += k * k % 7
        product = matrix
        for _ in range(10):
            product = np.tanh(product @ matrix)
        np.sort(values)
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def layer_metrics(run: Run) -> dict[str, float]:
    """Fold the traced run's spans and counters into per-layer metrics."""
    tracer = run.tracer
    values = {name: 0.0 for name in PER_LAYER}
    for name in (
        "sim.circuit",
        "sim.compile",
        "sim.dem",
        "sim.sample",
        "decode.graph",
        "decode.decode",
        "decode.window_push",
        "deform.removal",
        "deform.enlargement",
        "eval.reduce",
    ):
        values[f"{name}_ms"] = tracer.median_ms(name)
    sample_s = tracer.durations("sim.sample")
    if sample_s:
        values["sim.sample_shots_per_s"] = sum(run.sampled_shots) / sum(sample_s)
    if run.graphs:
        values["sim.dem_mechanisms"] = median([g[0] for g in run.graphs])
        values["decode.graph_nodes"] = median([g[1] for g in run.graphs])
        values["decode.graph_mb"] = median([g[2] for g in run.graphs])
    if run.lookups:
        values["decode.unique_per_shot"] = median(
            [(h + m) / shots for h, m, shots in run.lookups]
        )
        values["decode.cache_hit_ratio"] = sum(h for h, _, _ in run.lookups) / max(
            1, sum(h + m for h, m, _ in run.lookups)
        )
    values.update(run.layers)

    traced, untraced, unattributed, shares = [], [], [], []
    top = TOP_LEVEL[run.workload]
    for r in run.records:
        if isinstance(r["output"], Exception):
            continue
        if r["traced"]:
            traced.append(r["seconds"])
            rest = r["seconds"] - tracer.op_total(r["index"], top)
            unattributed.append(rest)
            shares.append(rest / r["seconds"])
        else:
            untraced.append(r["seconds"])
    values["eval.unattributed_ms"] = median(unattributed) * 1e3
    values["eval.unattributed_share"] = median(shares)
    if traced and untraced:
        values["trace.overhead_ratio"] = median(traced) / median(untraced)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--fail-op", type=int, default=None)
    args = parser.parse_args(argv)

    leftover = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if leftover:
        print(f"error: REPRO_* variables set: {leftover}", file=sys.stderr)
        return 3
    backend = kernel_backend()
    if backend != "compiled":
        print(
            "error: the compiled blossom kernel is missing; refusing to "
            "record results",
            file=sys.stderr,
        )
        return 3

    shapes = TOY_SHAPES if args.toy else SHAPES
    run = Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        shape=shapes[args.workload],
        tracer=Tracer() if args.trace else None,
        fail_op=args.fail_op,
    )
    host_start = host_probe_ms()
    check = WORKLOADS[args.workload](run)
    host_end = host_probe_ms()

    failures = []
    latencies = []
    for r in run.records:
        output = r["output"]
        try:
            problem = (
                f"{type(output).__name__}: {output}"
                if isinstance(output, Exception)
                else check(r)
            )
        except Exception as exc:  # a failed check is a failed op
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is None:
            latencies.append(r["seconds"] * 1e3)
        else:
            failures.append(f"op {r['index']}: {problem}")

    result = {
        "workload": run.workload,
        "seed": run.seed,
        "trace": args.trace,
        "shape": run.shape,
        "kernel_backend": backend,
        "repro_path": os.path.dirname(repro.__file__),
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "setup_s": run.setup_s,
        "attempted": len(run.records),
        "failed": len(failures),
        "failures": failures[:10],
        "wall_s": run.wall_s,
        "latencies_ms": latencies,
        "op_seeds": run.op_seeds,
        "warmup_seeds": run.warmup_seeds,
        "peak_rss_mb": peak_rss_mb(),
        "host_calib_ms": [host_start, host_end],
        **run.info,
    }
    if run.tracer is not None:
        layers = layer_metrics(run)
        layers["host.calib_ms"] = (host_start + host_end) / 2
        result["layers"] = layers
        result["unattributed_over_limit"] = (
            layers["eval.unattributed_share"] > UNATTRIBUTED_LIMIT
        )
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
