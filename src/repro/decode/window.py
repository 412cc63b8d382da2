"""Sliding-window temporal decoding with boundary commitment.

Whole-history matching needs the full ``(rounds + 1) × G`` detector
record (``G`` = same-basis stabilizer generators) before it can decode
anything, so its memory and its all-pairs matrices grow with the
stream.  This module decodes an *unbounded* round stream in bounded
memory by matching overlapping round-windows and committing only the
prefix of each window that the next window re-derives:

* a window spans ``WindowConfig.window`` detector layers; after
  matching it, the first ``WindowConfig.commit`` layers are final.
  Routes lying *wholly* below the commit line are committed — their
  observable parity is added to the stream's running prediction and
  their defects are consumed.
* every other route is discarded and its defects — including any
  below the commit line — are **deferred** into the next window, where
  they re-decode together with the newly arrived layers.  Routes that
  merely touch the tentative tail are never trusted: the window cannot
  see paths or partners beyond its trailing edge, so a cross-line pair
  the whole-history matcher would split differently must wait for more
  context.  The raw detector data of the overlap region is superseded
  by the deferred set (committed routes already explained the rest).
* each window's matching graph carries a leading **pad** of
  ``commit + 2`` already-committed layers that hosts deferred defects
  which have slipped below the current window's start.  A route whose
  earliest defect would recede past the pad is force-committed instead
  (by then it has been re-examined with a full extra window of
  context), so defects never recede unboundedly and memory stays
  bounded.
* the final window — whatever remains when the stream ends — commits
  everything, including the data-measurement detector layer.

Window matching graphs are sliced out of **one probe circuit** of
``window + pad + 1`` rounds rather than rebuilt per stream length: the
memory circuit's error mechanisms are translation invariant away from
the initialisation layer and the final data-measurement layer (each
mechanism spans at most two adjacent detector layers, and a space-like
error's observable flip depends only on whether its qubit lies on the
logical support), so the probe's layers ``[0, W)`` give the *first*
window graph, layers ``[1, 1 + pad + W)`` give every *bulk* window
graph (leading pad included), and its last ``pad + B`` layers give the
*final* window graph for a stream ending with ``B`` buffered layers.
Windows starting no more than ``pad`` layers into the stream instead
slice the probe's exact prefix (bulk) or reuse the exact whole-history
graph for the stream's full length (final), so the pad region is
always structurally faithful.  A mechanism with any detector outside
the slice is dropped (closed temporal boundaries): a straddler at the
leading edge was already committed by the previous window, and one at
the trailing edge leaves a lone deferred defect that re-decodes next
window with its partner visible.

Agreement: committed predictions are pinned bit-identical to
whole-history dense matching whenever the optimum is unique (the
window/overlap agreement suite in ``tests/test_window.py``); among
equal-weight optima the windowed and whole-history formulations may
legitimately pick different routes.  Streams no longer than one window
never pay the windowing machinery at all — they fall back to exact
whole-history decoding of the equivalent memory circuit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.decode.blossom import min_weight_perfect_matching
from repro.decode.graph import MATRIX_NODE_LIMIT
from repro.decode.mwpm import MatchingDecoder
from repro.sim import build_dem, memory_circuit
from repro.sim.dem import DetectorErrorModel, ErrorMechanism
from repro.utils.gf2 import PackedBits

if TYPE_CHECKING:
    from repro.codes import SubsystemCode
    from repro.sim import NoiseModel

__all__ = ["WindowConfig", "SlidingWindowDecoder", "WindowStream"]

#: Pad slack beyond the commit depth: a deferred defect may slip up to
#: this many layers below a window's start before any route containing
#: it is force-committed.  One extra window of context plus margin for
#: shortest paths that dip below the window's leading edge.
_PAD_SLACK = 2

#: Default bound on each per-kind (defect tuple -> outcome) memo.
_DEFAULT_MEMO_SIZE = 65536


@dataclass(frozen=True)
class WindowConfig:
    """Window geometry, in detector layers (one layer per round).

    ``window`` layers are matched at a time; the first ``commit``
    layers of each window become final and the remaining
    ``window - commit`` layers overlap into the next window.  A larger
    overlap widens the context tentative routes re-decode with (more
    robust near the commit line); a larger commit advances the stream
    faster per matching call.
    """

    window: int = 10
    commit: int = 5

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must span at least 2 detector layers")
        if not 1 <= self.commit < self.window:
            raise ValueError(
                "commit must satisfy 1 <= commit < window "
                f"(got commit={self.commit}, window={self.window})"
            )


class SlidingWindowDecoder:
    """Bounded-memory streaming decoder for one memory-experiment setup.

    Holds everything streams share — the probe circuit's sliced window
    graphs, the per-window-kind outcome memos, and the whole-history
    fallback decoders for short streams — so any number of concurrent
    :class:`WindowStream` sessions (one per logical stream) reuse the
    same matrices.  ``workers`` is the forked-pool width handed to the
    fallback's ``decode_batch`` (the canonical spelling shared with
    :class:`~repro.decode.base.Decoder`).

    Every matching graph a stream can touch has at most
    ``(window + commit + 2) × G`` detectors (the window span plus its
    leading pad) regardless of how many rounds the stream runs, which
    is the bounded-memory guarantee the service builds on.
    """

    def __init__(
        self,
        code: SubsystemCode,
        basis: str,
        noise: NoiseModel,
        *,
        config: WindowConfig | None = None,
        defective_data: set | None = None,
        defective_ancillas: set | None = None,
        workers: int | None = None,
        memo_size: int = _DEFAULT_MEMO_SIZE,
    ) -> None:
        self.config = config if config is not None else WindowConfig()
        self.code = code
        self.basis = basis
        self.noise = noise
        self.defective_data = frozenset(defective_data or ())
        self.defective_ancillas = frozenset(defective_ancillas or ())
        self.workers = workers
        self.memo_size = memo_size
        generators = [
            g for g in code.stabilizers.values() if g.basis == basis
        ]
        if not generators:
            raise ValueError(f"code has no {basis}-basis stabilizers")
        #: Detectors per layer: one per same-basis stabilizer generator.
        self.layer_width = len(generators)
        #: Leading-pad depth of a steady-state window graph: deep
        #: enough to host any defect deferred from the previous window
        #: (``commit`` layers) plus the force-commit slack.
        self.pad = self.config.commit + _PAD_SLACK
        padded = self.config.window + self.pad
        if padded * self.layer_width + 1 > MATRIX_NODE_LIMIT:
            raise ValueError(
                f"window of {self.config.window} (+{self.pad} pad) "
                f"layers x {self.layer_width} detectors exceeds the "
                f"all-pairs matrix limit ({MATRIX_NODE_LIMIT} nodes); "
                "use a smaller window"
            )
        self._probe: DetectorErrorModel | None = None
        self._graphs: dict[object, MatchingDecoder] = {}
        self._memos: dict[object, OrderedDict] = {}
        self._whole: dict[int, MatchingDecoder] = {}

    # -- session front doors -------------------------------------------
    def open_stream(self, shots: int) -> WindowStream:
        """A fresh streaming session decoding ``shots`` parallel shots."""
        if shots < 1:
            raise ValueError("shots must be a positive integer")
        return WindowStream(self, shots)

    def decode_batch(
        self, detector_samples: np.ndarray | PackedBits
    ) -> np.ndarray:
        """Stream a complete detector record through windowed decoding.

        Accepts the packed sampler's detector bitplane (rows =
        detectors, bits = shots) or a ``(shots, detectors)`` uint8
        array whose width is a whole number of layers, and returns one
        observable prediction per shot — the committed-region
        predictions of every window plus the final window's.
        """
        rows = _as_shot_rows(detector_samples)
        stream = self.open_stream(len(rows))
        stream.push(rows)
        return stream.finish()

    # -- probe construction and slicing --------------------------------
    def _memory_circuit(self, rounds: int):
        return memory_circuit(
            self.code,
            self.basis,
            rounds,
            self.noise,
            defective_data=set(self.defective_data) or None,
            defective_ancillas=set(self.defective_ancillas) or None,
        )

    def _probe_layers(self) -> int:
        return self.config.window + self.pad + 2

    def _probe_dem(self) -> DetectorErrorModel:
        """DEM of the probe circuit every window graph is sliced from."""
        if self._probe is None:
            rounds = self._probe_layers() - 1
            dem = build_dem(self._memory_circuit(rounds))
            expected = self._probe_layers() * self.layer_width
            if dem.num_detectors != expected:
                raise AssertionError(
                    f"probe circuit produced {dem.num_detectors} "
                    f"detectors, expected {expected}"
                )
            self._probe = dem
        return self._probe

    def _slice_dem(self, start: int, stop: int) -> DetectorErrorModel:
        """Sub-DEM of probe layers ``[start, stop)``, rebased to 0.

        Only mechanisms with *every* detector inside the slice survive
        (closed temporal boundaries); detector-less mechanisms are
        dropped — they never participate in matching.
        """
        probe = self._probe_dem()
        lo = start * self.layer_width
        hi = stop * self.layer_width
        mechanisms = [
            ErrorMechanism(
                m.probability,
                tuple(d - lo for d in m.detectors),
                m.observable_flip,
            )
            for m in probe.mechanisms
            if m.detectors and all(lo <= d < hi for d in m.detectors)
        ]
        return DetectorErrorModel(
            mechanisms, hi - lo, probe.num_observables
        )

    def _graph(self, kind: object) -> MatchingDecoder:
        """Matching machinery for one window kind, built once.

        ``"first"`` covers probe layers ``[0, W)`` (the stream's own
        opening window, initialisation layer included), ``"bulk"``
        covers ``[1, 1 + pad + W)`` (any interior window plus its
        leading pad of committed layers), ``("head", lo)`` covers the
        exact prefix ``[0, lo + W)`` for an interior window starting
        only ``lo <= pad`` layers into the stream, ``("final", B)``
        covers the probe's last ``pad + B`` layers, and
        ``("final_exact", lo, B)`` is the whole-history graph for a
        stream of ``lo + B`` layers whose final window starts at
        ``lo <= pad``.  The dense matcher is pinned so route
        extraction is deterministic.
        """
        decoder = self._graphs.get(kind)
        if decoder is None:
            window = self.config.window
            probe_layers = self._probe_layers()
            if kind == "first":
                start, stop = 0, window
            elif kind == "bulk":
                start, stop = 1, 1 + self.pad + window
            elif kind[0] == "head":  # type: ignore[index]
                start, stop = 0, kind[1] + window  # type: ignore[index]
            elif kind[0] == "final":  # type: ignore[index]
                _, tail = kind  # type: ignore[misc]
                start, stop = probe_layers - self.pad - tail, probe_layers
            else:  # ("final_exact", lo, B): the stream's whole history
                _, lo, tail = kind  # type: ignore[misc]
                decoder = self._whole_history(lo + tail)
                decoder.graph.ensure_matrices()
                self._graphs[kind] = decoder
                return decoder
            decoder = MatchingDecoder(
                self._slice_dem(start, stop), matcher="dense", cache_size=0
            )
            decoder.graph.ensure_matrices()
            self._graphs[kind] = decoder
        return decoder

    def _pad_of(self, kind: object) -> int:
        """Leading-pad depth (in layers) of one window kind's graph."""
        if kind == "first":
            return 0
        if kind == "bulk":
            return self.pad
        tag = kind[0]  # type: ignore[index]
        if tag in ("head", "final_exact"):
            return kind[1]  # type: ignore[index]
        return self.pad  # ("final", B)

    def built_graph_sizes(self) -> dict[object, int]:
        """Detector counts of every window graph built so far (all are
        bounded by ``(window + pad) × layer_width`` whatever the
        stream length)."""
        return {
            kind: decoder.num_detectors
            for kind, decoder in self._graphs.items()
        }

    def _whole_history(self, num_layers: int) -> MatchingDecoder:
        """Exact fallback decoder for streams of ``num_layers`` layers."""
        decoder = self._whole.get(num_layers)
        if decoder is None:
            dem = build_dem(self._memory_circuit(num_layers - 1))
            decoder = MatchingDecoder(dem, matcher="dense")
            self._whole[num_layers] = decoder
        return decoder

    # -- windowed matching ---------------------------------------------
    def _routes(
        self, decoder: MatchingDecoder, defects: tuple[int, ...]
    ) -> list[tuple]:
        """Optimal routing of one defect set, route by route.

        Same objective and construction as
        :meth:`MatchingDecoder._blossom_match` — symmetrised pair
        distances floored by the two-boundary route, dense matching on
        the reduced component — but returning the individual routes
        (``("pair", i, j, parity)`` / ``("boundary", i, parity)`` /
        ``("dangle", i)`` over positions into ``defects``) instead of
        their folded parity, because commitment classifies each route
        by where its defects sit relative to the commit line.  A
        matched pair whose direct path loses to two boundary routes
        splits into those two routes *before* classification, so each
        half commits independently.
        """
        dist, parity, b_dist, b_par = decoder._lookup(defects)
        k = len(defects)
        if k == 1:
            if np.isfinite(b_dist[0]):
                return [("boundary", 0, int(b_par[0]))]
            return [("dangle", 0)]
        dist = np.minimum(dist, dist.T)
        via_boundary = b_dist[:, None] + b_dist[None, :]
        weights = np.minimum(dist, via_boundary)
        use_pair = dist <= via_boundary
        _, cost = MatchingDecoder._reduced_cost(k, weights, b_dist)
        mate, _ = min_weight_perfect_matching(cost)
        routes: list[tuple] = []
        for i in range(k):
            j = int(mate[i])
            if j == k:  # the odd defect routed to the boundary
                routes.append(("boundary", i, int(b_par[i])))
            elif j < 0:  # disconnected leftovers route alone
                if np.isfinite(b_dist[i]):
                    routes.append(("boundary", i, int(b_par[i])))
                else:
                    routes.append(("dangle", i))
            elif i < j:
                if use_pair[i, j]:
                    routes.append(("pair", i, j, int(parity[i, j])))
                else:
                    routes.append(("boundary", i, int(b_par[i])))
                    routes.append(("boundary", j, int(b_par[j])))
        return routes

    def _process(
        self,
        kind: object,
        defects: tuple[int, ...],
        commit_line: int | None,
        floor: int,
    ) -> tuple[int, tuple[int, ...]]:
        """Match one window's defect set; split it at the commit line.

        Returns ``(committed_parity, deferred)``: the XOR of the
        observable parities of every committed route, plus the defects
        of deferred routes — already shifted by the commit depth, so
        they index directly into the *next* window.  A route commits
        only when *all* its defects lie below the commit line (a
        cross-line route's tentative endpoint makes its weight
        unreliable — the window cannot see paths or partners beyond
        its trailing edge — so the whole route re-decodes next window
        with more context), or when any defect lies below ``floor``
        (deferring again would recede past the next window's pad).
        ``commit_line=None`` (the final window) commits everything.
        Outcomes are memoised per window kind: the commit line and
        floor are functions of the kind, so equal defect tuples always
        resolve identically, and low-error-rate streams hit the memo
        for almost every shot.
        """
        memo = self._memos.setdefault(kind, OrderedDict())
        hit = memo.get(defects)
        if hit is not None:
            try:
                memo.move_to_end(defects)
            except KeyError:
                pass  # evicted by another session's thread since ``get``
            return hit
        parity = 0
        deferred: list[int] = []
        if defects:
            # Defects are window-local (layer 0 = the window's first
            # layer; held defects from earlier windows may be
            # negative); the graph's leading pad shifts them up.
            # Routes come back as positions into ``defects``, so
            # commitment classifies in window coordinates directly.
            pad_shift = self._pad_of(kind) * self.layer_width
            graph_defects = tuple(d + pad_shift for d in defects)
            for route in self._routes(self._graph(kind), graph_defects):
                tag = route[0]
                if tag == "pair":
                    _, i, j, route_parity = route
                    a, b = defects[i], defects[j]
                    if commit_line is None or (
                        max(a, b) < commit_line or min(a, b) < floor
                    ):
                        parity ^= route_parity
                    else:
                        deferred.extend((a, b))
                elif tag == "boundary":
                    _, i, route_parity = route
                    if commit_line is None or defects[i] < commit_line:
                        parity ^= route_parity
                    else:
                        deferred.append(defects[i])
                else:  # dangle: no route exists either way
                    _, i = route
                    if commit_line is not None and defects[i] >= commit_line:
                        deferred.append(defects[i])
        shift = 0 if commit_line is None else (
            self.config.commit * self.layer_width
        )
        result = (parity, tuple(d - shift for d in sorted(deferred)))
        memo[defects] = result
        if len(memo) > self.memo_size:
            memo.popitem(last=False)
        return result


class WindowStream:
    """One logical stream's decoding state (create via ``open_stream``).

    Detector layers arrive through :meth:`push` — any whole number of
    layers at a time, for all ``shots`` of the stream at once — and
    windows advance automatically as soon as a window provably is not
    the stream's last (``window + 1`` layers buffered).  :meth:`finish`
    decodes whatever remains as the final window and returns the
    stream's observable predictions.

    Memory high-water marks are exposed for the bounded-memory
    guarantee: the buffer never holds more than ``window + commit``
    layers (:attr:`max_buffered_layers`), independent of stream length.
    """

    def __init__(self, decoder: SlidingWindowDecoder, shots: int) -> None:
        self._decoder = decoder
        self.shots = shots
        self._layers: list[np.ndarray] = []
        self._parity = np.zeros(shots, dtype=np.uint8)
        self._deferred: list[tuple[int, ...]] = [()] * shots
        #: Local layer index from which buffered raw data is still
        #: authoritative; below it the deferred defect sets supersede
        #: the buffer (committed routes already explained the rest).
        self._fresh_from = 0
        self.windows_processed = 0
        self.layers_seen = 0
        self.max_buffered_layers = 0
        self._finished = False

    # -- ingestion ------------------------------------------------------
    def push(self, chunk: np.ndarray | PackedBits) -> None:
        """Append whole detector layers (``(shots, k*G)`` or bitplane)."""
        if self._finished:
            raise RuntimeError("stream already finished")
        rows = _as_shot_rows(chunk)
        if rows.shape[0] != self.shots:
            raise ValueError(
                f"chunk carries {rows.shape[0]} shots, stream expects "
                f"{self.shots}"
            )
        width = self._decoder.layer_width
        if rows.shape[1] % width:
            raise ValueError(
                f"chunk width {rows.shape[1]} is not a whole number of "
                f"detector layers (layer width {width})"
            )
        for offset in range(0, rows.shape[1], width):
            self._layers.append(
                np.ascontiguousarray(rows[:, offset : offset + width])
            )
        self.layers_seen += rows.shape[1] // width
        self.max_buffered_layers = max(
            self.max_buffered_layers, len(self._layers)
        )
        window = self._decoder.config.window
        # A window is matched only once window + 1 layers are buffered —
        # proof it is not the stream's final window (which needs the
        # final-measurement graph instead).
        while len(self._layers) > window:
            self._advance()

    def _advance(self) -> None:
        decoder = self._decoder
        config = decoder.config
        width = decoder.layer_width
        lo = self.windows_processed * config.commit  # global start layer
        if self.windows_processed == 0:
            kind: object = "first"
        elif lo <= decoder.pad:
            kind = ("head", lo)
        else:
            kind = "bulk"
        # A deferred defect shifts down by ``commit`` layers; it may
        # not recede past the next window's pad.
        next_pad = min(decoder.pad, lo + config.commit)
        floor = (config.commit - next_pad) * width
        self._consume(kind, config.window, config.commit * width, floor)
        del self._layers[: config.commit]
        self._fresh_from = config.window - config.commit
        self.windows_processed += 1

    def _consume(
        self,
        kind: object,
        num_layers: int,
        commit_line: int | None,
        floor: int = 0,
    ) -> None:
        """Match one window over all shots, folding in its outcome."""
        decoder = self._decoder
        for shot, defects in enumerate(
            self._merged_defects(num_layers)
        ):
            if defects:
                parity, deferred = decoder._process(
                    kind, defects, commit_line, floor
                )
                self._parity[shot] ^= parity
                self._deferred[shot] = deferred
            else:
                self._deferred[shot] = ()

    def _merged_defects(self, num_layers: int) -> list[tuple[int, ...]]:
        """Per-shot window defect sets: deferred ∪ fresh raw defects.

        Deferred defects live below ``_fresh_from`` layers (the overlap
        region, superseded raw data), fresh defects at or above it, so
        concatenation is already sorted.  Fresh extraction is one
        ``np.nonzero`` over the stacked fresh layers plus a bincount
        split, the same vector shape ``decode/base.py`` uses.
        """
        width = self._decoder.layer_width
        fresh = min(self._fresh_from, num_layers)
        if fresh >= num_layers:
            fresh_sets: list[list[int]] = [[]] * self.shots
        else:
            data = (
                self._layers[fresh]
                if num_layers - fresh == 1
                else np.concatenate(
                    self._layers[fresh:num_layers], axis=1
                )
            )
            shot_ids, cols = np.nonzero(data)
            bounds = np.zeros(self.shots + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(shot_ids, minlength=self.shots),
                out=bounds[1:],
            )
            flat = (cols + fresh * width).tolist()
            fresh_sets = [
                flat[lo:hi]
                for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)
            ]
        return [
            (*held, *new) if held else tuple(new)
            for held, new in zip(self._deferred, fresh_sets, strict=True)
        ]

    # -- completion -----------------------------------------------------
    def finish(self) -> np.ndarray:
        """Decode the final window and return per-shot predictions.

        A stream that never advanced a window (no more than ``window``
        layers in total) skips the windowing machinery entirely: its
        buffered record *is* the whole history, which the exact
        fallback decoder for that round count handles — initialisation
        layer and all — through the ordinary batch path (and the
        forked pool, when the shared decoder was built with
        ``workers``).
        """
        if self._finished:
            raise RuntimeError("stream already finished")
        self._finished = True
        remaining = len(self._layers)
        if self.windows_processed == 0:
            if remaining < 2:
                raise ValueError(
                    "a stream needs at least 2 detector layers (one "
                    "round plus the final measurement)"
                )
            decoder = self._decoder._whole_history(remaining)
            data = np.concatenate(self._layers, axis=1)
            self._parity ^= decoder.decode_batch(
                data, workers=self._decoder.workers
            )
        else:
            lo = self.windows_processed * self._decoder.config.commit
            kind: object = (
                ("final_exact", lo, remaining)
                if lo <= self._decoder.pad
                else ("final", remaining)
            )
            self._consume(kind, remaining, None)
        self._layers.clear()
        return self._parity


def _as_shot_rows(samples: np.ndarray | PackedBits) -> np.ndarray:
    """Canonicalise stream input to ``(shots, detectors)`` uint8 rows.

    Packed bitplanes arrive in the sampler's wire format (rows =
    detectors, bits = shots) and are transposed through the bitplane's
    memoised packed transpose before unpacking.
    """
    if isinstance(samples, PackedBits):
        return samples.transposed().unpack()
    rows = np.asarray(samples, dtype=np.uint8)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.ndim != 2:
        raise ValueError(
            f"detector samples must be 2-D (shots, detectors), got "
            f"shape {rows.shape}"
        )
    return rows
