"""Tests for the MWPM decoder and decoding graph."""

import itertools
import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro.decode import MatchingDecoder
from repro.decode.graph import BOUNDARY, DecodingGraph
from repro.sim import NoiseModel, build_dem, memory_circuit, sample_detectors
from repro.sim.dem import DetectorErrorModel, ErrorMechanism
from repro.surface import rotated_surface_code


def toy_dem():
    """A 3-detector chain: boundary - d0 - d1 - d2 - boundary."""
    mechanisms = [
        ErrorMechanism(0.01, (0,), True),
        ErrorMechanism(0.01, (0, 1), False),
        ErrorMechanism(0.01, (1, 2), False),
        ErrorMechanism(0.01, (2,), False),
    ]
    return DetectorErrorModel(mechanisms, num_detectors=3, num_observables=1)


class TestDecodingGraph:
    def test_nodes_and_boundary(self):
        g = DecodingGraph(toy_dem())
        assert BOUNDARY in g.graph
        assert g.graph.number_of_edges() == 4

    def test_parallel_edges_merge(self):
        dem = DetectorErrorModel(
            [ErrorMechanism(0.01, (0, 1), False), ErrorMechanism(0.02, (0, 1), True)],
            num_detectors=2,
            num_observables=1,
        )
        g = DecodingGraph(dem)
        assert g.graph.number_of_edges() == 1
        p = g.graph[0][1]["probability"]
        assert p == pytest.approx(0.01 * 0.98 + 0.02 * 0.99)

    def test_observable_parity_along_path(self):
        g = DecodingGraph(toy_dem())
        assert g.path_observable_parity([BOUNDARY, 0]) == 1
        assert g.path_observable_parity([0, 1, 2]) == 0


class TestMatchingDecoder:
    def test_empty_syndrome(self):
        dec = MatchingDecoder(toy_dem())
        assert dec.decode(np.zeros(3, dtype=np.uint8)) == 0

    def test_single_defect_matches_to_boundary(self):
        dec = MatchingDecoder(toy_dem())
        # Defect at detector 0: nearest boundary path crosses the
        # observable edge.
        assert dec.decode(np.array([1, 0, 0])) == 1
        # Defect at detector 2: boundary on the other side, no flip.
        assert dec.decode(np.array([0, 0, 1])) == 0

    def test_pair_matches_internally(self):
        dec = MatchingDecoder(toy_dem())
        assert dec.decode(np.array([1, 1, 0])) == 0

    def test_greedy_agrees_on_simple_cases(self):
        exact = MatchingDecoder(toy_dem())
        greedy = MatchingDecoder(toy_dem(), method="greedy")
        for syndrome in ([1, 0, 0], [0, 1, 1], [1, 1, 1], [0, 0, 0]):
            s = np.array(syndrome)
            assert exact.decode(s) == greedy.decode(s)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            MatchingDecoder(toy_dem(), method="magic")

    def test_decode_batch_shape(self):
        dec = MatchingDecoder(toy_dem())
        out = dec.decode_batch(np.zeros((5, 3), dtype=np.uint8))
        assert out.shape == (5,)


class TestEndToEndDecoding:
    def test_distance_scaling(self):
        """d=5 must beat d=3 at p well below threshold."""
        rates = {}
        for d in (3, 5):
            patch = rotated_surface_code(d)
            c = memory_circuit(patch.code, "Z", d, NoiseModel.uniform(3e-3))
            dem = build_dem(c)
            dec = MatchingDecoder(dem)
            det, obs = sample_detectors(c, 4000, seed=3)
            rates[d] = dec.logical_error_rate(det, obs)
        assert rates[5] < rates[3]

    def test_decoder_beats_majority_noise(self):
        """At low p the decoder corrects nearly everything."""
        patch = rotated_surface_code(3)
        c = memory_circuit(patch.code, "Z", 3, NoiseModel.uniform(1e-3))
        dem = build_dem(c)
        dec = MatchingDecoder(dem)
        det, obs = sample_detectors(c, 2000, seed=5)
        raw_flip_rate = (obs.sum(axis=1) % 2).mean()
        assert dec.logical_error_rate(det, obs) <= raw_flip_rate + 1e-9

    def test_x_memory_symmetric(self):
        patch = rotated_surface_code(3)
        c = memory_circuit(patch.code, "X", 3, NoiseModel.uniform(3e-3))
        dem = build_dem(c)
        dec = MatchingDecoder(dem)
        det, obs = sample_detectors(c, 2000, seed=6)
        assert dec.logical_error_rate(det, obs) < 0.05


class EvictOnGet(OrderedDict):
    """A memo whose ``get`` hands out the value and then loses the key.

    That is what a shared memo looks like when another thread's
    ``popitem`` lands between this thread's ``get`` and ``move_to_end``.
    """

    def get(self, key, default=None):
        value = super().get(key, default)
        self.pop(key, None)
        return value


class TestMemoEvictionRace:
    """A hit whose key is evicted before ``move_to_end`` still answers."""

    def test_single_syndrome_hit(self):
        decoder = MatchingDecoder(toy_dem())
        sample = np.array([1, 0, 0], dtype=np.uint8)
        expected = decoder.decode(sample)
        decoder._cache = EvictOnGet({(0,): expected})
        hits = decoder.cache_hits
        assert decoder.decode(sample) == expected
        assert decoder.cache_hits == hits + 1

    def test_batch_hit(self):
        decoder = MatchingDecoder(toy_dem())
        rows = np.array([[1, 0, 0], [0, 1, 1]], dtype=np.uint8)
        expected = decoder.decode_batch(rows)
        decoder._cache = EvictOnGet(
            {(0,): int(expected[0]), (1, 2): int(expected[1])}
        )
        hits = decoder.cache_hits
        assert np.array_equal(decoder.decode_batch(rows), expected)
        assert decoder.cache_hits == hits + 2

    def test_threads_share_a_tiny_cache(self):
        """Four threads on one decoder with a two-entry LRU: every hit
        races an eviction, and every answer must still be right."""
        samples = [
            np.array(bits, dtype=np.uint8)
            for bits in itertools.product([0, 1], repeat=3)
        ]
        reference = MatchingDecoder(toy_dem(), cache_size=0)
        expected = [reference.decode(s) for s in samples]
        decoder = MatchingDecoder(toy_dem(), cache_size=2)
        errors: list = []

        def work(stride: int) -> None:
            try:
                for i in range(3000):
                    j = (i * stride) % len(samples)
                    if decoder.decode(samples[j]) != expected[j]:
                        errors.append(("wrong", j))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(k,)) for k in (1, 2, 3, 5)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

