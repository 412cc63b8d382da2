"""Sliding-window decoding: whole-history agreement, bounded memory.

The agreement suite pins the module docstring's guarantee — committed
predictions match whole-history dense matching bit for bit whenever the
optimum is unique — over a grid of window geometries with overlap
``window - commit >= 2``, both bases, defective circuits, and the
acceptance configuration (a 100-round d=5 stream through a 10/5
window).  The bounded-memory suite pins the *mechanism*: every matching
graph stays within ``(window + pad) x G`` detectors and the stream
buffer within ``window + 1`` layers no matter how many rounds flow
through.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.decode import (
    MatchingDecoder,
    SlidingWindowDecoder,
    WindowConfig,
    WindowStream,
)
from repro.sim import NoiseModel, build_dem, memory_circuit, sample_detectors
from repro.surface import rotated_surface_code

NOISE_P = 1e-3


def _case(d, basis, rounds, *, p=NOISE_P, defective_data=None,
          defective_ancillas=None):
    """(code, noise, circuit) of one memory-experiment configuration."""
    code = rotated_surface_code(d).code
    noise = NoiseModel.uniform(p)
    circuit = memory_circuit(
        code, basis, rounds, noise,
        defective_data=defective_data,
        defective_ancillas=defective_ancillas,
    )
    return code, noise, circuit


def _whole_history_reference(circuit, rows):
    return MatchingDecoder(
        build_dem(circuit), matcher="dense"
    ).decode_batch(rows)


def _rows(circuit, shots, seed):
    det, _ = sample_detectors(circuit, shots, seed=seed, output="packed")
    return det.transposed().unpack()


class TestAgreement:
    @pytest.mark.parametrize(
        "window,commit", [(10, 5), (6, 2), (8, 6), (5, 3)]
    )
    def test_d3_z_geometry_grid(self, window, commit):
        code, noise, circuit = _case(3, "Z", 21)
        win = SlidingWindowDecoder(
            code, "Z", noise, config=WindowConfig(window=window, commit=commit)
        )
        for seed in range(20, 29):
            rows = _rows(circuit, 64, seed)
            np.testing.assert_array_equal(
                win.decode_batch(rows),
                _whole_history_reference(circuit, rows),
                err_msg=f"seed={seed} window={window} commit={commit}",
            )

    def test_d3_x_basis(self):
        code, noise, circuit = _case(3, "X", 17)
        win = SlidingWindowDecoder(
            code, "X", noise, config=WindowConfig(window=7, commit=3)
        )
        for seed in range(20, 26):
            rows = _rows(circuit, 64, seed)
            np.testing.assert_array_equal(
                win.decode_batch(rows),
                _whole_history_reference(circuit, rows),
                err_msg=f"seed={seed}",
            )

    def test_d5_acceptance_100_rounds(self):
        """The acceptance case: 100-round d=5 stream, 10/5 window."""
        code, noise, circuit = _case(5, "Z", 100)
        win = SlidingWindowDecoder(
            code, "Z", noise, config=WindowConfig(window=10, commit=5)
        )
        rows = _rows(circuit, 48, 33)
        np.testing.assert_array_equal(
            win.decode_batch(rows),
            _whole_history_reference(circuit, rows),
        )

    def test_d5_defective_circuit(self):
        """Windowing composes with the paper's defect injection."""
        code, noise, circuit = _case(
            5, "Z", 23, defective_data={7, 18}, defective_ancillas={5}
        )
        win = SlidingWindowDecoder(
            code, "Z", noise,
            config=WindowConfig(window=10, commit=5),
            defective_data={7, 18},
            defective_ancillas={5},
        )
        for seed in (33, 34, 35):
            rows = _rows(circuit, 48, seed)
            np.testing.assert_array_equal(
                win.decode_batch(rows),
                _whole_history_reference(circuit, rows),
                err_msg=f"seed={seed}",
            )

    def test_short_stream_falls_back_to_exact(self):
        """A stream no longer than one window is decoded exactly."""
        code, noise, circuit = _case(3, "Z", 4)
        win = SlidingWindowDecoder(
            code, "Z", noise, config=WindowConfig(window=8, commit=4)
        )
        rows = _rows(circuit, 64, 11)
        stream = win.open_stream(len(rows))
        stream.push(rows)
        predictions = stream.finish()
        assert stream.windows_processed == 0
        np.testing.assert_array_equal(
            predictions, _whole_history_reference(circuit, rows)
        )

    def test_chunked_push_matches_one_shot(self):
        """Layer-at-a-time ingestion equals whole-record ingestion."""
        code, noise, circuit = _case(3, "Z", 30)
        win = SlidingWindowDecoder(
            code, "Z", noise, config=WindowConfig(window=10, commit=5)
        )
        rows = _rows(circuit, 64, 3)
        whole = win.decode_batch(rows)
        G = win.layer_width
        stream = win.open_stream(len(rows))
        for lo in range(0, rows.shape[1], G):
            stream.push(rows[:, lo : lo + G])
        np.testing.assert_array_equal(stream.finish(), whole)

    def test_packed_input_matches_rows(self):
        code, noise, circuit = _case(3, "Z", 21)
        win = SlidingWindowDecoder(
            code, "Z", noise, config=WindowConfig(window=10, commit=5)
        )
        det, _ = sample_detectors(circuit, 64, seed=5, output="packed")
        rows = det.transposed().unpack()
        np.testing.assert_array_equal(
            win.decode_batch(det), win.decode_batch(rows)
        )


class TestBoundedMemory:
    def test_buffer_and_graphs_stay_bounded(self):
        """Memory never grows with stream length (the service's bedrock)."""
        code, noise, circuit = _case(5, "Z", 100)
        config = WindowConfig(window=10, commit=5)
        win = SlidingWindowDecoder(code, "Z", noise, config=config)
        rows = _rows(circuit, 16, 33)
        G = win.layer_width
        stream = win.open_stream(len(rows))
        for lo in range(0, rows.shape[1], G):
            stream.push(rows[:, lo : lo + G])
        stream.finish()
        assert stream.max_buffered_layers <= config.window + 1
        bound = (config.window + win.pad) * G
        sizes = win.built_graph_sizes()
        assert sizes
        assert all(size <= bound for size in sizes.values())

    def test_oversized_window_is_rejected_up_front(self):
        code, noise, _ = _case(3, "Z", 3)
        with pytest.raises(ValueError, match="matrix limit"):
            SlidingWindowDecoder(
                code, "Z", noise,
                config=WindowConfig(window=1500, commit=5),
            )


class TestValidation:
    def test_window_config_bounds(self):
        with pytest.raises(ValueError, match="at least 2"):
            WindowConfig(window=1, commit=1)
        with pytest.raises(ValueError, match="commit"):
            WindowConfig(window=5, commit=0)
        with pytest.raises(ValueError, match="commit"):
            WindowConfig(window=5, commit=5)

    def test_stream_input_validation(self):
        code, noise, circuit = _case(3, "Z", 5)
        win = SlidingWindowDecoder(code, "Z", noise)
        with pytest.raises(ValueError, match="positive"):
            win.open_stream(0)
        rows = _rows(circuit, 8, 1)
        stream = win.open_stream(8)
        with pytest.raises(ValueError, match="shots"):
            stream.push(rows[:4])
        with pytest.raises(ValueError, match="whole number"):
            stream.push(rows[:, : win.layer_width + 1])

    def test_finish_is_terminal(self):
        code, noise, circuit = _case(3, "Z", 5)
        win = SlidingWindowDecoder(code, "Z", noise)
        rows = _rows(circuit, 8, 1)
        stream = win.open_stream(8)
        stream.push(rows)
        stream.finish()
        with pytest.raises(RuntimeError, match="finished"):
            stream.finish()
        with pytest.raises(RuntimeError, match="finished"):
            stream.push(rows)

    def test_too_short_stream_is_rejected(self):
        code, noise, circuit = _case(3, "Z", 5)
        win = SlidingWindowDecoder(code, "Z", noise)
        stream = win.open_stream(4)
        stream.push(_rows(circuit, 4, 1)[:, : win.layer_width])
        with pytest.raises(ValueError, match="at least 2 detector layers"):
            stream.finish()

    def test_no_same_basis_stabilizers_is_rejected(self):
        code = rotated_surface_code(3).code
        noise = NoiseModel.uniform(NOISE_P)
        broken = type(code).__new__(type(code))
        broken.__dict__.update(code.__dict__)
        broken.stabilizers = {
            k: g for k, g in code.stabilizers.items() if g.basis == "Z"
        }
        with pytest.raises(ValueError, match="no X-basis"):
            SlidingWindowDecoder(broken, "X", noise)

    def test_stream_types_exported(self):
        stream = SlidingWindowDecoder(
            rotated_surface_code(3).code, "Z", NoiseModel.uniform(NOISE_P)
        ).open_stream(1)
        assert isinstance(stream, WindowStream)


class TestMemoEvictionRace:
    def test_hit_survives_eviction_before_move_to_end(self):
        """Another session's ``popitem`` between ``get`` and
        ``move_to_end`` must not turn a memo hit into ``KeyError``."""

        class EvictOnGet(OrderedDict):
            def get(self, key, default=None):
                value = super().get(key, default)
                self.pop(key, None)
                return value

        code, noise, _ = _case(3, "Z", 12)
        win = SlidingWindowDecoder(code, "Z", noise)
        outcome = (1, (4,))
        win._memos["bulk"] = EvictOnGet({(3, 9): outcome})
        assert win._process("bulk", (3, 9), commit_line=8, floor=0) == outcome
