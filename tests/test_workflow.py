import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasekit.inference import InferenceTrace
from phasekit.logits import LogitSequence
from phasekit.workflow import (
    PhaseTimeline,
    TransitionPair,
    all_transition_pairs,
    load_timelines,
    pair_for_phase,
    save_timelines,
    segment_boundaries,
)


class TestPhaseLabel:
    """A phase label is an integer in [1, 7]; a pair built from one outside
    the range is rejected, whichever way it is built."""

    @pytest.mark.parametrize("bad", [0, 8, -1, 100])
    def test_out_of_range_rejected(self, bad):
        message = re.escape(f"phase index must be in [1, 7], got {bad}")
        with pytest.raises(ValueError, match=message):
            pair_for_phase(bad)
        with pytest.raises(ValueError, match=message):
            TransitionPair(bad, bad + 1)


class TestTransitionPair:
    def test_exactly_six_pairs(self):
        pairs = all_transition_pairs()
        assert len(pairs) == 6
        assert pairs[0] == TransitionPair(1, 2)
        assert pairs[-1] == TransitionPair(6, 7)

    @pytest.mark.parametrize("low,high", [(1, 3), (2, 2), (7, 8), (0, 1), (3, 2)])
    def test_non_neighbors_rejected(self, low, high):
        with pytest.raises(ValueError):
            TransitionPair(low, high)


class TestPairForPhase:
    def test_phase_one(self):
        assert pair_for_phase(1) == TransitionPair(1, 2)

    def test_final_phase_reuses_last_pair(self):
        assert pair_for_phase(7) == TransitionPair(6, 7)

    def test_interior_phase(self):
        assert pair_for_phase(4) == TransitionPair(4, 5)

    @given(st.integers(min_value=1, max_value=7))
    def test_pair_brackets_phase(self, p):
        pair = pair_for_phase(p)
        assert pair.low <= p <= pair.high


class TestPhaseTimeline:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PhaseTimeline("v", [])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PhaseTimeline("v", [1, 2, 9])

    def test_labels_read_only(self):
        t = PhaseTimeline("v", [1, 2, 3])
        with pytest.raises(ValueError):
            t.labels[0] = 5


# Each container, and fresh writable arrays for the array fields of a valid one.
CONTAINERS = {
    "timeline": (PhaseTimeline, lambda: {"labels": np.array([1, 1, 2, 3])}),
    "logits": (LogitSequence, lambda: {"logits": np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]),
                                       "labels": np.array([1, 1, 2, 2])}),
    "trace": (InferenceTrace, lambda: {
        "model": np.array([0, 1, 1, 0]), "state": np.array([1, 1, 2, 3]),
        "confidence": np.array([0.9, 0.4, 0.3, 0.8]), "has_confidence": np.ones(4, dtype=bool),
        "prediction": np.array([1, 2, 2, 3]),
    }),
}
OTHER_DTYPE = {np.dtype(np.int64): np.int32, np.dtype(np.float64): np.float32, np.dtype(bool): np.uint8}


@pytest.mark.parametrize("kind", CONTAINERS)
class TestContainerArrays:
    """A container keeps an input that is a read-only array of its dtype and
    owns its data, so that containers share it; it stores a read-only copy
    of any other input."""

    def test_read_only_owned_array_is_kept(self, kind):
        cls, columns = CONTAINERS[kind]
        arrays = columns()
        for a in arrays.values():
            a.flags.writeable = False
        held = cls("v", **arrays)
        for name, a in arrays.items():
            assert getattr(held, name) is a, name

    def test_writable_array_is_copied(self, kind):
        cls, columns = CONTAINERS[kind]
        arrays = columns()
        held = cls("v", **arrays)
        stored = {name: getattr(held, name).copy() for name in arrays}
        for a in arrays.values():
            a.flat[0] = 0 if a.flat[0] else 1
        for name in arrays:
            assert np.array_equal(getattr(held, name), stored[name]), name
            assert not getattr(held, name).flags.writeable, name

    @pytest.mark.parametrize("change", ["view", "buffer", "dtype"])
    def test_read_only_view_or_other_dtype_is_copied(self, kind, change):
        cls, columns = CONTAINERS[kind]
        arrays = columns()
        inputs = {}
        for name, a in arrays.items():
            if change == "view":  # a read-only view of a writable base
                inputs[name] = a.view()
            elif change == "buffer":
                inputs[name] = np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape)
            else:
                inputs[name] = a.astype(OTHER_DTYPE[a.dtype])
            inputs[name].flags.writeable = False
        held = cls("v", **inputs)
        for name, a in arrays.items():
            stored = getattr(held, name)
            assert stored is not inputs[name] and not np.shares_memory(stored, a), name
            assert stored.dtype == a.dtype and not stored.flags.writeable, name
            assert np.array_equal(stored, inputs[name]), name


class TestSegmentBoundaries:
    def test_single_change_point(self):
        t = PhaseTimeline("v", [1, 1, 2, 2])
        assert segment_boundaries(t) == [(2, 1, 2)]

    def test_constant_timeline(self):
        assert segment_boundaries(PhaseTimeline("v", [3, 3, 3])) == []

    def test_two_change_points(self):
        t = PhaseTimeline("v", [1, 2, 1])
        assert segment_boundaries(t) == [(1, 1, 2), (2, 2, 1)]

    @given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=60))
    def test_count_matches_adjacent_unequal_pairs(self, labels):
        t = PhaseTimeline("v", labels)
        expected = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
        assert len(segment_boundaries(t)) == expected


class TestTimelineIO:
    def test_round_trip(self, tmp_path):
        t1 = PhaseTimeline("a", [1, 1, 2, 7])
        t2 = PhaseTimeline("b", [3, 3])
        path = tmp_path / "gt.csv"
        save_timelines([t1, t2], path)
        loaded = load_timelines(path)
        assert set(loaded) == {"a", "b"}
        assert np.array_equal(loaded["a"].labels, t1.labels)
        assert np.array_equal(loaded["b"].labels, t2.labels)

    def test_header_required(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("a,0,1\n")
        with pytest.raises(ValueError, match="header"):
            load_timelines(path)

    def test_error_names_line_number(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("video_id,frame_idx,phase\na,0,1\na,1,banana\n")
        with pytest.raises(ValueError, match=":3:"):
            load_timelines(path)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("# comment\nvideo_id,frame_idx,phase\n# another\na,0,4\n")
        assert np.array_equal(load_timelines(path)["a"].labels, [4])

    def test_empty_data_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("video_id,frame_idx,phase\n")
        with pytest.raises(ValueError, match="no frames"):
            load_timelines(path)
