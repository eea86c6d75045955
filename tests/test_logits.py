import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import oracle_softmax
from phasekit.logits import (
    LogitSequence,
    TransitionLogitBank,
    argmax_confidence_rows,
    load_bank,
    load_logits,
    save_bank,
    save_logits,
    softmax,
)
from phasekit.workflow import TransitionPair, all_transition_pairs

finite_logits = st.lists(
    st.floats(min_value=-30, max_value=30, allow_nan=False), min_size=2, max_size=9
)


class TestSoftmax:
    def test_uniform_on_constant_input(self):
        for k in (2, 5, 7):
            p = softmax([3.25] * k, temperature=0.7)
            assert np.allclose(p, 1.0 / k, atol=1e-15)

    def test_two_class_closed_form(self):
        p = softmax([2.0, 0.0])
        expected = math.exp(2) / (math.exp(2) + 1)
        assert abs(p[0] - expected) < 1e-15
        assert abs(p[1] - (1 - expected)) < 1e-15

    def test_temperature_two_halves_logits(self):
        p = softmax([2.0, 0.0], temperature=2.0)
        expected = softmax([1.0, 0.0])
        assert np.allclose(p, expected, atol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = rng.normal(scale=5, size=rng.integers(2, 8))
            t = float(rng.uniform(0.2, 5))
            assert np.allclose(softmax(z, t), oracle_softmax(z, t), atol=1e-12)

    @given(finite_logits, st.floats(min_value=0.05, max_value=20), st.floats(min_value=-100, max_value=100))
    def test_shift_invariance(self, z, t, c):
        base = softmax(z, t)
        shifted = softmax(np.asarray(z) + c, t)
        assert np.abs(base - shifted).max() < 1e-12

    @given(finite_logits, st.floats(min_value=0.05, max_value=20))
    def test_temperature_equals_prescaling(self, z, t):
        assert np.abs(softmax(z, t) - softmax(np.asarray(z) / t, 1.0)).max() < 1e-12

    @given(finite_logits, st.floats(min_value=0.2, max_value=20))
    def test_rows_are_probabilities(self, z, t):
        # scaled gaps stay below ~300 so no entry underflows to exactly 0
        p = softmax(z, t)
        assert np.all(p > 0)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_stability_for_large_inputs(self):
        p = softmax([1e4, 1e4 + 1, 1e4 + 2])
        assert np.all(np.isfinite(p)) and abs(p.sum() - 1) < 1e-12

    @pytest.mark.parametrize("bad_t", [0.0, -1.0, math.nan, math.inf])
    def test_bad_temperature_rejected(self, bad_t):
        with pytest.raises(ValueError):
            softmax([1.0, 2.0], bad_t)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            softmax([1.0, math.nan])
        with pytest.raises(ValueError):
            softmax([1.0, math.inf])

    @pytest.mark.parametrize("z", [[[1.0, 2.0]], [[0.0, 0.0], [1.0, 2.0]], [[-2.0, -3.0]]],
                             ids=["max_overflows", "second_row", "every_entry_overflows_low"])
    def test_overflowing_scaled_maximum_rejected_without_warning(self, z):
        """A row whose z / t maximum is infinite would give NaN (inf - inf);
        both kernels raise instead, and numpy warns of nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kernel in (softmax, argmax_confidence_rows):
                with pytest.raises(ValueError, match=r"^softmax is not finite at temperature 1e-308: "
                                                     r"the scaled logits overflow$"):
                    kernel(z, 1e-308)

    def test_scores_far_below_the_maximum_still_give_zero(self):
        """An entry whose z / t overflows to -inf under a finite maximum is exp(-inf) = 0, not an error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert softmax([0.0, -1e300], 1e-10).tolist() == [1.0, 0.0]
            classes, confs = argmax_confidence_rows([[0.0, -1e300]], 1e-10)
        assert classes.tolist() == [1] and confs.tolist() == [1.0]


def argmax_confidence(z, temperature=1.0):
    """argmax_confidence_rows on a one-row input: (class, confidence)."""
    classes, confs = argmax_confidence_rows([z], temperature)
    return int(classes[0]), float(confs[0])


class TestArgmaxConfidence:
    def test_uniform_tie_breaks_to_first_class(self):
        cls, conf = argmax_confidence([0.0, 0.0, 0.0])
        assert cls == 1
        assert abs(conf - 1 / 3) < 1e-15

    def test_known_two_class_case(self):
        cls, conf = argmax_confidence([2.0, 0.0])
        assert cls == 1
        assert abs(conf - 0.8807970779778823) < 1e-12

    def test_argmax_invariant_to_temperature(self):
        cls_hot, conf_hot = argmax_confidence([0.0, 5.0, 1.0], temperature=10.0)
        cls_cold, _ = argmax_confidence([0.0, 5.0, 1.0], temperature=1.0)
        assert cls_hot == cls_cold == 2
        assert conf_hot == pytest.approx(float(softmax([0.0, 5.0, 1.0], 10.0)[1]))

    @given(
        st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=9),
        st.floats(min_value=0.5, max_value=20),
    )
    def test_confidence_bounds(self, z, t):
        # ranges keep the scaled logit gap below ~20 so the strict conf < 1
        # bound stays representable in float64
        cls, conf = argmax_confidence(z, t)
        k = len(z)
        assert 1 <= cls <= k
        assert 1 / k - 1e-12 <= conf < 1.0

    @given(st.data(), st.integers(1, 30), st.integers(2, 9),
           st.sampled_from([1e-200, 1e-30, 1.0]) | st.floats(1e-3, 1e3))
    def test_confidence_is_softmax_at_the_argmax_bit_for_bit(self, data, n, k, t):
        """Ties, signed zeros, subnormals and logits whose z / t overflows
        included; where softmax raises, so does argmax_confidence_rows, with
        the same message."""
        cells = st.sampled_from([0.0, -0.0, 1.0, -3.5, 5e-324, 1e300, -1e300]) | st.floats(-1e6, 1e6)
        z = np.array(data.draw(st.lists(st.lists(cells, min_size=k, max_size=k), min_size=n, max_size=n)))
        try:
            probs = softmax(z, t)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                argmax_confidence_rows(z, t)
            return
        classes, confs = argmax_confidence_rows(z, t)
        idx = np.argmax(z, axis=1)
        assert np.array_equal(classes, idx + 1)
        assert np.array_equal(confs, probs[np.arange(n), idx], equal_nan=True)

    @given(st.data(), st.integers(1, 12), st.integers(2, 12), st.floats(0.05, 20))
    def test_layout_of_the_logits_leaves_the_bits(self, data, n, k, t):
        """Row-major and column-major logits (as simulated and as loaded)
        give the same bits, also from K = 8, where numpy sums a contiguous
        row in pairwise blocks."""
        z = np.array(data.draw(st.lists(st.lists(st.floats(-60, 60), min_size=k, max_size=k), min_size=n, max_size=n)))
        f = np.asfortranarray(z)
        for by_rows, by_columns in ((softmax(z, t), softmax(f, t)),
                                    *zip(argmax_confidence_rows(z, t), argmax_confidence_rows(f, t))):
            assert by_rows.tobytes() == by_columns.tobytes()

    @given(finite_logits)
    def test_class_stable_across_temperatures(self, z):
        cls1, _ = argmax_confidence(z, 1.0)
        cls2, _ = argmax_confidence(z, 17.3)
        assert cls1 == cls2


class TestLogitSequence:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LogitSequence("v", [[1.0, math.inf]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LogitSequence("v", np.empty((0, 7)))

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            LogitSequence("v", [[1.0]])

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            LogitSequence("v", [[1.0, 2.0]], labels=[1, 2])


class TestLogitIO:
    def test_round_trip_is_value_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        z = rng.normal(scale=50, size=(3, 7)) * np.exp(rng.uniform(-20, 20, size=(3, 7)))
        seq = LogitSequence("v1", z, labels=[1, 4, 7])
        path = tmp_path / "logits.csv"
        save_logits(seq, path)
        loaded = load_logits(path)["v1"]
        assert np.array_equal(loaded.logits, seq.logits)
        assert np.array_equal(loaded.labels, seq.labels)

    def test_unlabeled_round_trip(self, tmp_path):
        seq = LogitSequence("v", [[0.5, -0.5]])
        path = tmp_path / "logits.csv"
        save_logits(seq, path)
        assert load_logits(path)["v"].labels is None

    def test_multi_video_file(self, tmp_path):
        a = LogitSequence("a", [[1.0, 2.0]], labels=[2])
        b = LogitSequence("b", [[3.0, 4.0], [5.0, 6.0]], labels=[1, 2])
        path = tmp_path / "logits.csv"
        save_logits([a, b], path)
        loaded = load_logits(path)
        assert set(loaded) == {"a", "b"}
        assert loaded["b"].num_frames == 2

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "logits.csv"
        lines = ["video_id,frame_idx,label," + ",".join(f"z{i}" for i in range(1, 8))]
        lines.append("v,0,1," + ",".join("0.0" for _ in range(7)))
        lines.append("v,1,1," + ",".join("0.0" for _ in range(6)))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":3:"):
            load_logits(path)

    def test_non_numeric_entry_names_line(self, tmp_path):
        path = tmp_path / "logits.csv"
        path.write_text("video_id,frame_idx,label,z1,z2\nv,0,1,0.5,oops\n")
        with pytest.raises(ValueError, match=":2:"):
            load_logits(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_entry_names_line(self, tmp_path, bad):
        path = tmp_path / "logits.csv"
        path.write_text(f"video_id,frame_idx,label,z1,z2\nv,0,1,0.5,0.1\nv,1,1,{bad},0.1\n")
        with pytest.raises(ValueError, match=":3: non-finite"):
            load_logits(path)

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "logits.csv"
        path.write_text("video_id,frame_idx,label,z1,z2\n")
        with pytest.raises(ValueError, match="no frames"):
            load_logits(path)

    @given(
        rows=st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=3, max_size=3),
            min_size=1,
            max_size=20,
        )
    )
    def test_round_trip_property(self, rows, tmp_path_factory):
        path = tmp_path_factory.mktemp("io") / "logits.csv"
        seq = LogitSequence("v", np.array(rows, dtype=np.float64))
        save_logits(seq, path)
        assert np.array_equal(load_logits(path)["v"].logits, seq.logits)


class TestBank:
    def _bank_for(self, vid="v", frames=4):
        by_pair = {
            pair: LogitSequence(vid, np.zeros((frames, 2)) + [1.0, 0.0])
            for pair in all_transition_pairs()
        }
        return TransitionLogitBank({vid: by_pair})

    def test_requires_all_six_pairs(self):
        by_pair = {TransitionPair(1, 2): LogitSequence("v", [[1.0, 0.0]])}
        with pytest.raises(ValueError, match="missing pairs"):
            TransitionLogitBank({"v": by_pair})

    def test_requires_k_two(self):
        by_pair = {pair: LogitSequence("v", [[1.0, 0.0]]) for pair in all_transition_pairs()}
        by_pair[TransitionPair(1, 2)] = LogitSequence("v", [[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="K=2"):
            TransitionLogitBank({"v": by_pair})

    def test_requires_aligned_frame_counts(self):
        by_pair = {pair: LogitSequence("v", [[1.0, 0.0]]) for pair in all_transition_pairs()}
        by_pair[TransitionPair(3, 4)] = LogitSequence("v", [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="frame counts"):
            TransitionLogitBank({"v": by_pair})

    def test_directory_round_trip(self, tmp_path):
        bank = self._bank_for()
        save_bank(bank, tmp_path / "bank")
        loaded = load_bank(tmp_path / "bank")
        assert loaded.videos() == ["v"]
        assert loaded.pair_labels("v").shape == (6, 4)

    def test_missing_pair_file_named(self, tmp_path):
        bank = self._bank_for()
        save_bank(bank, tmp_path / "bank")
        (tmp_path / "bank" / "trans_3_4.csv").unlink()
        with pytest.raises(ValueError, match="trans_3_4"):
            load_bank(tmp_path / "bank")

