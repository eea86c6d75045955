import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bank_from_argmax, proximity_bank
from oracles import oracle_majority
from phasekit.inference import (
    SWEEP_GRID,
    InferenceConfig,
    MajorityBuffer,
    baseline_argmax,
    confidence_inference,
    load_traces,
    save_traces,
    sweep_threshold,
    transition_inference,
)
from phasekit.logits import LogitSequence, TransitionLogitBank
from phasekit.workflow import PhaseTimeline, pair_for_phase


def conf_logit(target_conf: float, phase: int) -> list[float]:
    """K=7 row whose argmax is ``phase`` with max-softmax exactly target_conf."""
    row = [0.0] * 7
    row[phase - 1] = math.log(target_conf * 6 / (1 - target_conf))
    return row


class TestMajorityBuffer:
    def test_initial_fill_is_all_ones(self):
        buf = MajorityBuffer(5)
        assert buf.contents == (1, 1, 1, 1, 1)
        assert buf.majority() == 1

    def test_push_evicts_oldest_and_keeps_size(self):
        buf = MajorityBuffer(3)
        for label in (2, 3, 4):
            buf.push(label)
        assert buf.contents == (2, 3, 4)
        buf.push(5)
        assert buf.contents == (3, 4, 5)
        assert len(buf.contents) == 3

    def test_tie_breaks_to_smallest_phase(self):
        assert MajorityBuffer.from_contents([1, 1, 2, 2]).majority() == 1

    def test_strict_majority(self):
        assert MajorityBuffer.from_contents([3, 2, 3, 3]).majority() == 3

    def test_module_level_helper(self):
        assert MajorityBuffer(4).majority() == 1

    @given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=40))
    def test_matches_counter_oracle(self, labels):
        assert MajorityBuffer.from_contents(labels).majority() == oracle_majority(labels)

    def test_invalid_sizes_and_labels(self):
        with pytest.raises(ValueError):
            MajorityBuffer(0)
        with pytest.raises(ValueError):
            MajorityBuffer(3).push(8)


class TestInferenceConfig:
    @pytest.mark.parametrize("kwargs", [
        {"buffer_size": 0},
        {"conf_threshold": -0.1},
        {"conf_threshold": 1.1},
        {"temperature": 0.0},
        {"temperature": math.nan},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            InferenceConfig(**kwargs)


class TestTransitionInference:
    def test_hand_simulated_four_frames(self):
        # trans_1_2 argmaxes 1,2,2,2 and trans_2_3 emits 3 throughout; with
        # N=2 the majority stays 1 through the f2 tie, then flips to 2
        bank = bank_from_argmax(
            "v", {"trans_1_2": [1, 2, 2, 2], "trans_2_3": [3, 3, 3, 3]}, 4
        )
        timeline, trace = transition_inference(bank, "v", InferenceConfig(buffer_size=2))
        assert list(timeline.labels) == [1, 2, 2, 3]
        assert [r.state for r in trace.records] == [1, 1, 1, 2]
        assert trace.records[2].model == "trans_1_2"
        assert trace.records[3].model == "trans_2_3"

    def test_all_ones_is_a_fixed_point(self):
        bank = bank_from_argmax("v", {"trans_1_2": [1] * 20}, 20)
        timeline, trace = transition_inference(bank, "v", InferenceConfig(buffer_size=4))
        assert np.all(timeline.labels == 1)
        assert all(r.model == "trans_1_2" for r in trace.records)

    def test_cascade_scenario_never_escapes(self, cascade_scenario):
        gt, bank = cascade_scenario
        timeline, trace = transition_inference(bank, "cascade", InferenceConfig(buffer_size=10))
        assert timeline.labels.max() <= 3
        # ground truth reaches phase 4+ but predictions stay behind
        assert np.all(timeline.labels[gt.labels >= 4] <= 3)

    def test_emissions_stay_in_majority_pair(self):
        rng = np.random.default_rng(0)
        bank = proximity_bank("v", PhaseTimeline("v", rng.integers(1, 8, size=200)))
        _, trace = transition_inference(bank, "v", InferenceConfig(buffer_size=7))
        for r in trace.records:
            pair = pair_for_phase(r.state)
            assert r.prediction in (pair.low, pair.high)
            assert r.model == pair.name

    def test_phase_seven_closure(self):
        # every model pushes upward; once the majority hits 7 only trans_6_7
        # is consulted and emissions stay in {6, 7}
        per_pair = {f"trans_{i}_{i + 1}": [i + 1] * 300 for i in range(1, 7)}
        bank = bank_from_argmax("v", per_pair, 300)
        timeline, trace = transition_inference(bank, "v", InferenceConfig(buffer_size=10))
        reached = [r for r in trace.records if r.state == 7]
        assert reached
        assert all(r.model == "trans_6_7" for r in reached)
        assert all(r.prediction in (6, 7) for r in reached)

    @pytest.mark.parametrize("n", [2, 5, 9, 10, 100])
    def test_two_phase_advance_needs_half_a_buffer(self, n):
        per_pair = {f"trans_{i}_{i + 1}": [i + 1] * 400 for i in range(1, 7)}
        bank = bank_from_argmax("v", per_pair, 400)
        timeline, _ = transition_inference(bank, "v", InferenceConfig(buffer_size=n))
        first_three = int(np.argmax(timeline.labels == 3))
        # frames elapsed from the very first i+1 emission through the first
        # possible i+2 emission, inclusive
        assert first_three + 1 >= math.ceil(n / 2) + 1
        assert first_three == math.ceil((n + 1) / 2)

    def test_missing_video_rejected(self):
        bank = bank_from_argmax("v", {}, 5)
        with pytest.raises(ValueError, match="cover"):
            transition_inference(bank, "other")

    def test_deterministic(self):
        gt = PhaseTimeline("v", np.repeat(np.arange(1, 8), 30))
        bank = proximity_bank("v", gt)
        a = transition_inference(bank, "v", InferenceConfig(buffer_size=9))
        b = transition_inference(bank, "v", InferenceConfig(buffer_size=9))
        assert np.array_equal(a[0].labels, b[0].labels)
        assert a[1] == b[1]


class TestConfidenceInference:
    def test_three_frame_hand_trace(self):
        # confidences 0.9, 0.4, 0.8 vs threshold 0.6; the middle frame falls
        # back to trans_2_3 (p_last = 2), which says 3
        base = LogitSequence("v", [conf_logit(0.9, 2), conf_logit(0.4, 5), conf_logit(0.8, 3)])
        bank = bank_from_argmax("v", {"trans_2_3": [3, 3, 3]}, 3)
        cfg = InferenceConfig(conf_threshold=0.6, temperature=1.0)
        timeline, trace = confidence_inference(base, bank, cfg)
        assert list(timeline.labels) == [2, 3, 3]
        assert [r.state for r in trace.records] == [1, 2, 3]
        assert [r.model for r in trace.records] == ["baseline", "trans_2_3", "baseline"]
        assert trace.records[1].confidence == pytest.approx(0.4, abs=1e-12)

    def test_threshold_zero_equals_baseline_argmax(self):
        rng = np.random.default_rng(1)
        z = rng.normal(scale=3, size=(120, 7))
        base = LogitSequence("v", z)
        bank = proximity_bank("v", PhaseTimeline("v", rng.integers(1, 8, size=120)))
        for temp in (0.3, 1.0, 8.0):
            timeline, trace = confidence_inference(
                base, bank, InferenceConfig(conf_threshold=0.0, temperature=temp)
            )
            assert np.array_equal(timeline.labels, baseline_argmax(base).labels)
            assert all(r.model == "baseline" for r in trace.records)

    def test_threshold_one_never_trusts_baseline(self):
        rng = np.random.default_rng(2)
        base = LogitSequence("v", rng.normal(scale=5, size=(50, 7)))
        bank = bank_from_argmax("v", {"trans_1_2": [2] * 50, "trans_2_3": [3] * 50}, 50)
        timeline, trace = confidence_inference(base, bank, InferenceConfig(conf_threshold=1.0))
        assert all(r.model != "baseline" for r in trace.records)
        assert trace.records[0].model == "trans_1_2"
        assert trace.records[0].state == 1

    def test_exact_threshold_routes_to_transition(self):
        base = LogitSequence("v", [conf_logit(0.6, 4)])
        bank = bank_from_argmax("v", {"trans_1_2": [2]}, 1)
        timeline, trace = confidence_inference(base, bank, InferenceConfig(conf_threshold=0.6))
        assert trace.records[0].model == "trans_1_2"
        assert list(timeline.labels) == [2]

    def test_k_mismatch_rejected(self):
        base = LogitSequence("v", np.zeros((3, 5)))
        bank = bank_from_argmax("v", {}, 3)
        with pytest.raises(ValueError, match="K=7"):
            confidence_inference(base, bank)

    def test_frame_count_mismatch_rejected(self):
        base = LogitSequence("v", np.zeros((3, 7)))
        bank = bank_from_argmax("v", {}, 4)
        with pytest.raises(ValueError, match="frame count"):
            confidence_inference(base, bank)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        base = LogitSequence("v", rng.normal(size=(100, 7)))
        bank = proximity_bank("v", PhaseTimeline("v", rng.integers(1, 8, size=100)))
        a = confidence_inference(base, bank, InferenceConfig())
        b = confidence_inference(base, bank, InferenceConfig())
        assert np.array_equal(a[0].labels, b[0].labels)
        assert a[1] == b[1]


class TestSweep:
    def test_sweep_reports_grid_and_best(self):
        rng = np.random.default_rng(4)
        gt = PhaseTimeline("v", np.repeat(np.arange(1, 8), 20))
        z = 4.0 * np.eye(7)[gt.labels - 1] + rng.normal(scale=0.5, size=(140, 7))
        base = LogitSequence("v", z)
        bank = proximity_bank("v", gt)
        best, rows = sweep_threshold({"v": base}, bank, {"v": gt}, InferenceConfig())
        assert [t for t, _ in rows] == [round(0.1 * i, 1) for i in range(1, 10)]
        assert best in [t for t, _ in rows]
        best_acc = max(acc for _, acc in rows)
        assert dict(rows)[best] == best_acc

    def test_pooled_sweep_counts_frames_not_videos(self):
        # Every frame's truth is phase 1 and the baseline argmax has confidence
        # 0.55 or ~1. In "s", four 0.55 frames are wrong and the bank fixes them,
        # so t_conf >= 0.6 wins there; in "l", ten 0.55 frames are right and the
        # bank breaks them, so t_conf <= 0.5 wins. Averaging the two videos'
        # accuracies would pick 0.6 (4/10 > 10/100); pooled hits pick 0.1.
        def video(vid, n, doubtful, wrong_base):
            # doubtful frames sit at even indices, each followed by a sure frame
            # that resets p_last to 1
            z = [conf_logit(0.999, 1)] * n
            bank_says = [1] * n
            for t in range(0, 2 * doubtful, 2):
                z[t] = conf_logit(0.55, 2 if wrong_base else 1)
                bank_says[t] = 1 if wrong_base else 2
            base = LogitSequence(vid, z)
            return base, bank_from_argmax(vid, {"trans_1_2": bank_says}, n), PhaseTimeline(vid, [1] * n)

        s_base, s_bank, s_gt = video("s", 10, 4, wrong_base=True)
        l_base, l_bank, l_gt = video("l", 100, 10, wrong_base=False)
        bank = TransitionLogitBank.merge([s_bank, l_bank])
        cfg = InferenceConfig()
        assert sweep_threshold({"s": s_base}, bank, {"s": s_gt}, cfg)[0] == 0.6
        assert sweep_threshold({"l": l_base}, bank, {"l": l_gt}, cfg)[0] == 0.1
        best, rows = sweep_threshold({"s": s_base, "l": l_base}, bank, {"s": s_gt, "l": l_gt}, cfg)
        assert best == 0.1
        assert rows == [(t, (106 if t <= 0.5 else 100) / 110) for t in SWEEP_GRID]


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        base = LogitSequence("v", rng.normal(size=(30, 7)))
        bank = proximity_bank("v", PhaseTimeline("v", rng.integers(1, 8, size=30)))
        _, trace = confidence_inference(base, bank, InferenceConfig())
        _, trace2 = transition_inference(bank, "v", InferenceConfig(buffer_size=3))
        path = tmp_path / "trace.csv"
        save_traces([trace], path)
        assert load_traces(path)["v"] == trace
        save_traces([trace2], path)
        assert load_traces(path)["v"] == trace2

    @pytest.mark.parametrize("row", [
        "v,1,baseline,1,0.5,1",  # frame_idx skips 0
        "v,0,trans_9_9,1,,1",
        "v,0,oracle,1,,1",
        "v,0,baseline,1,nan,1",
    ])
    def test_bad_row_names_line(self, tmp_path, row):
        path = tmp_path / "trace.csv"
        path.write_text(f"video_id,frame_idx,model,state,confidence,prediction\n{row}\n")
        with pytest.raises(ValueError, match=":2:"):
            load_traces(path)
