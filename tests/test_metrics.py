import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import proximity_bank
from phasekit.inference import MODEL_NAMES, InferenceConfig, InferenceTrace, transition_inference
from phasekit.metrics import (
    CascadeRun,
    accuracy,
    bank_restricted_accuracies,
    detect_cascades,
    evaluate_predictions,
    per_phase_stats,
    restricted_pair_accuracy,
)
from phasekit.workflow import PhaseTimeline, TransitionPair, pair_for_phase

labels_st = st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=50)


def trace_for(models_and_states, video_id="v"):
    """A trace without confidences whose frame i ran ``models_and_states[i]``
    and predicted its state."""
    models, states = zip(*models_and_states)
    n = len(states)
    return InferenceTrace(video_id, [MODEL_NAMES.index(m) for m in models], states, [0.0] * n, [False] * n, states)


class TestAccuracy:
    def test_identity_is_one(self):
        t = PhaseTimeline("v", [1, 2, 3])
        assert accuracy(t, t) == 1.0

    def test_direct_count(self):
        assert accuracy(PhaseTimeline("v", [1, 1, 2]), PhaseTimeline("v", [1, 2, 2])) == pytest.approx(2 / 3)

    @given(labels_st, labels_st)
    def test_symmetric(self, a, b):
        n = min(len(a), len(b))
        ta, tb = PhaseTimeline("v", a[:n]), PhaseTimeline("v", b[:n])
        assert accuracy(ta, tb) == accuracy(tb, ta)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            accuracy(PhaseTimeline("v", [1]), PhaseTimeline("v", [1, 2]))


class TestRestrictedPairAccuracy:
    def test_all_in_pair_correct(self):
        gt = PhaseTimeline("v", [1, 2, 1, 2])
        assert restricted_pair_accuracy(gt, gt, TransitionPair(1, 2)) == 1.0

    def test_partial(self):
        gt = PhaseTimeline("v", [1, 1, 2, 3])
        pred = PhaseTimeline("v", [1, 2, 2, 7])
        assert restricted_pair_accuracy(pred, gt, TransitionPair(1, 2)) == pytest.approx(2 / 3)

    def test_undefined_when_no_in_pair_frames(self):
        gt = PhaseTimeline("v", [5, 6, 7])
        pred = PhaseTimeline("v", [5, 6, 7])
        assert restricted_pair_accuracy(pred, gt, TransitionPair(1, 2)) is None


class TestPerPhase:
    def test_true_positives_sum_to_correct_frames(self):
        rng = np.random.default_rng(0)
        gt = PhaseTimeline("v", rng.integers(1, 8, size=200))
        pred = PhaseTimeline("v", rng.integers(1, 8, size=200))
        stats = per_phase_stats(pred, gt)
        tp_sum = sum(
            round(s.recall * s.support) for s in stats.values() if s.recall is not None
        )
        assert tp_sum == int((pred.labels == gt.labels).sum())

    def test_undefined_precision_for_never_predicted_phase(self):
        gt = PhaseTimeline("v", [1, 7])
        pred = PhaseTimeline("v", [1, 1])
        stats = per_phase_stats(pred, gt)
        assert stats[7].precision is None
        assert stats[7].recall == 0.0
        assert stats[2].recall is None


class TestEvaluatePredictions:
    def test_pooled_and_video_mean(self):
        preds = {
            "a": PhaseTimeline("a", [1, 1, 1, 1]),
            "b": PhaseTimeline("b", [2, 2]),
        }
        gts = {
            "a": PhaseTimeline("a", [1, 1, 1, 2]),
            "b": PhaseTimeline("b", [2, 3]),
        }
        result = evaluate_predictions(preds, gts)
        assert result.overall_accuracy == pytest.approx(4 / 6)
        assert result.video_mean_accuracy == pytest.approx((0.75 + 0.5) / 2)
        assert result.per_video_accuracy == {"a": 0.75, "b": 0.5}

    def test_missing_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="missing ground truth"):
            evaluate_predictions({"a": PhaseTimeline("a", [1])}, {})


class TestBankRestricted:
    def test_faithful_bank_scores_one(self):
        gt = PhaseTimeline("v", np.repeat(np.arange(1, 8), 10))
        bank = proximity_bank("v", gt)
        accs = bank_restricted_accuracies(bank, {"v": gt})
        assert all(a == 1.0 for a in accs.values())


class TestDetectCascades:
    def test_correct_pairs_give_empty_report(self):
        gt = PhaseTimeline("v", [1, 2, 2, 3])
        trace = trace_for([
            ("trans_1_2", 1), ("trans_1_2", 1), ("trans_2_3", 2), ("trans_2_3", 3)
        ])
        assert detect_cascades(trace, gt).runs == ()

    def test_baseline_frames_never_qualify(self):
        gt = PhaseTimeline("v", [5, 5, 5])
        trace = trace_for([("baseline", 1), ("trans_1_2", 1), ("baseline", 1)])
        report = detect_cascades(trace, gt)
        assert report.runs == (CascadeRun(1, 2, 1),)

    def test_constructed_cascade_single_run(self, cascade_scenario):
        gt, bank = cascade_scenario
        _, trace = transition_inference(bank, "cascade", InferenceConfig(buffer_size=10))
        report = detect_cascades(trace, gt)
        assert len(report.runs) == 1
        run = report.runs[0]
        first_bad = int(np.argmax(gt.labels >= 4))
        assert (run.start, run.end) == (first_bad, len(gt))
        assert run.state == 2

    def test_adjacent_qualifying_frames_never_split(self):
        gt = PhaseTimeline("v", [5] * 6)
        trace = trace_for([("trans_1_2", 1)] * 6)
        report = detect_cascades(trace, gt)
        assert report.runs == (CascadeRun(0, 6, 1),)

    @given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=60),
           st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=60))
    def test_runs_are_disjoint_and_cover_qualifying_set(self, gt_labels, states):
        n = min(len(gt_labels), len(states))
        gt = PhaseTimeline("v", gt_labels[:n])
        trace = trace_for([(pair_for_phase(s).name, s) for s in states[:n]])
        report = detect_cascades(trace, gt)
        covered = set()
        for run in report.runs:
            frames = set(range(run.start, run.end))
            assert not frames & covered
            covered |= frames
        qualifying = {
            i for i in range(n)
            if not pair_for_phase(states[i]).contains(gt_labels[i])
        }
        assert covered == qualifying

    def test_length_mismatch_rejected(self):
        gt = PhaseTimeline("v", [1, 2])
        with pytest.raises(ValueError, match="length"):
            detect_cascades(trace_for([("baseline", 1)]), gt)
