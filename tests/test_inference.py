import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bank_from_argmax, proximity_bank
from oracles import (
    MajorityBuffer,
    oracle_confidence_inference,
    oracle_detect_cascades,
    oracle_majority,
    oracle_save_traces,
    oracle_sweep_threshold,
    oracle_transition_inference,
)
from phasekit.inference import (
    SWEEP_GRID,
    InferenceConfig,
    baseline_argmax,
    confidence_inference,
    load_traces,
    save_traces,
    sweep_threshold,
    transition_inference,
)
from phasekit.logits import LogitSequence, TransitionLogitBank, argmax_confidence_rows
from phasekit.metrics import detect_cascades
from phasekit.simulate import NoiseSpec, WorkflowSpec, simulate_video
from phasekit.workflow import PhaseTimeline, all_transition_pairs, pair_for_phase


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

    @given(st.data(), st.integers(1, 30), st.sampled_from([1e-200, 1e-30, 1.0]) | st.floats(1e-3, 1e3))
    def test_baseline_argmax_is_the_confidence_paths_class(self, data, n, t):
        """At any temperature, exact ties and signed zeros included; where a
        row's scaled maximum overflows, there is no confidence and it raises."""
        cells = st.sampled_from([0.0, -0.0, 1.0, -3.5, 5e-324, 1e300, -1e300]) | st.floats(-1e6, 1e6)
        base = LogitSequence("v", data.draw(st.lists(st.lists(cells, min_size=7, max_size=7), min_size=n, max_size=n)))
        with np.errstate(over="ignore"):
            overflows = not np.isfinite((base.logits / t).max(axis=1)).all()
        if overflows:
            with pytest.raises(ValueError, match="the scaled logits overflow"):
                argmax_confidence_rows(base.logits, t)
            return
        classes, _ = argmax_confidence_rows(base.logits, t)
        assert np.array_equal(baseline_argmax(base).labels, classes)

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


@pytest.mark.parametrize("strategy", ["transition", "confidence"])
def test_timeline_and_trace_share_one_read_only_prediction(strategy):
    video = simulate_video(WorkflowSpec(dwell_mean=60, dwell_min=10), NoiseSpec(rng_seed=3), "v")
    if strategy == "transition":
        timeline, trace = transition_inference(video.bank, "v")
    else:
        timeline, trace = confidence_inference(video.baseline, video.bank)
    assert np.shares_memory(timeline.labels, trace.prediction)
    assert not trace.prediction.flags.writeable


class TestSweep:
    def test_sweep_reports_grid_and_best(self):
        rng = np.random.default_rng(4)
        gt = PhaseTimeline("v", np.repeat(np.arange(1, 8), 20))
        z = 4.0 * np.eye(7)[gt.labels - 1] + rng.normal(scale=0.5, size=(140, 7))
        base = LogitSequence("v", z)
        bank = proximity_bank("v", gt)
        best, rows = sweep_threshold({"v": base}, bank, {"v": gt}, 1.0)
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
        assert sweep_threshold({"s": s_base}, bank, {"s": s_gt}, 1.0)[0] == 0.6
        assert sweep_threshold({"l": l_base}, bank, {"l": l_gt}, 1.0)[0] == 0.1
        best, rows = sweep_threshold({"s": s_base, "l": l_base}, bank, {"s": s_gt, "l": l_gt}, 1.0)
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
        "v,0,trans_1_2,8,,1",  # state outside [1, 7]
        "v,0,baseline,1,0.5,0",  # prediction outside [1, 7]
        "v,0,baseline,1,0.5,99999999999999999999",
    ])
    def test_bad_row_names_line(self, tmp_path, row):
        path = tmp_path / "trace.csv"
        path.write_text(f"video_id,frame_idx,model,state,confidence,prediction\n{row}\n")
        with pytest.raises(ValueError, match=":2:"):
            load_traces(path)


# ---------------------------------------------------------------- differential

BUFFER_SIZES = (1, 2, 5, 30, 100, 300)
# Rows whose max-softmax is exactly 0.5 (two tied classes; exp(-800 / T)
# vanishes against 2) and exactly 1.0.
HALF_ROW = [0.0, 0.0] + [-800.0] * 5
SURE_ROW = [0.0] * 6 + [800.0]


@st.composite
def _video(draw, video_id="v"):
    """(ground truth, baseline, bank) for one video.

    ``monotone`` and ``noisy`` (non-monotone, pair accuracy 0.6) are
    simulated; ``random`` keeps the simulated baseline but draws every binary
    argmax at random, with ties, so the buffer majority rises and falls
    often. Some baseline rows are replaced by HALF_ROW and SURE_ROW.
    """
    kind = draw(st.sampled_from(["monotone", "noisy", "random"]))
    seed = draw(st.integers(0, 2**32 - 1))
    frames_mean = draw(st.sampled_from([7, 20, 150, 700, 1300]))
    workflow = WorkflowSpec(dwell_mean=frames_mean / 7, dwell_min=1, monotone=kind == "monotone")
    noise = NoiseSpec(pairwise_accuracy_target=0.6 if kind == "noisy" else 0.9, rng_seed=seed)
    video = simulate_video(workflow, noise, video_id)
    rng = np.random.default_rng(seed)
    n = len(video.ground_truth)
    bank = video.bank
    if kind == "random":
        high = draw(st.floats(0.05, 0.95))
        by_pair = {}
        for pair in all_transition_pairs():
            z = rng.choice([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], size=n, p=[0.9 * (1 - high), 0.9 * high, 0.1])
            by_pair[pair] = LogitSequence(video_id, z)
        bank = TransitionLogitBank({video_id: by_pair})
    z = np.array(video.baseline.logits)
    special = rng.random(n)
    z[special < 0.05] = HALF_ROW
    z[special > 0.97] = SURE_ROW
    return video.ground_truth, LogitSequence(video_id, z, labels=video.ground_truth.labels), bank


def _assert_matches_oracle(timeline, trace, oracle, gt, tmp):
    out, records = oracle
    assert timeline.labels.tolist() == out
    assert trace.records == tuple(records)
    runs = detect_cascades(trace, gt).runs
    assert [(r.start, r.end, r.state) for r in runs] == oracle_detect_cascades(records, gt.labels)
    save_traces([trace], tmp / "new.csv")
    oracle_save_traces({trace.video_id: records}, tmp / "old.csv")
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()
    assert load_traces(tmp / "new.csv")[trace.video_id] == trace


@settings(max_examples=40, deadline=None)
@given(video=_video())
def test_transition_matches_per_frame_oracle(video, tmp_path_factory):
    gt, _, bank = video
    tmp = tmp_path_factory.mktemp("transition")
    for size in BUFFER_SIZES:
        timeline, trace = transition_inference(bank, "v", InferenceConfig(buffer_size=size))
        _assert_matches_oracle(timeline, trace, oracle_transition_inference(bank, "v", size), gt, tmp)


@settings(max_examples=10, deadline=None)
@given(video=_video())
def test_buffer_beyond_twice_the_video_matches_per_frame_oracle(video):
    """The strategy caps the buffer it builds at twice the frame count."""
    gt, _, bank = video
    timeline, trace = transition_inference(bank, "v", InferenceConfig(buffer_size=10**9))
    out, records = oracle_transition_inference(bank, "v", 2 * len(gt) + 1)
    assert timeline.labels.tolist() == out
    assert trace.records == tuple(records)


@settings(max_examples=40, deadline=None)
@given(video=_video(), temperature=st.floats(0.3, 4.0), threshold=st.floats(0.0, 1.0), data=st.data())
def test_confidence_matches_per_frame_oracle(video, temperature, threshold, data, tmp_path_factory):
    gt, base, bank = video
    tmp = tmp_path_factory.mktemp("confidence")
    _, confs = argmax_confidence_rows(base.logits, temperature)
    # one frame's confidence exactly equals the threshold
    tied = float(confs[data.draw(st.integers(0, len(confs) - 1))])
    for t_conf in (0.0, 1.0, 0.5, threshold, tied):
        timeline, trace = confidence_inference(base, bank, InferenceConfig(conf_threshold=t_conf, temperature=temperature))
        oracle = oracle_confidence_inference(base, bank, t_conf, temperature)
        _assert_matches_oracle(timeline, trace, oracle, gt, tmp)


@settings(max_examples=25, deadline=None)
@given(videos=st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True).flatmap(
    lambda ids: st.tuples(*(_video(f"v{i}") for i in ids))), temperature=st.floats(0.3, 4.0))
def test_sweep_matches_per_frame_oracle(videos, temperature):
    baselines = {base.video_id: base for _, base, _ in videos}
    references = {gt.video_id: gt for gt, _, _ in videos}
    bank = TransitionLogitBank.merge([bank for _, _, bank in videos])
    got = sweep_threshold(baselines, bank, references, temperature)
    assert got == oracle_sweep_threshold(baselines, bank, references, temperature)
