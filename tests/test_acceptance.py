"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Absolute reference accuracies from full-scale clinical corpora are
not reproducible here; these criteria check synthetic-recovery and ordering
properties at pinned tolerances instead.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from conftest import proximity_bank
from oracles import grid_search_temperature
from phasekit.calibration import calibrate_report, ece, fit_temperature
from phasekit.cli import main
from phasekit.inference import (
    InferenceConfig,
    baseline_argmax,
    confidence_inference,
    transition_inference,
)
from phasekit.logits import LogitSequence, argmax_confidence_rows, load_logits, save_logits
from phasekit.metrics import accuracy, detect_cascades
from phasekit.selfcheck import check_attention_against_oracle
from phasekit.simulate import (
    NoiseSpec,
    WorkflowSpec,
    generate_baseline_logits,
    generate_ground_truth,
    simulate_video,
)
from phasekit.workflow import PhaseTimeline, pair_for_phase


def report_pass(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion:2d}] PASS  {message}")


def overconfident_sample(seed: int, t_star: float = 2.5, dwell: float = 800.0):
    """One simulated video with at least 5250 frames and injected T*."""
    spec = WorkflowSpec(dwell_mean=dwell, dwell_min=int(dwell * 15 / 16))
    gt = generate_ground_truth(spec, seed)
    noise = NoiseSpec(overconfidence=t_star, rng_seed=seed)
    return generate_baseline_logits(gt, noise)


def test_criterion_1_temperature_recovery():
    start = time.time()
    seq = overconfident_sample(seed=42)
    assert seq.num_frames >= 5000
    fitted = fit_temperature(seq)
    oracle = grid_search_temperature(seq.logits, seq.labels)
    elapsed = time.time() - start
    assert abs(fitted.value - 2.5) / 2.5 <= 0.05
    assert abs(fitted.value - oracle) < 1e-3
    assert elapsed < 10.0
    report_pass(1, f"recovered T={fitted.value:.4f} (injected 2.5), "
                   f"|golden-section - grid| = {abs(fitted.value - oracle):.2e}, {elapsed:.1f}s")


def test_criterion_2_calibration_direction():
    start = time.time()
    val = overconfident_sample(seed=101, dwell=400)
    test = overconfident_sample(seed=202, dwell=400)
    report = calibrate_report(val, test)
    elapsed = time.time() - start
    assert report.nll_after < report.nll_before
    assert report.ece_after <= report.ece_before / 3
    assert elapsed < 10.0
    report_pass(2, f"held-out NLL {report.nll_before:.3f} -> {report.nll_after:.3f}, "
                   f"ECE {report.ece_before:.3f} -> {report.ece_after:.3f} "
                   f"(ratio {report.ece_before / report.ece_after:.1f}x), {elapsed:.1f}s")


def _strategy_ordering_for_seed(seed: int) -> bool:
    wf = WorkflowSpec(dwell_mean=900 / 7, dwell_min=round(900 / 28))
    noise = NoiseSpec(rng_seed=seed)
    val = [simulate_video(wf, noise, f"val{i}", index=100 + i) for i in range(1)]
    test = [simulate_video(wf, noise, f"test{i}", index=200 + i) for i in range(2)]
    fitted = fit_temperature([v.baseline for v in val])
    totals = {"baseline": 0.0, "calibrated": 0.0, "uncalibrated": 0.0}
    frames = 0
    for v in test:
        n = len(v.ground_truth)
        frames += n
        totals["baseline"] += n * accuracy(baseline_argmax(v.baseline), v.ground_truth)
        timeline, _ = confidence_inference(v.baseline, v.bank, InferenceConfig(temperature=fitted.value))
        totals["calibrated"] += n * accuracy(timeline, v.ground_truth)
        timeline, _ = confidence_inference(v.baseline, v.bank, InferenceConfig(temperature=1.0))
        totals["uncalibrated"] += n * accuracy(timeline, v.ground_truth)
    acc = {k: v / frames for k, v in totals.items()}
    return acc["calibrated"] >= acc["baseline"] and acc["uncalibrated"] < acc["calibrated"]


def test_criterion_3_strategy_ordering():
    wins = sum(_strategy_ordering_for_seed(seed) for seed in range(10))
    assert wins >= 9
    report_pass(3, f"calibrated >= baseline and uncalibrated < calibrated on {wins}/10 seeds")


def test_criterion_4_threshold_zero_equivalence():
    rng = np.random.default_rng(4)
    for i in range(100):
        n = int(rng.integers(5, 40))
        base = LogitSequence(f"v{i}", rng.normal(scale=rng.uniform(0.5, 6), size=(n, 7)))
        bank = proximity_bank(f"v{i}", PhaseTimeline(f"v{i}", rng.integers(1, 8, size=n)))
        temperature = float(rng.uniform(0.2, 8))
        timeline, _ = confidence_inference(
            base, bank, InferenceConfig(conf_threshold=0.0, temperature=temperature)
        )
        expected = np.argmax(base.logits, axis=1) + 1
        assert np.array_equal(timeline.labels, expected)
    report_pass(4, "t_conf=0 output pointwise equal to baseline argmax on 100 random sequences")


def test_criterion_5_reachability_invariant(cascade_scenario):
    checked = 0
    runs = []
    rng = np.random.default_rng(5)
    for i in range(10):
        n = int(rng.integers(50, 300))
        gt = PhaseTimeline(f"v{i}", np.sort(rng.integers(1, 8, size=n)))
        bank = proximity_bank(f"v{i}", gt)
        runs.append(transition_inference(bank, f"v{i}", InferenceConfig(buffer_size=int(rng.integers(1, 60))))[1])
    gt, bank = cascade_scenario
    runs.append(transition_inference(bank, "cascade", InferenceConfig(buffer_size=10))[1])
    for trace in runs:
        for record in trace.records:
            pair = pair_for_phase(record.state)
            assert record.prediction in (pair.low, pair.high)
            checked += 1
    report_pass(5, f"all {checked} transition emissions within their majority pair, zero violations")


def test_criterion_6_cascade_reproduction(cascade_scenario):
    gt, bank = cascade_scenario
    cfg = InferenceConfig(buffer_size=10)
    transition_timeline, trace = transition_inference(bank, "cascade", cfg)
    cascade = detect_cascades(trace, gt)
    first_bad = int(np.argmax(gt.labels >= 4))
    assert len(cascade.runs) == 1
    assert (cascade.runs[0].start, cascade.runs[0].end) == (first_bad, len(gt))

    noise = NoiseSpec(base_accuracy_target=0.9, overconfidence=1.0, boundary_jitter=0, rng_seed=6)
    base = generate_baseline_logits(gt, noise)
    confidence_timeline, _ = confidence_inference(base, bank, InferenceConfig(temperature=1.0))
    t_acc = accuracy(transition_timeline, gt)
    c_acc = accuracy(confidence_timeline, gt)
    assert t_acc < c_acc
    report_pass(6, f"one maximal run over gt >= 4 frames [{first_bad}, {len(gt)}); "
                   f"transition acc {t_acc:.3f} < confidence acc {c_acc:.3f}")


def test_criterion_7_attention_oracle():
    max_diff, max_rowsum_gap = check_attention_against_oracle(num_instances=50, max_size=16)
    assert max_diff < 1e-10
    assert max_rowsum_gap < 1e-12
    report_pass(7, f"50 random instances up to 16x16: max |diff| = {max_diff:.2e}, "
                   f"max row-sum gap = {max_rowsum_gap:.2e}")


def test_criterion_8_ece_anchors():
    # hand-binned anchor: four predictions, confidence 0.8, two correct
    z = np.array([[math.log(4.0), 0.0]] * 4)
    labels = np.array([1, 1, 2, 2])
    got = ece(z, labels, num_bins=15)
    _, conf = argmax_confidence_rows(z, 1.0)
    assert got == abs(0.5 - float(conf.sum() / 4))
    assert abs(got - 0.3) < 1e-12

    # num_bins=1 identity on arbitrary data
    rng = np.random.default_rng(8)
    z = rng.normal(scale=3, size=(500, 7))
    y = rng.integers(1, 8, size=500)
    pred, conf = argmax_confidence_rows(z, 1.0)
    identity = abs(float((pred == y).mean()) - float(conf.mean()))
    assert ece(z, y, num_bins=1) == pytest.approx(identity, abs=1e-15)
    report_pass(8, "hand-binned ECE anchor 0.3 exact; num_bins=1 identity exact")


def test_criterion_9_pipeline_determinism(tmp_path):
    for run in ("a", "b"):
        assert main(["pipeline", "--out", str(tmp_path / run), "--seed", "9", "--val-videos", "1",
                     "--test-videos", "1", "--frames-mean", "420"]) == 0
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b
    mismatched = [
        str(rel) for rel in files_a
        if not filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel, shallow=False)
    ]
    assert mismatched == []
    report_pass(9, f"two same-seed pipeline runs produced {len(files_a)} byte-identical artifacts")


def test_criterion_10_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    z = rng.normal(size=(1000, 7)) * np.exp(rng.uniform(-30, 30, size=(1000, 7)))
    labels = rng.integers(1, 8, size=1000)
    seq = LogitSequence("v", z, labels=labels)
    path = tmp_path / "logits.csv"
    save_logits(seq, path)
    loaded = load_logits(path)["v"]
    assert np.array_equal(loaded.logits, seq.logits)
    assert np.array_equal(loaded.labels, seq.labels)
    report_pass(10, "save/load of 1000 random rows is value-exact")
