import math
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasekit
from oracles import attention_smooth_loop, oracle_margin, oracle_pair_predictions
from phasekit import fork, simulate
from phasekit.calibration import fit_temperature
from phasekit.cli import main
from phasekit.logits import LogitSequence, load_bank, load_logits
from phasekit.simulate import (
    DEFAULT_PAIR_ACCURACY,
    NoiseSpec,
    WorkflowSpec,
    _margin_for_accuracy,
    attention_smooth,
    boundary_mask,
    generate_baseline_logits,
    generate_dataset,
    generate_ground_truth,
    generate_transition_bank,
    simulate_video,
    simulate_videos,
)
from phasekit.workflow import all_transition_pairs, load_timelines


def big_scenario(seed=0, frames=5600, t_star=2.5, accuracy=0.85, jitter=10):
    spec = WorkflowSpec(dwell_mean=frames / 7, dwell_min=frames // 28)
    gt = generate_ground_truth(spec, seed, video_id="sim")
    noise = NoiseSpec(
        base_accuracy_target=accuracy,
        overconfidence=t_star,
        boundary_jitter=jitter,
        rng_seed=seed,
    )
    return gt, noise


class TestSpecs:
    def test_workflow_rejects_mean_below_min(self):
        with pytest.raises(ValueError):
            WorkflowSpec(dwell_mean=3, dwell_min=10)

    @pytest.mark.parametrize("mean", [float("inf"), float("nan")])
    def test_workflow_rejects_non_finite_mean(self, mean):
        with pytest.raises(ValueError, match="dwell_mean must be finite"):
            WorkflowSpec(dwell_mean=mean, dwell_min=1)

    @pytest.mark.parametrize("kwargs", [
        {"base_accuracy_target": 0.1},
        {"base_accuracy_target": 1.01},
        {"pairwise_accuracy_target": (0.4,) * 6},
        {"pairwise_accuracy_target": (0.9,) * 5},
        {"overconfidence": 0.5},
        {"boundary_jitter": -1},
        {"overconfidence": float("nan")},
        {"overconfidence": float("inf")},
        {"rng_seed": -1},
    ])
    def test_noise_spec_ranges(self, kwargs):
        with pytest.raises(ValueError):
            NoiseSpec(**kwargs)

    def test_scalar_pair_target_broadcasts(self):
        spec = NoiseSpec(pairwise_accuracy_target=0.9)
        assert spec.pairwise_accuracy_target == (0.9,) * 6


@st.composite
def margin_problems(draw):
    num_classes = draw(st.integers(2, 7))
    target = draw(st.floats(1.0 / num_classes + 1e-3, 0.9999, exclude_min=True))
    return target, num_classes


class TestMarginSolve:
    @settings(max_examples=20)
    @given(margin_problems())
    def test_agrees_with_quadrature_oracle(self, problem):
        target, num_classes = problem
        assert abs(_margin_for_accuracy(target, num_classes) - oracle_margin(target, num_classes)) <= 1e-9

    @settings(max_examples=20)
    @given(margin_problems())
    def test_cached_value_is_the_solved_value(self, problem):
        for _ in range(2):  # the first call may fill the cache, the second reads it
            assert _margin_for_accuracy(*problem) == _margin_for_accuracy.__wrapped__(*problem)

    def test_simulation_solves_each_distinct_key_once(self, monkeypatch):
        cached, keys = _margin_for_accuracy, []

        def asked(target, num_classes):
            keys.append((target, num_classes))
            return cached(target, num_classes)

        cached.cache_clear()
        monkeypatch.setattr(simulate, "_margin_for_accuracy", asked)
        monkeypatch.delattr(os, "fork", raising=False)  # every video is simulated, and its keys asked, here
        simulate_videos(WorkflowSpec(dwell_mean=60, dwell_min=15), [("video", 30, NoiseSpec(rng_seed=11))])
        info = cached.cache_info()
        assert info.misses == len(set(keys)) < len(keys)  # each miss is one bisection
        assert info.hits == len(keys) - len(set(keys))

    def test_quadrature_rule_is_hermegauss_bit_for_bit(self):
        """The literal rule is numpy's 96-node rule, weights divided by
        sqrt(2 pi), in its node order: the order the margin solve sums in."""
        from numpy.polynomial.hermite_e import hermegauss

        nodes, weights = hermegauss(96)
        rule = simulate._GAUSS_HERMITE_RULE
        assert len(rule) == 96
        assert [u for u, _ in rule] == nodes.tolist()
        assert [w for _, w in rule] == (weights / math.sqrt(2.0 * math.pi)).tolist()

    @pytest.mark.parametrize("target, num_classes, margin", [
        *zip(DEFAULT_PAIR_ACCURACY, [2] * 6, ["2.482435300317645", "2.352631879424926", "2.287296346084039",
                                              "2.8619581154901645", "2.139035358314219", "1.375896924627697"]),
        (0.3, 7, "0.6369064784666989"),
        (0.85, 7, "2.4994463396433275"),
        (0.9999, 7, "5.858942545513855"),
    ])
    def test_margin_bits_are_pinned(self, target, num_classes, margin):
        """The solved margins, to the last bit, for the default pair targets
        and three baseline targets; every simulated logit scales by one."""
        assert repr(_margin_for_accuracy(target, num_classes)) == margin

    @pytest.mark.parametrize("num_classes", [2, 7])
    def test_target_that_rounds_to_one_is_noiseless(self, num_classes):
        """A target within 5e-13 of 1 takes the path of a target of exactly
        1: no margin solve, no draw from the generator."""
        labels = np.arange(1, num_classes + 1).repeat(3)
        drawn = {}
        for target in (1.0, 0.9999999999999999, 1 - 4e-13):
            rng = np.random.default_rng(0)
            drawn[target] = (simulate._contest_logits(labels, target, num_classes, rng), rng.random())
        (exact, after), *rest = drawn.values()
        for logits, next_draw in rest:
            assert np.array_equal(logits, exact) and next_draw == after

    @pytest.mark.parametrize("module", ["scipy", "traceback", "signal", "multiprocessing", "concurrent.futures",
                                        "hypothesis", "statistics", "numpy.polynomial"])
    def test_cli_import_leaves_scipy_out(self, module):
        """A fresh import of the CLI, which every command pays for, loads
        none of these; it imports traceback and signal only where it uses
        them, and the simulator's normal quantile and quadrature rule too."""
        code = f"import sys, phasekit.cli; print({module!r} in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(phasekit.__file__).parents[1])}
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert child.stdout.strip() == "False"

    @pytest.mark.parametrize("argv", [
        ["pipeline", "--val-videos", "1", "--test-videos", "1"],
        ["simulate", "--videos", "2"],
    ], ids=["pipeline", "simulate"])
    def test_simulating_run_loads_no_rule_builder_and_its_child_imports_nothing(self, tmp_path, argv):
        """A simulating run, in a fresh interpreter, never loads
        numpy.polynomial, and its forked simulating child, which here runs
        every video, adds no module to sys.modules after the fork."""
        code = """if True:
            import os, sys
            from phasekit import cli, fork, simulate

            parent, claim, at_fork = os.getpid(), fork._claim, []
            os.register_at_fork(after_in_child=lambda: at_fork.append(set(sys.modules)))
            os.sched_getaffinity = lambda pid: {0, 1}  # fork on one CPU too

            def claimed(jobs, claims):
                simulating = getattr(jobs[0], "func", None) is simulate.simulate_video
                if os.getpid() == parent:
                    return {} if simulating else claim(jobs, claims)
                done = claim(jobs, claims)
                if simulating:
                    print(len(done), sorted(set(sys.modules) - at_fork[-1]), file=sys.stderr, flush=True)
                return done

            fork._claim = claimed
            code = cli.main(sys.argv[1:])
            print("numpy.polynomial" in sys.modules, file=sys.stderr)
            sys.exit(code)
        """
        env = {**os.environ, "PYTHONPATH": str(Path(phasekit.__file__).parents[1])}
        child = subprocess.run([sys.executable, "-c", code, *argv, "--frames-mean", "70", "--out", str(tmp_path / "out")],
                               env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        assert child.stderr.splitlines() == ["2 []", "False"]

    def test_fork_layer_imports_only_the_standard_library(self):
        """The job queue's module, executed on its own in a fresh interpreter,
        loads neither numpy nor any phasekit module. (``import phasekit.fork``
        would run the package root first, and that loads phasekit.logits.)"""
        path = Path(phasekit.__file__).with_name("fork.py")
        code = ("import importlib.util, sys; "
                f"spec = importlib.util.spec_from_file_location('fork', {str(path)!r}); "
                "spec.loader.exec_module(importlib.util.module_from_spec(spec)); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'phasekit')))")
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert child.stdout.strip() == "[]"

    def test_simulate_import_leaves_the_cli_out(self):
        """The simulator queues its file writes on the fork layer, not through the CLI."""
        code = "import sys, phasekit.simulate; print('phasekit.cli' in sys.modules, 'phasekit.fork' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(phasekit.__file__).parents[1])}
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert child.stdout.strip() == "False True"


class TestGroundTruth:
    def test_degenerate_dwell_gives_exact_blocks(self):
        spec = WorkflowSpec(dwell_mean=12, dwell_min=12)
        gt = generate_ground_truth(spec, 0)
        assert len(gt) == 7 * 12
        assert np.array_equal(gt.labels, np.repeat(np.arange(1, 8), 12))

    def test_monotone_covers_all_phases_in_order(self):
        gt = generate_ground_truth(WorkflowSpec(dwell_mean=40, dwell_min=5), 7)
        assert np.all(np.diff(gt.labels) >= 0)
        assert set(gt.labels.tolist()) == set(range(1, 8))

    def test_dwells_respect_minimum(self):
        spec = WorkflowSpec(dwell_mean=30, dwell_min=9)
        gt = generate_ground_truth(spec, 3)
        lengths = np.diff(np.flatnonzero(np.r_[True, gt.labels[1:] != gt.labels[:-1], True]))
        assert lengths.min() >= 9

    def test_same_seed_is_identical(self):
        spec = WorkflowSpec(dwell_mean=50, dwell_min=10)
        a = generate_ground_truth(spec, 42)
        b = generate_ground_truth(spec, 42)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        spec = WorkflowSpec(dwell_mean=200, dwell_min=10)
        a = generate_ground_truth(spec, 1)
        b = generate_ground_truth(spec, 2)
        assert len(a) != len(b) or not np.array_equal(a.labels, b.labels)

    def test_non_monotone_can_revisit(self):
        spec = WorkflowSpec(dwell_mean=8, dwell_min=2, monotone=False)
        revisits = 0
        for seed in range(12):
            gt = generate_ground_truth(spec, seed)
            if np.any(np.diff(gt.labels) < 0):
                revisits += 1
        assert revisits > 0


class TestBaselineLogits:
    def test_noiseless_case_matches_ground_truth_everywhere(self):
        gt, _ = big_scenario(frames=1400)
        noise = NoiseSpec(
            base_accuracy_target=1.0, overconfidence=1.0, boundary_jitter=0, rng_seed=1
        )
        seq = generate_baseline_logits(gt, noise)
        assert np.array_equal(np.argmax(seq.logits, axis=1) + 1, gt.labels)

    def test_accuracy_converges_to_target(self):
        gt, noise = big_scenario(seed=9)
        seq = generate_baseline_logits(gt, noise)
        acc = float((np.argmax(seq.logits, axis=1) + 1 == gt.labels).mean())
        assert abs(acc - 0.85) < 0.02

    def test_errors_concentrate_near_boundaries(self):
        gt, noise = big_scenario(seed=10, jitter=15, accuracy=0.85)
        seq = generate_baseline_logits(gt, noise)
        wrong = np.argmax(seq.logits, axis=1) + 1 != gt.labels
        near = boundary_mask(gt, 15)
        assert wrong[near].mean() > 1.5 * wrong[~near].mean()

    def test_injected_temperature_recoverable(self):
        gt, noise = big_scenario(seed=11, t_star=2.5)
        seq = generate_baseline_logits(gt, noise)
        fitted = fit_temperature(seq)
        assert abs(fitted.value - 2.5) / 2.5 < 0.05

    def test_deterministic(self):
        gt, noise = big_scenario(seed=12, frames=700)
        a = generate_baseline_logits(gt, noise)
        b = generate_baseline_logits(gt, noise)
        assert np.array_equal(a.logits, b.logits)


class TestTransitionBank:
    def test_perfect_pair_target_on_in_pair_frames(self):
        gt, _ = big_scenario(frames=1400)
        noise = NoiseSpec(pairwise_accuracy_target=1.0, boundary_jitter=0, rng_seed=2)
        bank = generate_transition_bank(gt, noise)
        preds = oracle_pair_predictions(bank, "sim")
        for pair in all_transition_pairs():
            mask = (gt.labels == pair.low) | (gt.labels == pair.high)
            assert np.all(preds[pair][mask] == gt.labels[mask])

    def test_pair_accuracies_near_targets(self):
        gt, noise = big_scenario(seed=13)
        bank = generate_transition_bank(gt, noise)
        preds = oracle_pair_predictions(bank, "sim")
        for pair, target in zip(all_transition_pairs(), DEFAULT_PAIR_ACCURACY):
            mask = (gt.labels == pair.low) | (gt.labels == pair.high)
            acc = float((preds[pair][mask] == gt.labels[mask]).mean())
            assert abs(acc - target) < 0.02

    def test_off_pair_proximity_rule(self):
        gt, _ = big_scenario(frames=1400)
        noise = NoiseSpec(rng_seed=3)
        bank = generate_transition_bank(gt, noise)
        preds = oracle_pair_predictions(bank, "sim")
        for pair in all_transition_pairs():
            below = gt.labels < pair.low
            above = gt.labels > pair.high
            assert np.all(preds[pair][below] == pair.low)
            assert np.all(preds[pair][above] == pair.high)

    def test_same_seed_identical_bank(self):
        gt, noise = big_scenario(seed=14, frames=700)
        a = generate_transition_bank(gt, noise)
        b = generate_transition_bank(gt, noise)
        for pair in all_transition_pairs():
            assert np.array_equal(a.sequences["sim"][pair].logits, b.sequences["sim"][pair].logits)


class TestAttentionSmooth:
    def test_preserves_shape_and_labels(self):
        gt, noise = big_scenario(frames=700)
        seq = generate_baseline_logits(gt, noise)
        smoothed = attention_smooth(seq, window=12)
        assert smoothed.logits.shape == seq.logits.shape
        assert np.array_equal(smoothed.labels, seq.labels)
        assert not np.array_equal(smoothed.logits, seq.logits)

    def test_window_one_is_identity_like(self):
        gt, noise = big_scenario(frames=700)
        seq = generate_baseline_logits(gt, noise)
        smoothed = attention_smooth(seq, window=1)
        # a window of one frame attends only to itself
        assert np.allclose(smoothed.logits, seq.logits, atol=1e-12)

    def test_rejects_bad_window(self):
        gt, noise = big_scenario(frames=700)
        seq = generate_baseline_logits(gt, noise)
        with pytest.raises(ValueError):
            attention_smooth(seq, window=0)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bit_identical_to_per_frame_loop(self, data):
        n = data.draw(st.integers(1, 400), label="n")
        k = data.draw(st.integers(2, 8), label="K")
        # window 1, a window inside the video, exactly n, and beyond n
        window = data.draw(st.one_of(st.just(1), st.integers(2, 60), st.just(n), st.integers(n + 1, n + 20)),
                           label="window")
        scale = data.draw(st.sampled_from([0.1, 1.0, 20.0, 300.0]) | st.floats(0.1, 300.0), label="scale")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        seq = LogitSequence("v", np.random.default_rng(seed).standard_normal((n, k)) * scale)
        assert np.array_equal(attention_smooth(seq, window).logits, attention_smooth_loop(seq, window).logits)

    @pytest.mark.parametrize("window", [1, 3, 500])
    def test_overflowing_scores_rejected_without_a_warning(self, window):
        z = np.random.default_rng(4).standard_normal((200, 7)) * 1e160
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="^attention scores overflow in video 'v': its logits reach "):
                attention_smooth(LogitSequence("v", z), window)
        assert [str(w.message) for w in caught] == []

    def test_kernel_calls_only_for_short_windows(self, monkeypatch):
        calls = []
        kernel = simulate.scaled_dot_attention

        def counted(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(simulate, "scaled_dot_attention", counted)
        z = np.random.default_rng(3).standard_normal((200, 7))
        for window, expected in ((1, 0), (30, 29), (200, 199), (500, 200)):
            calls.clear()
            attention_smooth(LogitSequence("v", z), window)
            assert len(calls) == expected


class TestSimulateVideos:
    @pytest.mark.parametrize("where", ["inline", "forked", "child"])
    def test_one_list_per_split_in_split_order(self, monkeypatch, where):
        """Each split's videos come back in its own list, with the arrays
        simulate_video gives them, in whichever process they ran."""
        spec = WorkflowSpec(dwell_mean=40, dwell_min=5)
        splits = [("val", 2, NoiseSpec(rng_seed=4)), ("test", 3, NoiseSpec(rng_seed=9))]
        if where == "inline":
            monkeypatch.delattr(os, "fork", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        if where == "child":
            parent, claim = os.getpid(), fork._claim
            monkeypatch.setattr(fork, "_claim",
                                lambda jobs, claims: {} if os.getpid() == parent else claim(jobs, claims))
        got = simulate_videos(spec, splits, smoothing_window=4)
        assert [[v.ground_truth.video_id for v in videos] for videos in got] == [
            ["val00", "val01"], ["test00", "test01", "test02"]]
        for (prefix, _, noise), videos in zip(splits, got):
            for i, video in enumerate(videos):
                want = simulate_video(spec, noise, f"{prefix}{i:02d}", i, 4)
                assert np.array_equal(video.ground_truth.labels, want.ground_truth.labels)
                assert np.array_equal(video.baseline.logits, want.baseline.logits)
                for pair, seq in want.bank.sequences[want.ground_truth.video_id].items():
                    assert np.array_equal(video.bank.sequences[video.ground_truth.video_id][pair].logits, seq.logits)


class TestDataset:
    def test_writes_and_round_trips(self, tmp_path):
        spec = WorkflowSpec(dwell_mean=30, dwell_min=5)
        noise = NoiseSpec(rng_seed=5)
        ids = [v.ground_truth.video_id for v in generate_dataset(tmp_path / "d", 3, spec, noise)]
        assert ids == ["video00", "video01", "video02"]
        gts = load_timelines(tmp_path / "d" / "gt.csv")
        bases = load_logits(tmp_path / "d" / "baseline.csv")
        bank = load_bank(tmp_path / "d" / "bank")
        assert set(gts) == set(ids) == set(bases) == set(bank.videos())
        for vid in ids:
            assert len(gts[vid]) == bases[vid].num_frames == bank.frame_count(vid)
            assert np.array_equal(bases[vid].labels, gts[vid].labels)

    def test_failed_video_writes_nothing(self, tmp_path, monkeypatch):
        def fail_second(workflow, noise, video_id, index=0, smoothing_window=0):
            if index == 1:
                raise ValueError("simulation failed")
            return simulate_video(workflow, noise, video_id, index, smoothing_window)

        monkeypatch.setattr(simulate, "simulate_video", fail_second)
        with pytest.raises(ValueError, match="simulation failed"):
            generate_dataset(tmp_path / "d", 2, WorkflowSpec(dwell_mean=30, dwell_min=5), NoiseSpec())
        assert not (tmp_path / "d").exists()

    def test_failed_video_fails_the_command_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        """``simulate`` simulates every video before it writes a file."""
        def fail_second(workflow, noise, video_id, index=0, smoothing_window=0):
            if index == 1:
                raise ValueError("simulation failed")
            return simulate_video(workflow, noise, video_id, index, smoothing_window)

        monkeypatch.setattr(simulate, "simulate_video", fail_second)
        assert main(["simulate", "--videos", "2", "--frames-mean", "210", "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == "error: simulation failed\n"
        assert not (tmp_path / "d").exists()

    def test_videos_are_distinct_but_reproducible(self, tmp_path):
        spec = WorkflowSpec(dwell_mean=40, dwell_min=5)
        noise = NoiseSpec(rng_seed=6)
        generate_dataset(tmp_path / "a", 2, spec, noise)
        generate_dataset(tmp_path / "b", 2, spec, noise)
        a = (tmp_path / "a" / "baseline.csv").read_text()
        b = (tmp_path / "b" / "baseline.csv").read_text()
        assert a == b
        bases = load_logits(tmp_path / "a" / "baseline.csv")
        assert not np.array_equal(bases["video00"].logits[:50], bases["video01"].logits[:50])


def _label_arrays(video) -> list:
    """The ground truth's, the baseline's and the six pair sequences' labels."""
    pairs = video.bank.sequences[video.ground_truth.video_id].values()
    return [video.ground_truth.labels, video.baseline.labels, *(seq.labels for seq in pairs)]


class TestOneLabelArray:
    """A simulated video's eight sequences share one label array, so it is
    held and pickled once."""

    @pytest.mark.parametrize("window", [0, 5])
    def test_inline(self, window):
        video = simulate_video(WorkflowSpec(dwell_mean=60, dwell_min=10), NoiseSpec(rng_seed=3), "v", 0, window)
        labels = _label_arrays(video)
        assert len(labels) == 8 and all(y is labels[0] for y in labels)
        # 56 B of baseline logits, 96 B of pair logits and 8 B of labels per frame
        assert len(pickle.dumps(video, protocol=5)) < 170 * len(video.ground_truth)

    def test_after_the_child_simulates_every_video(self, monkeypatch):
        parent, claim = os.getpid(), fork._claim
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(fork, "_claim", lambda jobs, claims: {} if os.getpid() == parent else claim(jobs, claims))
        [videos] = simulate_videos(WorkflowSpec(dwell_mean=60, dwell_min=10), [("video", 3, NoiseSpec(rng_seed=3))])
        assert [v.ground_truth.video_id for v in videos] == ["video00", "video01", "video02"]
        for video in videos:
            labels = _label_arrays(video)
            assert all(np.shares_memory(labels[0], y) for y in labels[1:])
