import contextlib
import filecmp
import gc
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
import weakref
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import attention_smooth_loop
from phasekit import cli
from phasekit import fork as fork_layer
from phasekit.calibration import fit_temperature, reliability_bins
from phasekit.cli import main
from phasekit.inference import baseline_argmax, load_traces
from phasekit.logits import LogitSequence, load_bank, load_logits, save_logits
from phasekit.report import load_results_json
from phasekit.workflow import load_timelines


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Commands fork as on a host with two CPUs, whatever this one has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """One simulated dataset directory shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("data")
    val, test = root / "val", root / "test"
    for out, seed in ((val, 7), (test, 8)):
        rc = main([
            "simulate", "--videos", "2", "--frames-mean", "350",
            "--seed", str(seed), "--out", str(out),
        ])
        assert rc == 0
    return val, test


class TestSimulate:
    def test_writes_dataset_and_echo(self, small_dataset):
        val, _ = small_dataset
        assert (val / "gt.csv").exists()
        assert (val / "baseline.csv").exists()
        assert (val / "bank" / "trans_6_7.csv").exists()
        echo = (val / "config.txt").read_text()
        assert "seed = 7" in echo
        assert "out" not in echo.splitlines()[0]

    @pytest.mark.parametrize("prefix", ["a,b", "#v", "a\nb", "a\rb", " v", "v\t"])
    def test_unreadable_prefix_rejected_and_writes_nothing(self, tmp_path, capsys, prefix):
        out = tmp_path / "data"
        rc = main(["simulate", "--videos", "1", "--frames-mean", "140", "--prefix", prefix, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: argument --prefix: ")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0.9,0.9", "0.9,0.9,0.9,0.9,0.9,0.9,0.9"])
    def test_pair_acc_of_wrong_length_rejected_and_writes_nothing(self, tmp_path, capsys, value):
        out = tmp_path / "data"
        rc = main(["simulate", "--videos", "1", "--frames-mean", "140", "--pair-acc", value, "--out", str(out)])
        assert rc == 2
        count = value.count(",") + 1
        assert capsys.readouterr().err == (
            f"error: argument --pair-acc: takes 1 or 6 comma-separated values, got {count}\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0.9,,0.9"])
    def test_pair_acc_not_a_number_rejected_and_writes_nothing(self, tmp_path, capsys, value):
        out = tmp_path / "data"
        rc = main(["simulate", "--videos", "1", "--frames-mean", "140", "--pair-acc", value, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: argument --pair-acc: takes 1 or 6 comma-separated numbers, got {value!r}\n")
        assert not out.exists()

    def test_negative_attention_smooth_rejected_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "data"
        rc = main(["simulate", "--videos", "1", "--frames-mean", "140", "--attention-smooth", "-3", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: argument --attention-smooth: must be an integer >= 0, got '-3'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("simulate", "--frames-mean", "inf",
         "error: argument --frames-mean: must be a number in [7, 1000000], got 'inf'"),
        ("pipeline", "--frames-mean", "1e308",
         "error: argument --frames-mean: must be a number in [7, 1000000], got '1e308'"),
        ("pipeline", "--frames-mean", "0", "error: argument --frames-mean: must be a number in [7, 1000000], got '0'"),
        ("simulate", "--frames-mean", "6.9",
         "error: argument --frames-mean: must be a number in [7, 1000000], got '6.9'"),
        ("simulate", "--frames-mean", "1000001",
         "error: argument --frames-mean: must be a number in [7, 1000000], got '1000001'"),
        ("simulate", "--seed", "-1", "error: argument --seed: must be an integer >= 0, got '-1'"),
        ("simulate", "--overconfidence", "inf",
         "error: argument --overconfidence: must be a number in [1, inf), got 'inf'"),
        ("pipeline", "--overconfidence", "nan",
         "error: argument --overconfidence: must be a number in [1, inf), got 'nan'"),
        ("pipeline", "--seed", "-1", "error: argument --seed: must be an integer >= 0, got '-1'"),
        ("simulate", "--overconfidence", "0.5",
         "error: argument --overconfidence: must be a number in [1, inf), got '0.5'"),
        ("simulate", "--base-acc", "0.1", "error: argument --base-acc: must be a number in (1/7, 1], got '0.1'"),
        ("pipeline", "--base-acc", "1.5", "error: argument --base-acc: must be a number in (1/7, 1], got '1.5'"),
        ("simulate", "--pair-acc", "0.5", "error: argument --pair-acc: takes accuracies in (0.5, 1], got 0.5"),
        ("pipeline", "--pair-acc", "0.9,0.9,0.9,nan,0.9,0.9",
         "error: argument --pair-acc: takes accuracies in (0.5, 1], got nan"),
        ("simulate", "--dwell-min", "1000",
         "error: argument --dwell-min: must be at most the mean dwell, --frames-mean / 7 = 20.0, got 1000"),
        ("pipeline", "--dwell-min", "21",
         "error: argument --dwell-min: must be at most the mean dwell, --frames-mean / 7 = 20.0, got 21"),
    ], ids=["frames_mean_inf", "frames_mean_1e308", "frames_mean_0", "frames_mean_6.9", "frames_mean_1000001",
            "negative_seed", "overconfidence_inf", "pipeline_overconfidence_nan",
            "pipeline_negative_seed", "overconfidence_below_1", "base_acc_0.1", "pipeline_base_acc_1.5",
            "pair_acc_0.5", "pipeline_pair_acc_nan", "dwell_min_1000", "pipeline_dwell_min_21"])
    def test_bad_simulation_value_rejected_and_writes_nothing(self, tmp_path, capsys, command, flag, value, message):
        out = tmp_path / "data"
        rc = main([command, "--frames-mean", "140", flag, value, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_overflowing_attention_scores_rejected_and_write_nothing(self, tmp_path, capsys, command):
        out = tmp_path / "data"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([command, "--overconfidence", "1e160", "--attention-smooth", "3", "--frames-mean", "140",
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        stage = "error in stage simulate: " if command == "pipeline" else "error: "
        first = "val00" if command == "pipeline" else "video00"
        assert re.fullmatch(re.escape(f"{stage}attention scores overflow in video '{first}': ") + ".*\n", err)
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    def test_output_is_loadable_and_consistent(self, small_dataset):
        val, _ = small_dataset
        gts = load_timelines(val / "gt.csv")
        bases = load_logits(val / "baseline.csv")
        bank = load_bank(val / "bank")
        assert sorted(gts) == ["video00", "video01"]
        for vid, gt in gts.items():
            assert bases[vid].num_frames == len(gt) == bank.frame_count(vid)

    SMALL = ["simulate", "--videos", "3", "--frames-mean", "140", "--seed", "7"]

    def test_forked_writer_matches_inline_writer(self, tmp_path, capsys, monkeypatch):
        """The videos and then the dataset files go through the job queue: two
        forks, and the tree and output of simulating and writing them in this
        process, where os.fork is missing."""
        out = tmp_path / "data"
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert main([*self.SMALL, "--out", str(out)]) == 0
        forked, tree = capsys.readouterr(), _tree(out)
        assert forks == [1, 1]
        shutil.rmtree(out)
        monkeypatch.delattr(os, "fork")
        assert main([*self.SMALL, "--out", str(out)]) == 0
        assert capsys.readouterr() == forked
        assert _tree(out) == tree

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="one process writes every file")
    def test_each_dataset_file_is_written_once_by_one_process(self, tmp_path, monkeypatch):
        """Both processes claim files from the queue, and no file is claimed
        twice. The child holds its first file until the parent has claimed one."""
        parent, log, parent_claimed = os.getpid(), tmp_path / "writes.log", tmp_path / "parent_claimed"

        def wrap(write):
            def logged_writer(items, path):
                if os.getpid() == parent:
                    parent_claimed.touch()
                else:
                    _wait_for(parent_claimed)
                _append_line(log, f"{os.getpid()} {path}")
                write(items, path)
            return logged_writer

        TestPipeline._wrap_writers(monkeypatch, wrap)
        out = tmp_path / "data"
        assert main([*self.SMALL, "--out", str(out)]) == 0
        claims = [line.split(" ", 1) for line in log.read_text().splitlines()]
        files = sorted(str(f) for f in out.rglob("*.csv"))
        assert len(files) == 8
        assert sorted(path for _, path in claims) == files
        pids = {pid for pid, _ in claims}
        assert len(pids) == 2 and str(parent) in pids

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="one process writes every file")
    def test_failed_write_names_the_file_and_the_others_are_written(self, tmp_path, capsys):
        """A directory in the place of one bank file fails its write only."""
        out = tmp_path / "data"
        in_the_way = out / "bank" / "trans_3_4.csv"
        in_the_way.mkdir(parents=True)
        assert main([*self.SMALL, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert str(in_the_way) in captured.err
        assert captured.out == ""
        written = {f.relative_to(out).as_posix() for f in out.rglob("*.csv") if f.is_file()}
        assert written == {"baseline.csv", "gt.csv", *(f"bank/trans_{i}_{i + 1}.csv" for i in (1, 2, 4, 5, 6))}
        assert not (out / "config.txt").exists()

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_failed_writes_without_fork_stop_no_other_write(self, tmp_path, capsys, monkeypatch, command):
        """Where os.fork is missing, every dataset file is still written but
        the two with a directory in their place, and the error is the first of
        them in queue order, as with a fork."""
        monkeypatch.delattr(os, "fork")
        out = tmp_path / "data"
        if command == "simulate":
            argv, first, second = [*self.SMALL, "--out", str(out)], "bank/trans_3_4.csv", "bank/trans_5_6.csv"
        else:  # the queue interleaves the splits, test first
            argv, first, second = (["pipeline", *TestPipeline.TINY, "--out", str(out)], "test/bank/trans_3_4.csv",
                                   "val/bank/trans_5_6.csv")
        for blocked in (second, first):
            (out / blocked).mkdir(parents=True)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out / first) in err and str(out / second) not in err, err
        written = {f.relative_to(out).as_posix() for f in out.rglob("*.csv") if f.is_file()}
        dataset = {f"{split}{name}" for split in (("",) if command == "simulate" else ("val/", "test/"))
                   for name in ("baseline.csv", "gt.csv", *(f"bank/trans_{i}_{i + 1}.csv" for i in range(1, 7)))}
        assert {f for f in written if f in dataset} == dataset - {first, second}


class TestCalibrate:
    def test_report_files(self, small_dataset, tmp_path, capsys):
        val, test = small_dataset
        out = tmp_path / "cal"
        rc = main(["calibrate", "--val", str(val), "--test", str(test),
                   "--bins", "15", "--out", str(out / "report.json")])
        assert rc == 0
        results = load_results_json(out / "report.json")
        assert results["calibration.temperature"] == pytest.approx(2.5, rel=0.25)
        assert results["calibration.nll_after"] < results["calibration.nll_before"]
        assert (out / "report.txt").exists()
        assert (out / "reliability_before.csv").exists()
        assert (out / "config.txt").exists()
        assert "calibrated" in capsys.readouterr().out

    def test_include_bank_temperatures(self, small_dataset, tmp_path):
        val, test = small_dataset
        out = tmp_path / "cal"
        rc = main(["calibrate", "--val", str(val), "--test", str(test),
                   "--include-bank", "--out", str(out)])
        assert rc == 0
        results = load_results_json(out / "report.json")
        assert "calibration.bank.trans_1_2.temperature" in results

    def test_one_binning_pass_per_temperature(self, small_dataset, tmp_path, monkeypatch):
        """The test split is binned once at T=1 and once at the fitted T, for
        the ECEs and the reliability files both."""
        val, test = small_dataset
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return reliability_bins(*args, **kwargs)

        monkeypatch.setattr(cli.calibration, "reliability_bins", counted)
        assert main(["calibrate", "--val", str(val), "--test", str(test), "--include-bank",
                     "--out", str(tmp_path / "cal")]) == 0
        assert len(calls) == 2

    def test_bad_bins_writes_nothing(self, small_dataset, tmp_path, capsys):
        val, test = small_dataset
        out = tmp_path / "cal"
        rc = main(["calibrate", "--val", str(val), "--test", str(test), "--bins", "0", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: argument --bins: must be an integer >= 1, got '0'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "pipeline"])
    def test_bins_beyond_the_cap_rejected_and_write_nothing(self, small_dataset, tmp_path, capsys, command):
        val, test = small_dataset
        out = tmp_path / "out"
        flags = ["--val", str(val), "--test", str(test)] if command == "calibrate" else []
        assert main([command, *flags, "--bins", "1000001", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: argument --bins: must be an integer <= 1000000, got '1000001'\n"
        assert not out.exists()

    def test_unlabeled_validation_named_and_writes_nothing(self, small_dataset, tmp_path, capsys):
        val, test = small_dataset
        unlabeled = _unlabeled_copy(val, tmp_path / "val")
        out = tmp_path / "cal"
        rc = main(["calibrate", "--val", str(unlabeled), "--test", str(test), "--out", str(out)])
        assert rc == 2
        assert "sequence 'video00' carries no labels" in capsys.readouterr().err
        assert not out.exists()

    def test_unlabeled_test_split_named_and_writes_nothing(self, small_dataset, tmp_path, capsys):
        val, test = small_dataset
        unlabeled = _unlabeled_copy(test, tmp_path / "test")
        out = tmp_path / "cal"
        rc = main(["calibrate", "--val", str(val), "--test", str(unlabeled), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {unlabeled / 'baseline.csv'}: sequence 'video00' carries no labels\n")
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["val", "test", "bank"])
    def test_overflowing_nll_rejected_and_writes_nothing(self, tmp_path, capsys, bad):
        """An NLL that overflows while T is fitted on the validation split or
        on a bank pair, or applied to the test split, names that file."""
        header = "video_id,frame_idx,label,z1,z2\n"
        fine = "v,0,1,2.0,0.0\nv,1,2,2.0,0.0\nv,2,2,0.0,2.0\nv,3,1,1.0,0.0\n"
        val, test = tmp_path / "val", tmp_path / "test"
        files = {val / "baseline.csv": fine, test / "baseline.csv": fine}
        files.update({val / "bank" / f"trans_{i}_{i + 1}.csv": fine for i in range(1, 7)})
        bad_file = {"val": val / "baseline.csv", "test": test / "baseline.csv",
                    "bank": val / "bank" / "trans_1_2.csv"}[bad]
        files[bad_file] = "v,0,2,1e308,-1e308\nv,1,1,0.0,0.0\nv,2,2,0.0,2.0\nv,3,1,1.0,0.0\n"
        for path, body in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(header + body)
        out = tmp_path / "cal"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["calibrate", "--val", str(val), "--test", str(test), "--out", str(out),
                       *(["--include-bank"] if bad == "bank" else [])])
        assert rc == 2
        err = capsys.readouterr().err
        # the test split overflows at T = 1; a fit, at its first probe
        temperature = re.escape("1.0") if bad == "test" else r"[0-9.]+"
        assert re.fullmatch(rf"error: {re.escape(str(bad_file))}: NLL is not finite at temperature {temperature}: "
                            r"the scaled logits overflow\n", err), err
        assert [str(w.message) for w in caught] == []
        assert not out.exists()


class TestInfer:
    def test_transition_strategy(self, small_dataset, tmp_path):
        _, test = small_dataset
        out = tmp_path / "pred.csv"
        trace = tmp_path / "trace.csv"
        rc = main(["infer", "--strategy", "transition", "--bank", str(test / "bank"),
                   "--buffer", "50", "--trace", str(trace), "--out", str(out)])
        assert rc == 0
        preds = load_timelines(out)
        assert sorted(preds) == ["video00", "video01"]
        assert set(load_traces(trace)) == {"video00", "video01"}
        assert "resolved_" not in (tmp_path / "config.txt").read_text()

    def test_trace_into_a_new_directory(self, small_dataset, tmp_path, capsys):
        """The trace's directory is made as --out's is, though the two differ."""
        _, test = small_dataset
        trace, out = tmp_path / "new" / "trace.csv", tmp_path / "other" / "timeline.csv"
        rc = main(["infer", "--strategy", "transition", "--bank", str(test / "bank"),
                   "--trace", str(trace), "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        assert set(load_traces(trace)) == set(load_timelines(out)) == {"video00", "video01"}
        assert (out.parent / "config.txt").exists()

    def test_confidence_with_auto_temperature(self, small_dataset, tmp_path, capsys):
        val, test = small_dataset
        out = tmp_path / "pred.csv"
        rc = main(["infer", "--strategy", "confidence", "--base", str(test / "baseline.csv"),
                   "--bank", str(test / "bank"), "--temperature", "auto", "--val", str(val),
                   "--out", str(out)])
        assert rc == 0
        assert "fitted temperature" in capsys.readouterr().out
        echo = (tmp_path / "config.txt").read_text()
        assert "resolved_temperature" in echo

    def test_auto_temperature_on_overflowing_validation_named_and_writes_nothing(self, small_dataset, tmp_path, capsys):
        val, test = small_dataset
        bad = tmp_path / "val"
        shutil.copytree(val, bad)
        lines = (val / "baseline.csv").read_text().splitlines()
        cells = lines[2].split(",")
        lines[2] = ",".join([*cells[:3], "1e308", "-1e308", *["0"] * (len(cells) - 5)])
        (bad / "baseline.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "inf"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["infer", "--strategy", "confidence", "--base", str(test / "baseline.csv"),
                       "--bank", str(test / "bank"), "--temperature", "auto", "--val", str(bad),
                       "--out", str(out / "pred.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert re.fullmatch(rf"error: {re.escape(str(bad / 'baseline.csv'))}: NLL is not finite at temperature "
                            r"[0-9.]+: the scaled logits overflow\n", captured.err), captured.err
        assert captured.out == ""
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    @pytest.mark.parametrize("sweep", [False, True], ids=["base", "sweep"])
    def test_temperature_overflowing_the_logits_named_and_writes_nothing(self, small_dataset, tmp_path, capsys, sweep):
        """At --temperature 1e-308 the scaled logits overflow: the error names
        --base, or --val's baseline.csv, which the sweep scales first, and
        no file is written, with no warning."""
        val, test = small_dataset
        out = tmp_path / "inf"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["infer", "--strategy", "confidence", "--base", str(test / "baseline.csv"),
                       "--bank", str(test / "bank"), "--temperature", "1e-308",
                       *(["--sweep", "--val", str(val)] if sweep else []),
                       "--trace", str(out / "trace.csv"), "--out", str(out / "pred.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        named = val / "baseline.csv" if sweep else test / "baseline.csv"
        assert captured.err == (f"error: {named}: softmax is not finite at temperature 1e-308: "
                                "the scaled logits overflow\n")
        assert captured.out == ""
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    def test_sweep_with_transition_strategy_rejected_and_writes_nothing(self, small_dataset, tmp_path, capsys):
        """--sweep, --temperature, --threshold, --base and --val each apply only to the confidence strategy."""
        val, test = small_dataset
        out = tmp_path / "inf"
        for flags, named in ((["--sweep"], "--sweep"), (["--temperature", "auto"], "--temperature auto"),
                             (["--temperature", "3"], "--temperature"), (["--threshold", "0.9"], "--threshold"),
                             (["--base", str(tmp_path / "X")], "--base"), ([], "--val")):
            rc = main(["infer", "--strategy", "transition", "--bank", str(test / "bank"), *flags, "--val", str(val),
                       "--out", str(out / "pred.csv")])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: {named} applies only to --strategy confidence\n"
            assert captured.out == ""
            assert not out.exists()

    def test_val_without_auto_or_sweep_rejected_and_writes_nothing(self, small_dataset, tmp_path, capsys):
        """The confidence strategy reads --val only to fit T or sweep the threshold."""
        _, test = small_dataset
        out = tmp_path / "inf"
        rc = main(["infer", "--strategy", "confidence", "--base", str(test / "baseline.csv"), "--bank",
                   str(test / "bank"), "--val", str(tmp_path / "nonexistent"), "--out", str(out / "pred.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --val applies only with --temperature auto or --sweep\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["transition", "confidence"])
    @pytest.mark.parametrize("value", ["abc", "0", "-1", "nan", "inf", ""])
    def test_bad_temperature_rejected_and_writes_nothing(self, small_dataset, tmp_path, capsys, strategy, value):
        _, test = small_dataset
        rc = main(["infer", "--strategy", strategy, "--base", str(test / "baseline.csv"),
                   "--bank", str(test / "bank"), "--temperature", value, "--out", str(tmp_path / "inf" / "pred.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: argument --temperature: must be a positive finite number or 'auto', got {value!r}\n")
        assert not (tmp_path / "inf").exists()

    def test_threshold_zero_matches_baseline_argmax(self, small_dataset, tmp_path):
        _, test = small_dataset
        out = tmp_path / "pred.csv"
        rc = main(["infer", "--strategy", "confidence", "--base", str(test / "baseline.csv"),
                   "--bank", str(test / "bank"), "--threshold", "0", "--out", str(out)])
        assert rc == 0
        preds = load_timelines(out)
        for vid, seq in load_logits(test / "baseline.csv").items():
            assert np.array_equal(preds[vid].labels, baseline_argmax(seq).labels)

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: [r[:5] for r in rows], re.escape("baseline logits must have K=7, got K=2")),
        (lambda rows: [["zz", *r[1:]] if r[0] == "video01" else r for r in rows],
         re.escape("bank does not cover video 'zz'")),
        # the last video in id order, so a writer that streams would have written the first
        (lambda rows: rows[:-1], r"bank frame count \d+ does not match baseline frame count \d+ for video 'video01'"),
    ], ids=["k2", "unknown_video", "last_video_short"])
    def test_baseline_not_matching_bank_named_and_writes_nothing(self, small_dataset, tmp_path, capsys, edit, message):
        """Neither the --out nor the --trace file is left, whichever video fails."""
        _, test = small_dataset
        rows = [line.split(",") for line in (test / "baseline.csv").read_text().splitlines()]
        assert rows[-1][0] == "video01"
        base = tmp_path / "baseline.csv"
        base.write_text("\n".join(",".join(r) for r in edit(rows)) + "\n")
        out, trace = tmp_path / "inf", tmp_path / "trace"
        rc = main(["infer", "--strategy", "confidence", "--base", str(base), "--bank", str(test / "bank"),
                   "--trace", str(trace / "trace.csv"), "--out", str(out / "pred.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {re.escape(str(base))}: {message}\n", err), err
        assert not out.exists() and not trace.exists()

    def test_missing_bank_names_pair_file(self, small_dataset, tmp_path, capsys):
        _, test = small_dataset
        rc = main(["infer", "--strategy", "transition", "--bank", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "pred.csv")])
        assert rc == 2
        assert "trans_1_2" in capsys.readouterr().err

    def test_non_finite_baseline_names_line(self, small_dataset, tmp_path, capsys):
        _, test = small_dataset
        rows = [line.split(",") for line in (test / "baseline.csv").read_text().splitlines()]
        rows[4][5] = "nan"
        base = tmp_path / "baseline.csv"
        base.write_text("\n".join(",".join(r) for r in rows) + "\n")
        rc = main(["infer", "--strategy", "confidence", "--base", str(base),
                   "--bank", str(test / "bank"), "--out", str(tmp_path / "pred.csv")])
        assert rc == 2
        assert f"{base}:5:" in capsys.readouterr().err

    def test_auto_temperature_with_sweep_reads_validation_once(self, small_dataset, tmp_path, monkeypatch):
        """Counted in both processes that parse the command's input files."""
        val, test = small_dataset
        log = tmp_path / "reads.log"

        def counting_load(path):
            _append_line(log, str(path))
            return load_logits(path)

        monkeypatch.setattr(cli, "load_logits", counting_load)
        rc = main(["infer", "--strategy", "confidence", "--base", str(test / "baseline.csv"),
                   "--bank", str(test / "bank"), "--temperature", "auto", "--sweep", "--val", str(val),
                   "--out", str(tmp_path / "pred.csv")])
        assert rc == 0
        assert log.read_text().splitlines().count(str(val / "baseline.csv")) == 1
        val_base = load_logits(val / "baseline.csv")
        fitted = fit_temperature([val_base[v] for v in sorted(val_base)])
        assert f"resolved_temperature = {fitted.value!r}" in (tmp_path / "config.txt").read_text()

    def test_sweep_prints_grid(self, small_dataset, tmp_path, capsys):
        val, test = small_dataset
        rc = main(["infer", "--strategy", "confidence", "--base", str(test / "baseline.csv"),
                   "--bank", str(test / "bank"), "--sweep", "--val", str(val),
                   "--out", str(tmp_path / "pred.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "t_conf=0.1" in out and "t_conf=0.9" in out and "<- best" in out
        best = re.search(r"t_conf=([0-9.]+) .*<- best", out)[1]
        echo = (tmp_path / "config.txt").read_text().splitlines()
        assert "threshold = 0.5" in echo and f"resolved_threshold = {best}" in echo

    @pytest.mark.parametrize("given", ["flag", "config", "config_default"])
    def test_threshold_with_sweep_rejected_and_writes_nothing(self, small_dataset, tmp_path, capsys, given):
        """The sweep picks the threshold, so a given one is an error, even at the default's value."""
        val, test = small_dataset
        cfg = tmp_path / "infer.cfg"
        cfg.write_text("threshold = 0.5\n" if given == "config_default" else "sweep = on\nthreshold = 0.2\n")
        flags = ["--sweep", "--threshold", "0.2"] if given == "flag" else ["--config", str(cfg)]
        if given == "config_default":
            flags.append("--sweep")
        out = tmp_path / "inf"
        rc = main(["infer", "--strategy", "confidence", "--base", str(test / "baseline.csv"),
                   "--bank", str(test / "bank"), "--val", str(val), *flags, "--out", str(out / "pred.csv")])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: --threshold applies only without --sweep\n")
        assert not out.exists()

    def test_auto_temperature_on_a_search_bound_says_so(self, small_dataset, tmp_path, capsys):
        """Every validation frame labeled with its own argmax: the NLL falls
        with T down to the low search bound, and the fitted line says so."""
        val, test = small_dataset
        seqs = load_logits(val / "baseline.csv")
        right = tmp_path / "val"
        right.mkdir()
        save_logits([LogitSequence(vid, seqs[vid].logits, labels=seqs[vid].logits.argmax(axis=1) + 1)
                     for vid in sorted(seqs)], right / "baseline.csv")
        rc = main(["infer", "--strategy", "confidence", "--base", str(test / "baseline.csv"),
                   "--bank", str(test / "bank"), "--temperature", "auto", "--val", str(right),
                   "--out", str(tmp_path / "pred.csv")])
        assert rc == 0
        assert capsys.readouterr().out.startswith(
            "fitted temperature on validation split: 0.01 (at the search bound)\n")
        assert "resolved_temperature = 0.01" in (tmp_path / "config.txt").read_text().splitlines()

    def test_sweep_names_video_without_ground_truth(self, small_dataset, tmp_path, capsys):
        val, test = small_dataset
        partial = tmp_path / "val"
        shutil.copytree(val, partial)
        kept = [line for line in (val / "gt.csv").read_text().splitlines() if not line.startswith("video01,")]
        (partial / "gt.csv").write_text("\n".join(kept) + "\n")
        rc = main(["infer", "--strategy", "confidence", "--base", str(test / "baseline.csv"),
                   "--bank", str(test / "bank"), "--sweep", "--val", str(partial),
                   "--out", str(tmp_path / "pred.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {partial / 'baseline.csv'} and {partial / 'gt.csv'}: missing ground truth for videos: video01\n")
        assert not (tmp_path / "pred.csv").exists()

    def test_sweep_names_video_with_short_ground_truth(self, small_dataset, tmp_path, capsys):
        val, test = small_dataset
        partial = tmp_path / "val"
        shutil.copytree(val, partial)
        _truncate_video(partial / "gt.csv", "video01", 100)
        frames = load_logits(val / "baseline.csv")["video01"].num_frames
        rc = main(["infer", "--strategy", "confidence", "--base", str(test / "baseline.csv"),
                   "--bank", str(test / "bank"), "--sweep", "--val", str(partial),
                   "--out", str(tmp_path / "pred.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: {partial / 'baseline.csv'} and {partial / 'gt.csv'}: "
                                           "frame counts differ from ground truth: "
                                           f"video01: {frames} frames, ground truth 100\n")
        assert not (tmp_path / "pred.csv").exists()


def _unlabeled_copy(split, dst):
    """Copy the dataset directory ``split`` to ``dst`` with every baseline label set to 0."""
    shutil.copytree(split, dst)
    lines = (split / "baseline.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[2] = "0"
    (dst / "baseline.csv").write_text("\n".join([lines[0], *(",".join(r) for r in rows)]) + "\n")
    return dst


def _truncate_video(gt, vid, keep):
    """Keep only the first ``keep`` rows of ``vid`` in the timeline file ``gt``."""
    lines = gt.read_text().splitlines()
    kept = [line for line in lines if not line.startswith(f"{vid},") or int(line.split(",")[1]) < keep]
    gt.write_text("\n".join(kept) + "\n")


class TestEvaluate:
    def test_outputs(self, small_dataset, tmp_path, capsys):
        _, test = small_dataset
        pred = tmp_path / "pred.csv"
        trace = tmp_path / "trace.csv"
        main(["infer", "--strategy", "transition", "--bank", str(test / "bank"),
              "--trace", str(trace), "--out", str(pred)])
        out = tmp_path / "eval"
        rc = main(["evaluate", "--pred", str(pred), "--gt", str(test / "gt.csv"),
                   "--trace", str(trace), "--out", str(out)])
        assert rc == 0
        results = load_results_json(out / "results.json")
        assert 0.0 <= results["accuracy.pooled"] <= 1.0
        assert (out / "evaluation.txt").exists()
        assert (out / "ribbon_video00.svg").exists()
        assert "accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize("formats", ["text", "json", "svg", "json,svg"])
    def test_format_selects_the_files(self, small_dataset, tmp_path, formats):
        _, test = small_dataset
        pred = tmp_path / "pred.csv"
        main(["infer", "--strategy", "transition", "--bank", str(test / "bank"), "--out", str(pred)])
        out = tmp_path / "eval"
        rc = main(["evaluate", "--pred", str(pred), "--gt", str(test / "gt.csv"), "--format", formats,
                   "--out", str(out)])
        assert rc == 0
        by_format = {"text": {"evaluation.txt"}, "json": {"results.json"},
                     "svg": {"ribbon_video00.svg", "ribbon_video01.svg"}}
        assert {p.name for p in out.iterdir()} == {"config.txt"}.union(*(by_format[f] for f in formats.split(",")))

    @pytest.mark.parametrize("column, value", [
        (1, "99999"),  # beyond the end of the timeline
        (1, "-3"),  # would otherwise index from the end
        (2, "trans_9_9"),  # names no transition pair
    ])
    def test_bad_trace_row_names_line(self, small_dataset, tmp_path, capsys, column, value):
        _, test = small_dataset
        pred = tmp_path / "pred.csv"
        trace = tmp_path / "trace.csv"
        main(["infer", "--strategy", "transition", "--bank", str(test / "bank"),
              "--trace", str(trace), "--out", str(pred)])
        rows = [line.split(",") for line in trace.read_text().splitlines()]
        rows[5][column] = value
        trace.write_text("\n".join(",".join(r) for r in rows) + "\n")
        rc = main(["evaluate", "--pred", str(pred), "--gt", str(test / "gt.csv"),
                   "--trace", str(trace), "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert f"{trace}:6:" in capsys.readouterr().err

    def test_short_ground_truth_named_and_writes_nothing(self, small_dataset, tmp_path, capsys):
        _, test = small_dataset
        pred = tmp_path / "pred.csv"
        main(["infer", "--strategy", "transition", "--bank", str(test / "bank"), "--out", str(pred)])
        gt = tmp_path / "gt.csv"
        shutil.copy(test / "gt.csv", gt)
        _truncate_video(gt, "video00", 100)
        frames = len(load_timelines(pred)["video00"])
        out = tmp_path / "eval"
        rc = main(["evaluate", "--pred", str(pred), "--gt", str(gt), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {pred} and {gt}: frame counts differ from ground truth: video00: {frames} frames, ground truth 100\n")
        assert not out.exists()

    def test_prediction_without_ground_truth_named_and_writes_nothing(self, small_dataset, tmp_path, capsys):
        _, test = small_dataset
        pred = tmp_path / "pred.csv"
        main(["infer", "--strategy", "transition", "--bank", str(test / "bank"), "--out", str(pred)])
        pred.write_text(pred.read_text().replace("video01,", "zz,"))
        out = tmp_path / "eval"
        rc = main(["evaluate", "--pred", str(pred), "--gt", str(test / "gt.csv"), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {pred} and {test / 'gt.csv'}: missing ground truth for videos: zz\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda trace: _truncate_video(trace, "video01", 100),
         "frame counts differ from ground truth: video01: 100 frames, ground truth {frames}"),
        (lambda trace: trace.write_text(trace.read_text().replace("video01,", "zz,")),
         "missing ground truth for videos: zz"),
    ], ids=["short", "unknown_video"])
    def test_trace_without_matching_ground_truth_named_and_writes_nothing(
        self, small_dataset, tmp_path, capsys, edit, message
    ):
        _, test = small_dataset
        pred, trace = tmp_path / "pred.csv", tmp_path / "trace.csv"
        main(["infer", "--strategy", "transition", "--bank", str(test / "bank"),
              "--trace", str(trace), "--out", str(pred)])
        edit(trace)
        frames = len(load_timelines(test / "gt.csv")["video01"])
        out = tmp_path / "eval"
        rc = main(["evaluate", "--pred", str(pred), "--gt", str(test / "gt.csv"),
                   "--trace", str(trace), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {trace} and {test / 'gt.csv'}: {message.format(frames=frames)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", [",", " , ,", ""])
    def test_empty_format_list_rejected_and_writes_nothing(self, small_dataset, tmp_path, capsys, value):
        _, test = small_dataset
        out = tmp_path / "eval"
        rc = main(["evaluate", "--pred", str(test / "gt.csv"), "--gt", str(test / "gt.csv"),
                   "--format", value, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: argument --format: names no format in {value!r}; choose from text, json, svg\n")
        assert not out.exists()

    def test_missing_prediction_file_writes_nothing(self, small_dataset, tmp_path, capsys):
        _, test = small_dataset
        out = tmp_path / "eval"
        rc = main(["evaluate", "--pred", str(tmp_path / "absent.csv"), "--gt", str(test / "gt.csv"),
                   "--out", str(out)])
        assert rc == 2
        assert "absent.csv" in capsys.readouterr().err
        assert not out.exists()

    def test_report_missing_results_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "render"
        rc = main(["report", "--results", str(tmp_path / "absent.json"), "--out", str(out)])
        assert rc == 2
        assert "absent.json" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", [
        '{"calibration.nll_before": "0.5", "calibration.nll_after": 0.4, "calibration.ece_before": 0.1, '
        '"calibration.ece_after": 0.05, "calibration.temperature": 2.0}',
        "[1, 2]",
        '{"accuracy.pooled": 0.5',
        '{"strategy.x.accuracy.pooled": 0.5}',
        '{"calibration.nll_before": null}',
        '{"video.case.00.cascade.count": 1, "video.case.00.cascade.0.start": 3, "video.case.00.cascade.0.state": 2}',
        '{"video.v.cascade.count": 1, "video.v.cascade.0.start": 3.5, "video.v.cascade.0.end": 9, '
        '"video.v.cascade.0.state": 2}',
    ], ids=["string", "list", "malformed", "missing_sibling", "null_calibration", "cascade_missing_end",
            "cascade_fractional_start"])
    def test_report_bad_results_named_and_writes_nothing(self, tmp_path, capsys, content):
        results = tmp_path / "results.json"
        results.write_text(content)
        out = tmp_path / "render"
        rc = main(["report", "--results", str(results), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {results}: ")
        assert not out.exists()

    def test_report_deeply_nested_results_is_one_error_line(self, tmp_path, capsys):
        """JSON nested past the parser's recursion limit is not a results
        file; it must not end in a RecursionError traceback."""
        results = tmp_path / "results.json"
        results.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "render"
        assert main(["report", "--results", str(results), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {results}: not a JSON results file: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_report_rerenders(self, small_dataset, tmp_path):
        _, test = small_dataset
        pred = tmp_path / "pred.csv"
        main(["infer", "--strategy", "transition", "--bank", str(test / "bank"), "--out", str(pred)])
        eval_dir = tmp_path / "eval"
        main(["evaluate", "--pred", str(pred), "--gt", str(test / "gt.csv"),
              "--out", str(eval_dir), "--format", "json"])
        out = tmp_path / "rerender"
        rc = main(["report", "--results", str(eval_dir / "results.json"), "--out", str(out)])
        assert rc == 0
        assert "Prediction accuracy on in-pair frames" in (out / "report.txt").read_text()

    @pytest.mark.parametrize("flags", [["--format", "svg"], ["--pred", "x"]])
    def test_report_removed_flags_rejected_and_write_nothing(self, tmp_path, capsys, flags):
        results = tmp_path / "results.json"
        results.write_text("{}")
        out = tmp_path / "render"
        rc = main(["report", "--results", str(results), *flags, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: unrecognized arguments: {' '.join(flags)}\n"
        assert not out.exists()


class TestReport:
    @pytest.mark.parametrize("case", [
        "evaluate", "evaluate_trace", "evaluate_trace_dotted_ids", "pipeline", "calibrate",
    ])
    def test_rerenders_the_text_beside_its_results_byte_for_byte(self, small_dataset, tmp_path, capsys, case):
        val, test = small_dataset
        if case == "evaluate_trace_dotted_ids":
            test = tmp_path / "dotted"
            assert main(["simulate", "--videos", "2", "--prefix", "case.", "--frames-mean", "350",
                         "--seed", "8", "--out", str(test)]) == 0
        if case.startswith("evaluate"):
            pred, trace, run = tmp_path / "pred.csv", tmp_path / "trace.csv", tmp_path / "eval"
            assert main(["infer", "--strategy", "transition", "--bank", str(test / "bank"),
                         "--trace", str(trace), "--out", str(pred)]) == 0
            trace_flags = ["--trace", str(trace)] if "trace" in case else []
            assert main(["evaluate", "--pred", str(pred), "--gt", str(test / "gt.csv"), *trace_flags,
                         "--out", str(run)]) == 0
            results, text = run / "results.json", run / "evaluation.txt"
        elif case == "pipeline":
            run = tmp_path / "run"
            assert main(["pipeline", "--out", str(run), "--frames-mean", "420",
                         "--val-videos", "1", "--test-videos", "2", "--seed", "3"]) == 0
            results, text = run / "evaluation" / "results.json", run / "evaluation" / "report.txt"
        else:
            run = tmp_path / "cal"
            assert main(["calibrate", "--val", str(val), "--test", str(test), "--include-bank",
                         "--out", str(run)]) == 0
            results, text = run / "report.json", run / "report.txt"
        if "trace" in case:
            assert "Cascade runs" in text.read_text()
        if case == "evaluate_trace_dotted_ids":
            assert "cascades for case.01:" in text.read_text()
        capsys.readouterr()
        out = tmp_path / "render"
        assert main(["report", "--results", str(results), "--out", str(out)]) == 0
        assert (out / "report.txt").read_bytes() == text.read_bytes()
        assert capsys.readouterr().out == text.read_text()

    def test_a_fit_on_a_bound_rerenders_with_its_suffix(self, tmp_path, capsys):
        val, test = _bound_splits(tmp_path)
        run = tmp_path / "cal"
        assert main(["calibrate", "--val", str(val), "--test", str(test), "--out", str(run)]) == 0
        text = (run / "report.txt").read_text()
        assert text.endswith("fitted temperature = 0.01 (at the search bound)\n")
        assert load_results_json(run / "report.json")["calibration.temperature_at_bound"] == 1
        capsys.readouterr()
        assert main(["report", "--results", str(run / "report.json"), "--out", str(tmp_path / "render")]) == 0
        assert (tmp_path / "render" / "report.txt").read_bytes() == (run / "report.txt").read_bytes()
        assert capsys.readouterr().out == text

    def test_results_without_the_bound_flag_render_as_off_the_bound(self, small_dataset, tmp_path, capsys):
        """Results written before the flag existed render as they did."""
        val, test = small_dataset
        run = tmp_path / "cal"
        assert main(["calibrate", "--val", str(val), "--test", str(test), "--out", str(run)]) == 0
        results = json.loads((run / "report.json").read_text())
        assert results.pop("calibration.temperature_at_bound") == 0
        (tmp_path / "old.json").write_text(json.dumps(results))
        capsys.readouterr()
        assert main(["report", "--results", str(tmp_path / "old.json"), "--out", str(tmp_path / "render")]) == 0
        assert (tmp_path / "render" / "report.txt").read_bytes() == (run / "report.txt").read_bytes()
        assert "(at the search bound)" not in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["2", "-1", "0.5", "1.0", "null"])
    def test_bound_flag_other_than_0_or_1_rejected_in_one_line(self, tmp_path, capsys, value):
        path, out = tmp_path / "results.json", tmp_path / "render"
        path.write_text('{"calibration.nll_before": 1.0, "calibration.nll_after": 0.9, "calibration.ece_before": 0.2, '
                        '"calibration.ece_after": 0.1, "calibration.temperature": 2.0, '
                        f'"calibration.temperature_at_bound": {value}}}')
        assert main(["report", "--results", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: 'calibration.temperature_at_bound' must be 0 or 1, got {json.loads(value)!r}\n")
        assert not out.exists()

    def test_help_lists_only_results_out_and_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert flags == {"--help", "--results", "--out", "--config"}


SIMULATE_SETTINGS = {
    "videos": st.sampled_from(["1", "2"]),
    "prefix": st.sampled_from(["video", "v", "case_"]),
    "frames-mean": st.sampled_from(["140", "175.5", "2.1e2"]),
    "dwell-min": st.sampled_from(["2", "5"]),
    "monotone": st.booleans(),
    "base-acc": st.sampled_from(["0.7", "0.9"]),
    "pair-acc": st.sampled_from(["0.9", "0.95,0.9,0.9,0.95,0.9,0.85"]),
    "overconfidence": st.sampled_from(["1.0", "2.5"]),
    "jitter": st.sampled_from(["0", "7"]),
    "attention-smooth": st.sampled_from(["0", "3"]),
    "seed": st.integers(0, 2**31).map(str),
}
INFER_SETTINGS = {
    "buffer": st.sampled_from(["1", "20"]),
    "threshold": st.sampled_from(["0", "0.5", "0.95"]),
    "temperature": st.sampled_from(["1.0", "2.5", "auto"]),
    "sweep": st.booleans(),
}
BOOLEAN_WORDS = {True: ["1", "true", "yes", "on"], False: ["0", "false", "no", "off"]}


def _wait_for(*paths: Path, timeout: float = 30.0) -> None:
    """Wait until one of ``paths`` exists: a signal between a pipeline's two processes."""
    deadline = time.monotonic() + timeout
    while not any(path.exists() for path in paths):
        if time.monotonic() > deadline:
            raise TimeoutError(f"none of {paths} appeared within {timeout} s")
        time.sleep(0.005)


def _append_line(path: Path, line: str) -> None:
    """Append ``line`` to ``path`` in one write, so lines from two processes never interleave."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        os.write(fd, f"{line}\n".encode())
    finally:
        os.close(fd)


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestConfigFile:
    def test_file_overrides_defaults_and_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("videos = 3\nframes-mean = 280\nseed = 99\n")
        out = tmp_path / "data"
        rc = main(["simulate", "--config", str(cfg), "--seed", "5", "--out", str(out)])
        assert rc == 0
        gts = load_timelines(out / "gt.csv")
        assert len(gts) == 3  # from file
        echo = (out / "config.txt").read_text()
        assert "seed = 5" in echo  # flag wins
        assert "frames_mean = 280.0" in echo

    @pytest.mark.parametrize("line, flags, echoed", [
        ("monotone = No", ["--monotone"], "monotone = true"),
        ("monotone = OFF", [], "monotone = false"),
        ("monotone = Yes", ["--no-monotone"], "monotone = false"),
    ])
    def test_flag_overrides_boolean_line(self, tmp_path, line, flags, echoed):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"videos = 1\nframes_mean = 140\n{line}\n")
        out = tmp_path / "data"
        assert main(["simulate", "--config", str(cfg), *flags, "--out", str(out)]) == 0
        assert echoed in (out / "config.txt").read_text().splitlines()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("banana = 1\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cfg}:1: unknown config key 'banana'\n"

    def test_bad_value_in_file_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = bogus\n")
        rc = main(["evaluate", "--pred", "x", "--gt", "y", "--out", str(tmp_path / "e"),
                   "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cfg}:1: argument --format: unknown formats: bogus\n"

    @pytest.mark.parametrize("content, message", [
        (b"videos = 1\n# note\n\nmonotone = flase\n",
         "{cfg}:4: monotone takes 1/true/yes/on or 0/false/no/off, got 'flase'"),
        (b"videos = 1\r\nframes_mean = abc\n",
         "{cfg}:2: argument --frames-mean: must be a number in [7, 1000000], got 'abc'"),
        (b"videos = 1\nprefix = #v\n", "{cfg}:2: argument --prefix: '#v' has a comma, line break, "
                                        "leading '#' or surrounding whitespace"),
        (b"sweep = yes\n", "{cfg}:1: unknown config key 'sweep'"),
        (b"videos = 1\nseed 5\n", "{cfg}:2: expected 'key = value'"),
        (b"videos = 1\npair_acc = 0.9,0.9\n",
         "{cfg}:2: argument --pair-acc: takes 1 or 6 comma-separated values, got 2"),
        (b"videos = 1\npair_acc = abc\n",
         "{cfg}:2: argument --pair-acc: takes 1 or 6 comma-separated numbers, got 'abc'"),
        (b"videos = 1\nseed = \xff\n", "{cfg}:2: 'utf-8' codec can't decode byte 0xff in position 18: "
                                        "invalid start byte"),
    ], ids=["boolean", "float", "prefix", "unknown_key", "no_equals", "pair_acc", "pair_acc_not_a_number",
            "not_utf8"])
    def test_bad_line_named_and_writes_nothing(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(content)
        out = tmp_path / "data"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, content, message", [
        (["infer", "--strategy", "confidence", "--base", "b.csv", "--bank", "bank", "--out", "{out}/pred.csv"],
         "threshold = 0.4\ntemperature = abc\n",
         "{cfg}:2: argument --temperature: must be a positive finite number or 'auto', got 'abc'"),
        (["evaluate", "--pred", "p.csv", "--gt", "g.csv", "--out", "{out}"],
         "format = ,\n", "{cfg}:1: argument --format: names no format in ','; choose from text, json, svg"),
    ], ids=["temperature", "format"])
    def test_bad_infer_and_evaluate_line_named_and_writes_nothing(self, tmp_path, capsys, argv, content, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(content)
        out = tmp_path / "out"
        rc = main([arg.format(out=out) for arg in argv] + ["--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "videos", "0"),
        ("pipeline", "val_videos", "0"),
        ("pipeline", "test-videos", "0"),
        ("pipeline", "bins", "0"),
        ("pipeline", "buffer", "0"),
        ("pipeline", "buffer", "2.5"),
        ("pipeline", "dwell_min", "0"),
        ("pipeline", "jitter", "-1"),
        ("pipeline", "attention_smooth", "x"),
        ("pipeline", "threshold", "2"),
        ("pipeline", "threshold", "nan"),
        ("pipeline", "threshold", "-inf"),
        ("pipeline", "seed", "-1"),
    ])
    def test_bad_count_or_threshold_line_named_and_writes_nothing(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "out"
        rc = main([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        flag = "--" + key.replace("_", "-")
        rule = {"threshold": "a number in [0, 1]", "jitter": "an integer >= 0", "attention_smooth": "an integer >= 0",
                "seed": "an integer >= 0"}
        expected = f"argument {flag}: must be {rule.get(key, 'an integer >= 1')}, got {value!r}"
        assert capsys.readouterr().err == f"error: {cfg}:1: {expected}\n"
        assert not out.exists()

    def test_bad_value_rejected_even_when_a_flag_overrides_it(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = x\n")
        rc = main(["simulate", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / "d")])
        assert rc == 2
        assert f"{cfg}:1: argument --seed: must be an integer >= 0, got 'x'" in capsys.readouterr().err

    def test_bad_flag_value_is_an_error_line(self, tmp_path, capsys):
        rc = main(["simulate", "--seed", "abc", "--out", str(tmp_path / "d")])
        assert rc == 2
        assert capsys.readouterr().err == "error: argument --seed: must be an integer >= 0, got 'abc'\n"

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_config_file_and_flags_give_identical_runs(self, small_dataset, data):
        """Any subset of simulate and infer settings, given as config lines
        (either key spelling, any case of a boolean word) or as flags, gives
        the same exit code, config.txt echo and output bytes. A transition
        run with --sweep, --temperature or --threshold, and a run with --sweep
        and --threshold, are rejected both ways and write nothing; a
        confidence run gets --val only for --sweep or --temperature auto."""
        val, test = small_dataset

        def draw(settings, switch_off):
            chosen = data.draw(st.lists(st.sampled_from(sorted(settings)), unique=True))
            lines, flags = [], []
            for key in chosen:
                value = data.draw(settings[key])
                spelling = data.draw(st.sampled_from([key, key.replace("-", "_")]))
                if isinstance(value, bool):
                    word = data.draw(st.sampled_from(BOOLEAN_WORDS[value]).flatmap(
                        lambda w: st.sampled_from([w, w.upper(), w.title()])))
                    lines.append(f"{spelling} = {word}")
                    flags += [f"--{key}"] if value else switch_off(key)
                else:
                    lines.append(f"{spelling}={value}" if data.draw(st.booleans()) else f"  {spelling} =  {value} ")
                    flags += [f"--{key}", value]
            return "\n".join(lines) + "\n", flags

        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            text, flags = draw(SIMULATE_SETTINGS, lambda key: [f"--no-{key}"])
            (root / "sim.cfg").write_text(text)
            assert main(["simulate", *flags, "--out", str(root / "flags" / "sim")]) == 0
            assert main(["simulate", "--config", str(root / "sim.cfg"), "--out", str(root / "file" / "sim")]) == 0

            strategy = data.draw(st.sampled_from(["transition", "confidence"]))
            text, flags = draw(INFER_SETTINGS, lambda key: [])
            (root / "infer.cfg").write_text(text)
            paths = ["--strategy", strategy, "--bank", str(test / "bank")]
            tuned = "--sweep" in flags or "auto" in flags
            if strategy == "confidence":
                paths += ["--base", str(test / "baseline.csv"), *(["--val", str(val)] if tuned else [])]
            swept_threshold = "--sweep" in flags and "--threshold" in flags
            confidence_only = {"--sweep", "--temperature", "--threshold"}.intersection(flags)
            expected = 2 if strategy == "transition" and confidence_only or swept_threshold else 0
            for how, extra in (("flags", flags), ("file", ["--config", str(root / "infer.cfg")])):
                assert main(["infer", *paths, *extra, "--trace", str(root / how / "inf" / "trace.csv"),
                             "--out", str(root / how / "inf" / "pred.csv")]) == expected
                assert (root / how / "inf").exists() == (expected == 0)
            assert _tree(root / "flags") == _tree(root / "file")


class TestPipeline:
    TINY = ["--frames-mean", "140", "--val-videos", "1", "--test-videos", "1"]

    def test_end_to_end_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["pipeline", "--out", str(out), "--frames-mean", "420",
                   "--val-videos", "1", "--test-videos", "1", "--seed", "3"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "Inference strategy comparison" in printed
        results = load_results_json(out / "evaluation" / "results.json")
        assert "strategy.confidence_calibrated.accuracy.pooled" in results
        for sub in ("", "val", "test", "calibration", "inference", "evaluation"):
            assert (out / sub / "config.txt").exists(), sub
        assert (out / "evaluation" / "ribbon_transition_test00.svg").exists()

    @pytest.mark.parametrize("formats", ["text", "json", "svg", "json,svg"])
    def test_format_selects_the_evaluation_files(self, tmp_path, formats):
        out = tmp_path / "run"
        rc = main(["pipeline", "--frames-mean", "140", "--val-videos", "1", "--test-videos", "1",
                   "--format", formats, "--out", str(out)])
        assert rc == 0
        by_format = {"text": {"strategies.txt", "report.txt"}, "json": {"results.json"},
                     "svg": {"ribbon_transition_test00.svg", "ribbon_confidence_calibrated_test00.svg"}}
        expected = {"config.txt"}.union(*(by_format[f] for f in formats.split(",")))
        assert {p.name for p in (out / "evaluation").iterdir()} == expected

    def test_bug_in_a_stage_propagates(self, tmp_path, monkeypatch):
        """Only the errors main reports become a stage error; a TypeError
        is a bug and keeps its traceback."""
        def broken(*args, **kwargs):
            raise TypeError("broken stage")

        monkeypatch.setattr(cli.metrics, "bank_restricted_accuracies", broken)
        with pytest.raises(TypeError, match="broken stage"):
            main(["pipeline", "--frames-mean", "140", "--val-videos", "1", "--test-videos", "1",
                  "--out", str(tmp_path / "run")])

    @pytest.mark.parametrize("flags", [[], ["--no-monotone", "--attention-smooth", "30", "--frames-mean", "600"]],
                             ids=["default", "smooth"])
    def test_forked_writer_matches_inline_writer(self, tmp_path, capsys, monkeypatch, flags):
        """A forked child simulating videos, and then one writing the datasets,
        give the tree and output of doing both first in this process, the
        path where os.fork is missing."""
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert main(["pipeline", *flags, "--out", str(tmp_path / "forked")]) == 0
        forked = capsys.readouterr()
        assert forks == [1, 1]  # one child simulates, the next writes
        monkeypatch.delattr(os, "fork")
        assert main(["pipeline", *flags, "--out", str(tmp_path / "inline")]) == 0
        assert capsys.readouterr() == forked
        assert _tree(tmp_path / "forked") == _tree(tmp_path / "inline")

    def test_dataset_write_error_is_a_simulate_error(self, tmp_path, capsys):
        """A file in the way of a dataset directory stops the run when the
        directories are made, before calibrate."""
        out = tmp_path / "run"
        (out / "test").mkdir(parents=True)
        (out / "test" / "bank").write_text("")
        assert main(["pipeline", *self.TINY, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error in stage simulate: ") and err.count("\n") == 1, err
        assert str(out / "test" / "bank") in err
        assert not (out / "calibration").exists()

    @staticmethod
    def _wrap_writers(monkeypatch, wrap):
        """Replace the per-file writers behind simulate.dataset_writes with ``wrap(writer)``."""
        for name in ("save_logits", "save_timelines"):
            monkeypatch.setattr(cli.simulate, name, wrap(getattr(cli.simulate, name)))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="one process writes every file")
    def test_each_dataset_file_is_written_once_by_one_process(self, tmp_path, monkeypatch):
        """Both processes claim files from the queue, and no file is claimed
        twice. The child holds its first file until the parent has claimed one."""
        parent, log, parent_claimed = os.getpid(), tmp_path / "writes.log", tmp_path / "parent_claimed"

        def wrap(write):
            def logged_writer(items, path):
                if os.getpid() == parent:
                    parent_claimed.touch()
                else:
                    _wait_for(parent_claimed)
                _append_line(log, f"{os.getpid()} {path}")
                write(items, path)
            return logged_writer

        self._wrap_writers(monkeypatch, wrap)
        out = tmp_path / "run"
        assert main(["pipeline", *self.TINY, "--out", str(out)]) == 0
        claims = [line.split(" ", 1) for line in log.read_text().splitlines()]
        files = sorted(str(f) for split in ("val", "test") for f in (out / split).rglob("*.csv"))
        assert len(files) == 16
        assert sorted(path for _, path in claims) == files
        pids = {pid for pid, _ in claims}
        assert len(pids) == 2 and str(parent) in pids

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="one process writes every file")
    def test_write_error_in_the_parents_share_is_a_simulate_error(self, tmp_path, capsys, monkeypatch):
        """The parent's first write fails after the later stages; both
        processes go on claiming, and every other file is written."""
        parent, parent_claimed = os.getpid(), tmp_path / "parent_claimed"

        def wrap(write):
            def writer(items, path):
                if os.getpid() == parent and not parent_claimed.exists():
                    parent_claimed.touch()
                    raise OSError(f"{path}: no space left on device")
                _wait_for(parent_claimed)
                write(items, path)
            return writer

        self._wrap_writers(monkeypatch, wrap)
        out = tmp_path / "run"
        assert main(["pipeline", *self.TINY, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        failed = re.fullmatch(r"error in stage simulate: (.+): no space left on device\n", err)
        assert failed, err
        assert (out / "evaluation" / "results.json").exists()
        files = {str(f) for split in ("val", "test") for f in (out / split).rglob("*.csv")}
        assert len(files) == 15 and failed[1] not in files

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="one process writes every file")
    def test_when_both_processes_fail_the_childs_error_is_reported(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()
        parent_claimed, child_claimed = tmp_path / "parent_claimed", tmp_path / "child_claimed"

        def wrap(write):
            def broken_writer(items, path):
                if os.getpid() == parent:
                    _wait_for(child_claimed)
                    parent_claimed.touch()
                    raise OSError("the parent's write failed")
                child_claimed.touch()
                _wait_for(parent_claimed)
                raise OSError("the child's write failed")
            return broken_writer

        self._wrap_writers(monkeypatch, wrap)
        assert main(["pipeline", *self.TINY, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == "error in stage simulate: the child's write failed\n"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer runs in this process")
    def test_bug_in_the_dataset_writer_propagates(self, tmp_path, monkeypatch):
        """A TypeError in the child is a bug: it leaves main as a TypeError
        whose cause holds the child's traceback."""
        parent = os.getpid()

        def wrap(write):
            def broken_writer(items, path):
                if os.getpid() != parent:
                    raise TypeError("broken writer")
                write(items, path)
            return broken_writer

        self._wrap_writers(monkeypatch, wrap)
        with pytest.raises(TypeError, match="broken writer") as caught:
            main(["pipeline", *self.TINY, "--out", str(tmp_path / "run")])
        assert "in broken_writer" in str(caught.value.__cause__)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer runs in this process")
    def test_killed_writer_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()

        def wrap(write):
            def killed_writer(items, path):
                if os.getpid() != parent:  # never this process: that would kill the test run
                    os.kill(os.getpid(), signal.SIGKILL)
                write(items, path)
            return killed_writer

        self._wrap_writers(monkeypatch, wrap)
        assert main(["pipeline", *self.TINY, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error in stage simulate: child process \d+ was killed by SIGKILL\n", err), err

    def test_calibrate_error_waits_for_complete_datasets(self, tmp_path, capsys, monkeypatch):
        """A later stage that fails while the child writes still leaves
        whole dataset files, and the child reaped."""
        argv = ["pipeline", "--frames-mean", "420", "--val-videos", "2", "--test-videos", "2"]
        assert main([*argv, "--out", str(tmp_path / "whole")]) == 0
        slept = []

        def wrap(write):
            def slow_writer(items, path):
                if not slept:
                    slept.append(path)
                    time.sleep(0.2)  # the parent fails first
                write(items, path)
            return slow_writer

        def broken(*args, **kwargs):
            raise ValueError("calibration broke")

        self._wrap_writers(monkeypatch, wrap)
        monkeypatch.setattr(cli.calibration, "calibrate_report", broken)
        assert main([*argv, "--out", str(tmp_path / "cut")]) == 2
        assert capsys.readouterr().err == "error in stage calibrate: calibration broke\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        for split in ("val", "test"):
            assert _tree(tmp_path / "cut" / split) == _tree(tmp_path / "whole" / split)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc listing of open files")
    def test_failed_stage_leaves_no_file_descriptor_open(self, tmp_path, capsys, monkeypatch):
        """The queue and the child's pipe are closed on the error path too."""
        def broken(*args, **kwargs):
            raise ValueError("calibration broke")

        monkeypatch.setattr(cli.calibration, "calibrate_report", broken)
        gc.collect()
        before = set(os.listdir("/proc/self/fd"))
        assert main(["pipeline", *self.TINY, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == "error in stage calibrate: calibration broke\n"
        assert set(os.listdir("/proc/self/fd")) == before

    def test_stage_error_is_named(self, tmp_path, capsys):
        rc = main(["pipeline", "--out", str(tmp_path / "run"), "--overconfidence", "1e200", "--attention-smooth", "5"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error in stage simulate: ")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="every video is simulated in this process")
    def test_video_failing_in_the_child_is_the_inline_error(self, tmp_path, capsys, monkeypatch):
        """The child simulates val00 first and fails on it, as this process
        fails on every later video: one line naming val00, as inline, and
        nothing is written."""
        argv = ["pipeline", *self.TINY, "--attention-smooth", "5", "--overconfidence", "1e200"]
        with pytest.MonkeyPatch.context() as patch:
            _order_claims(patch, "child", tmp_path / "child_claimed")
            assert main([*argv, "--out", str(tmp_path / "forked")]) == 2
        forked = capsys.readouterr()
        monkeypatch.delattr(os, "fork")
        assert main([*argv, "--out", str(tmp_path / "inline")]) == 2
        assert capsys.readouterr() == forked
        assert re.fullmatch(r"error in stage simulate: attention scores overflow in video 'val00': .*\n", forked.err)
        assert not (tmp_path / "forked").exists() and not (tmp_path / "inline").exists()

    def test_more_videos_than_queue_slots(self, tmp_path, capsys, monkeypatch):
        """260 videos over both splits are simulated as at most 256 jobs, each
        a run of consecutive videos: the tree and output of one process."""
        argv = ["pipeline", "--val-videos", "250", "--test-videos", "10", "--frames-mean", "7", "--format", "json"]
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert main([*argv, "--out", str(tmp_path / "forked")]) == 0
        forked = capsys.readouterr()
        assert forks == [1, 1]
        monkeypatch.delattr(os, "fork")
        assert main([*argv, "--out", str(tmp_path / "inline")]) == 0
        assert capsys.readouterr() == forked
        assert _tree(tmp_path / "forked") == _tree(tmp_path / "inline")

    @pytest.mark.parametrize("flag, value", [("--buffer", "0"), ("--threshold", "2")])
    def test_bad_inference_config_writes_nothing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        rc = main(["pipeline", "--out", str(out), flag, value])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: argument {flag}: must be ")
        assert not out.exists()

    @pytest.mark.parametrize("flag, stage", [
        ("--val-videos", "simulate"), ("--test-videos", "simulate"), ("--bins", "calibrate"),
    ])
    def test_bad_count_writes_nothing(self, tmp_path, capsys, flag, stage):
        """A count the ``stage`` stage reads is rejected when the flags are
        parsed, before any stage runs."""
        out = tmp_path / "run"
        rc = main(["pipeline", "--out", str(out), flag, "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: argument {flag}: must be an integer >= 1, got '0'\n"
        assert f"stage {stage}" not in err
        assert not out.exists()

    def test_negative_attention_smooth_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["pipeline", "--out", str(out), "--attention-smooth", "-3"])
        assert rc == 2
        assert capsys.readouterr().err == "error: argument --attention-smooth: must be an integer >= 0, got '-3'\n"
        assert not out.exists()

    def test_attention_smooth_tree_matches_per_frame_kernel(self, tmp_path, monkeypatch):
        """Smoothing all full windows at once writes the bytes that one
        kernel call per frame writes."""
        argv = ["pipeline", "--no-monotone", "--attention-smooth", "30", "--frames-mean", "420",
                "--val-videos", "1", "--test-videos", "2", "--seed", "5"]
        assert main([*argv, "--out", str(tmp_path / "array")]) == 0
        videos = []

        def loop(seq, window):
            videos.append(seq.video_id)
            return attention_smooth_loop(seq, window)

        monkeypatch.setattr("phasekit.simulate.attention_smooth", loop)
        monkeypatch.delattr(os, "fork")  # so that every video is smoothed, and recorded, in this process
        assert main([*argv, "--out", str(tmp_path / "loop")]) == 0
        assert videos == ["val00", "test00", "test01"]
        assert _tree(tmp_path / "array") == _tree(tmp_path / "loop")

    def test_matches_its_subcommands(self, tmp_path):
        """The pipeline's in-memory stages write what the subcommands write
        when run on the dataset the pipeline saved."""
        out = tmp_path / "run"
        rc = main(["pipeline", "--out", str(out), "--frames-mean", "420",
                   "--val-videos", "1", "--test-videos", "1", "--seed", "3"])
        assert rc == 0
        cal = tmp_path / "cal"
        assert main(["calibrate", "--val", str(out / "val"), "--test", str(out / "test"),
                     "--out", str(cal)]) == 0
        inf = tmp_path / "inf"
        assert main(["infer", "--strategy", "transition", "--bank", str(out / "test" / "bank"),
                     "--trace", str(inf / "transition_trace.csv"),
                     "--out", str(inf / "transition.csv")]) == 0
        pairs = [(cal / f, out / "calibration" / f)
                 for f in ("report.json", "reliability_before.csv", "reliability_after.csv")]
        pairs += [(inf / f, out / "inference" / f) for f in ("transition.csv", "transition_trace.csv")]
        for mine, piped in pairs:
            assert filecmp.cmp(mine, piped, shallow=False), piped.name

    def test_each_strategys_traces_are_freed_once_written(self, tmp_path, monkeypatch):
        """Each strategy's traces reach the writer one at a time: when a
        trace is yielded, the trace yielded before it, of this strategy or
        the one before, is dead, dropped once written and its cascades
        counted."""
        written, save = [], cli.inference.save_traces

        def watched(traces, path):
            for trace in traces:
                gc.collect()
                assert not written or written[-1][1]() is None, (path.name, trace.video_id)
                written.append((path.name, weakref.ref(trace)))
                yield trace

        monkeypatch.setattr(cli.inference, "save_traces", lambda traces, path: save(watched(traces, path), path))
        assert main(["pipeline", "--frames-mean", "140", "--val-videos", "1", "--test-videos", "2",
                     "--out", str(tmp_path / "run")]) == 0
        assert [name for name, _ in written] == [f"{name}_trace.csv" for name in
                                                ("transition", "confidence_uncalibrated", "confidence_calibrated")
                                                for _ in range(2)]

    def test_peak_memory_per_simulated_frame(self, tmp_path, monkeypatch):
        """An inline run allocates at its peak under 380 B per simulated
        frame: a video's sequences share one label array, softmax works in
        one buffer, and each strategy's traces are freed once written."""
        monkeypatch.delattr(os, "fork")
        out = tmp_path / "run"
        tracemalloc.start()
        try:
            rc = main(["pipeline", "--val-videos", "4", "--test-videos", "8", "--frames-mean", "1800", "--seed", "3",
                       "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        frames = sum(map(len, chain(load_timelines(out / "val" / "gt.csv").values(),
                                    load_timelines(out / "test" / "gt.csv").values())))
        assert peak < 380 * frames, (peak, frames)

    def test_default_demo_orders_calibrated_at_or_above_baseline(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["pipeline", "--out", str(out)])
        assert rc == 0
        results = load_results_json(out / "evaluation" / "results.json")
        calibrated = results["strategy.confidence_calibrated.accuracy.pooled"]
        baseline = results["strategy.baseline.accuracy.pooled"]
        uncalibrated = results["strategy.confidence_uncalibrated.accuracy.pooled"]
        assert calibrated >= baseline
        assert uncalibrated < calibrated


@pytest.fixture(scope="module")
def replayed(small_dataset, tmp_path_factory):
    """A predicted timeline and its trace for the test split of ``small_dataset``."""
    _, test = small_dataset
    root = tmp_path_factory.mktemp("replayed")
    assert main(["infer", "--strategy", "transition", "--bank", str(test / "bank"),
                 "--trace", str(root / "trace.csv"), "--out", str(root / "pred.csv")]) == 0
    return root / "pred.csv", root / "trace.csv"


def _read_commands(val, test, pred, trace, out):
    """The input-reading commands, by case: each parses its files in two
    processes, and infer and evaluate share their output stage as well."""
    transition = ["infer", "--strategy", "transition", "--bank", str(test / "bank"), "--out", str(out / "pred.csv")]
    confidence = ["infer", "--strategy", "confidence", "--base", str(test / "baseline.csv"),
                  "--bank", str(test / "bank"), "--out", str(out / "pred.csv")]
    traced = ["--trace", str(out / "trace.csv")]
    evaluate = ["evaluate", "--pred", str(pred), "--gt", str(test / "gt.csv")]
    return {
        "calibrate": ["calibrate", "--val", str(val), "--test", str(test)],
        "calibrate_bank": ["calibrate", "--val", str(val), "--test", str(test), "--include-bank"],
        "transition": [*transition, *traced],
        "transition_untraced": transition,
        "confidence": confidence,
        "confidence_auto": [*confidence, *traced, "--val", str(val), "--temperature", "auto"],
        "confidence_sweep": [*confidence, *traced, "--val", str(val), "--sweep"],
        "evaluate": evaluate,
        "evaluate_trace": [*evaluate, "--trace", str(trace)],
        "evaluate_text": [*evaluate, "--trace", str(trace), "--format", "text"],
    }


def _tiny_splits(root: Path) -> tuple[Path, Path]:
    """A validation split with a bank and a test split, each of one
    four-frame video with K=2 scores, under ``root``."""
    header = "video_id,frame_idx,label,z1,z2\n"
    body = "v,0,1,2.0,0.0\nv,1,2,2.0,0.0\nv,2,2,0.0,2.0\nv,3,1,1.0,0.0\n"
    val, test = root / "val", root / "test"
    for path in (val / "baseline.csv", test / "baseline.csv", *(val / "bank" / f"trans_{i}_{i + 1}.csv"
                                                                for i in range(1, 7))):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(header + body)
    return val, test


def _bound_splits(root: Path) -> tuple[Path, Path]:
    """_tiny_splits whose validation baseline and bank pairs each fit T on
    a search bound: the low one where the model is always right (the
    baseline and the odd pairs), the high one where it is always wrong."""
    val, test = _tiny_splits(root)
    (val / "baseline.csv").write_text("video_id,frame_idx,label,z1,z2\n" +
                                      "".join(f"v,{frame},1,0.01,0.0\n" for frame in range(4)))
    for i in range(1, 7):
        scores = "0.01,0.0" if i % 2 else "0.0,0.01"
        rows = "".join(f"v,{frame},{i},{scores}\n" for frame in range(4))
        (val / "bank" / f"trans_{i}_{i + 1}.csv").write_text("video_id,frame_idx,label,z1,z2\n" + rows)
    return val, test


def _with_out(argv, out):
    return argv if "--out" in argv else [*argv, "--out", str(out)]


def _order_claims(monkeypatch, first: str, marker: Path, head: int = 1) -> None:
    """Let the ``first`` process ("parent" or "child") start ``head`` jobs,
    or stop claiming, before the other claims any. ``marker`` signals the
    ``head``-th start, and ``marker`` with the suffix ``.done`` the stop."""
    parent, claim, done = os.getpid(), fork_layer._claim, marker.with_suffix(".done")

    def ordered(jobs, claims):
        if (os.getpid() == parent) != (first == "parent"):
            if head:
                _wait_for(marker, done)
            return claim(jobs, claims)
        started = iter(range(1, len(jobs) + 1))

        def signalling(job):
            if next(started) == head:
                marker.touch()
            return job()

        try:
            return claim([partial(signalling, job) for job in jobs], claims)
        finally:
            done.touch()

    monkeypatch.setattr(fork_layer, "_claim", ordered)


def _bad_row(path: Path, dst: Path, line: int) -> Path:
    """A copy of ``path`` at ``dst`` whose ``line`` (1-based) has a non-numeric last cell."""
    rows = path.read_text().splitlines()
    rows[line - 1] = rows[line - 1].rsplit(",", 1)[0] + ",oops"
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_text("\n".join(rows) + "\n")
    return dst


@pytest.mark.skipif(not hasattr(os, "fork"), reason="every file is parsed in this process")
class TestForkedReads:
    """calibrate, infer and evaluate parse their input files in this process
    and one forked child; the results are those of parsing them in order."""

    @pytest.mark.parametrize("case", ["calibrate", "calibrate_bank", "transition", "transition_untraced",
                                      "confidence", "confidence_auto", "confidence_sweep", "evaluate",
                                      "evaluate_trace", "evaluate_text"])
    def test_forked_reads_match_inline_reads(self, small_dataset, replayed, tmp_path, capsys, monkeypatch, case):
        """Same --out bytes and stdout with and without os.fork: one fork to
        parse and fit, and none for the output, which infer and evaluate
        make in this process. Every loaded array stays read-only, also where
        it came from the child."""
        out = tmp_path / "out"
        argv = _with_out(_read_commands(*small_dataset, *replayed, out)[case], out)
        loaded, results = [], cli._results

        def recording(jobs, sizes=None):
            done = results(jobs, sizes)
            loaded.extend(done)
            return done

        monkeypatch.setattr(cli, "_results", recording)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        _order_claims(monkeypatch, "child", tmp_path / "child_claimed")
        assert main(argv) == 0
        forked, tree = capsys.readouterr(), _tree(out)
        assert forks == [1]
        arrays = [value for by_video in loaded if isinstance(by_video, dict) for item in by_video.values()
                  if hasattr(item, "__dict__") for value in vars(item).values() if isinstance(value, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)

        shutil.rmtree(out)
        monkeypatch.delattr(os, "fork")
        assert main(argv) == 0
        assert capsys.readouterr() == forked
        assert _tree(out) == tree

    @pytest.mark.parametrize("case", ["calibrate_bank", "confidence_sweep", "evaluate_trace"])
    def test_one_cpu_runs_inline(self, small_dataset, replayed, tmp_path, capsys, monkeypatch, case):
        """Pinned to one CPU a command forks no child, and writes the bytes
        and prints the lines it does with two."""
        argv = {how: _with_out(_read_commands(*small_dataset, *replayed, tmp_path / how)[case], tmp_path / how)
                for how in ("two", "one")}
        assert main(argv["two"]) == 0
        two = capsys.readouterr()
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(argv["one"]) == 0
        assert forks == []
        assert capsys.readouterr().out == two.out.replace(str(tmp_path / "two"), str(tmp_path / "one"))
        assert _tree(tmp_path / "one") == _tree(tmp_path / "two")

    def test_fits_on_a_bound_give_what_an_inline_run_gives(self, tmp_path, capsys):
        """Every fit of calibrate --include-bank stops on a search bound. Forked
        or inline, with every warning an error, the command prints and writes
        the same bytes, flags each fit, and prints nothing to stderr."""
        val, test = _bound_splits(tmp_path)
        runs = {}
        for how in ("forked", "inline"):
            with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
                warnings.simplefilter("error")
                if how == "inline":
                    patch.delattr(os, "fork")
                assert main(["calibrate", "--val", str(val), "--test", str(test), "--include-bank",
                             "--out", str(tmp_path / how)]) == 0
            runs[how] = capsys.readouterr(), _tree(tmp_path / how)
        assert runs["forked"] == runs["inline"]
        assert runs["forked"][0].err == ""
        results = load_results_json(tmp_path / "forked" / "report.json")
        assert (results["calibration.temperature"], results["calibration.temperature_at_bound"]) == (0.01, 1)
        assert [(results[f"calibration.bank.trans_{i}_{i + 1}.temperature"],
                 results[f"calibration.bank.trans_{i}_{i + 1}.temperature_at_bound"]) for i in range(1, 7)] == [
            (0.01, 1), (100.0, 1)] * 3

    def test_more_videos_than_queue_slots(self, tmp_path, capsys, monkeypatch):
        """300 videos go to the simulator's queue as at most 256 jobs, each a
        run of consecutive videos. The dataset, and what infer and evaluate
        make of it, are the files of one process."""
        def calls(root):
            data, pred, trace = root / "data", str(root / "pred.csv"), str(root / "trace.csv")
            return [["simulate", "--videos", "300", "--frames-mean", "14", "--seed", "5", "--out", str(data)],
                    ["infer", "--strategy", "transition", "--bank", str(data / "bank"),
                     "--trace", trace, "--out", pred],
                    ["evaluate", "--pred", pred, "--gt", str(data / "gt.csv"), "--trace", trace,
                     "--out", str(root / "eval")]]

        argv = {how: calls(tmp_path / how) for how in ("forked", "inline")}
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert [main(call) for call in argv["forked"]] == [0, 0, 0]
        assert len(forks) == 4  # the simulator and the dataset writes, then one each for infer and evaluate
        forked = capsys.readouterr().out.replace(str(tmp_path / "forked"), str(tmp_path / "inline"))
        monkeypatch.delattr(os, "fork")
        assert [main(call) for call in argv["inline"]] == [0, 0, 0]
        assert capsys.readouterr().out == forked
        assert _tree(tmp_path / "forked") == _tree(tmp_path / "inline")
        assert len(list((tmp_path / "inline" / "eval").glob("ribbon_*.svg"))) == 300

    def test_jobs_are_claimed_largest_first_and_returned_in_job_order(self, tmp_path):
        """The child claims every job while this process waits in the block."""
        log, marker = tmp_path / "claims.log", tmp_path / "drained"

        def job(i):
            _append_line(log, str(i))
            if i == 0:  # the smallest, so the last one claimed
                marker.touch()
            return i * 10

        with fork_layer._shared([partial(job, i) for i in range(5)], sizes=[1, 5, 3, 5, 2]) as results:
            _wait_for(marker)
        assert log.read_text().split() == ["1", "3", "2", "4", "0"]
        assert results == [0, 10, 20, 30, 40]

    def test_an_unclaimed_earlier_bad_file_is_still_the_error(self, tmp_path, capsys, monkeypatch):
        """Each process first claims one of the two largest files, bad bank
        pair files; the small validation baselines, whose bad row a serial
        run reports first, are claimed after them and give the error."""
        val, test = _tiny_splits(tmp_path)
        rows = "".join(f"v,{frame},1,1.0,0.0\n" for frame in range(200))
        for i in range(1, 7):
            extra = {1: 100, 2: 50}.get(i, 0)  # trans_1_2 is the largest file, then trans_2_3
            path = val / "bank" / f"trans_{i}_{i + 1}.csv"
            path.write_text("video_id,frame_idx,label,z1,z2\n" + rows + rows[:extra * 14])
            if i <= 2:
                _bad_row(path, path, 4)
        _bad_row(val / "baseline.csv", val / "baseline.csv", 3)
        argv = ["calibrate", "--val", str(val), "--test", str(test), "--include-bank", "--out", str(tmp_path / "out")]
        _order_claims(monkeypatch, "child", tmp_path / "child_claimed")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {val / 'baseline.csv'}:3: ") and err.count("\n") == 1, err
        monkeypatch.delattr(os, "fork")
        assert main(argv) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("case", ["calibrate", "infer"])
    def test_an_earlier_files_failed_fit_outranks_a_later_parse_error(self, small_dataset, tmp_path, capsys,
                                                                       monkeypatch, case):
        """The validation baselines overflow the fit, and a later file has a
        bad row: a serial run fits in the validation job, before it parses
        the later file, so the fit is the error, forked or not."""
        val, test = small_dataset
        bad_val = tmp_path / "val"
        shutil.copytree(val, bad_val)
        lines = (val / "baseline.csv").read_text().splitlines()
        cells = lines[2].split(",")
        lines[2] = ",".join([*cells[:3], "1e308", "-1e308", *["0"] * (len(cells) - 5)])
        (bad_val / "baseline.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        if case == "calibrate":
            _bad_row(val / "bank" / "trans_6_7.csv", bad_val / "bank" / "trans_6_7.csv", 4)
            argv = ["calibrate", "--val", str(bad_val), "--test", str(test), "--include-bank", "--out", str(out)]
        else:
            bad = _bad_row(test / "baseline.csv", tmp_path / "base.csv", 4)
            argv = ["infer", "--strategy", "confidence", "--base", str(bad), "--bank", str(test / "bank"),
                    "--val", str(bad_val), "--temperature", "auto", "--sweep", "--out", str(out / "pred.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        fit = re.escape(f"error: {bad_val / 'baseline.csv'}: NLL is not finite at temperature ")
        assert re.fullmatch(fit + r"[0-9.e+-]+: the scaled logits overflow\n", err), err
        monkeypatch.delattr(os, "fork")
        assert main(argv) == 2
        assert capsys.readouterr().err == err
        assert not out.exists()

    @pytest.mark.parametrize("case, bad", [
        ("calibrate", "val/baseline.csv"), ("transition", "test/bank/trans_1_2.csv"), ("evaluate", "pred.csv"),
    ])
    def test_bad_row_in_the_childs_file_is_the_serial_error(self, small_dataset, replayed, tmp_path, capsys,
                                                             monkeypatch, case, bad):
        """The child parses the first file, which has a bad row: exit 2 and
        the one line a serial run prints."""
        val, test = small_dataset
        data = tmp_path / "data"
        shutil.copytree(val, data / "val")
        shutil.copytree(test, data / "test")
        shutil.copy(replayed[0], data / "pred.csv")
        _bad_row(data / bad, data / bad, 4)
        out = tmp_path / "out"
        argv = _with_out(_read_commands(data / "val", data / "test", data / "pred.csv", replayed[1], out)[case], out)
        _order_claims(monkeypatch, "child", tmp_path / "child_claimed")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data / bad}:4: ") and err.count("\n") == 1, err
        monkeypatch.delattr(os, "fork")
        assert main(argv) == 2
        assert capsys.readouterr().err == err
        assert not out.exists()

    @pytest.mark.parametrize("first", ["parent", "child"])
    def test_of_two_bad_files_the_earlier_is_reported(self, small_dataset, tmp_path, capsys, monkeypatch, first):
        """calibrate reads the validation baseline before the test baseline:
        its error is reported, whichever process parsed it."""
        val, test = small_dataset
        bad_val = _bad_row(val / "baseline.csv", tmp_path / "val" / "baseline.csv", 3)
        bad_test = _bad_row(test / "baseline.csv", tmp_path / "test" / "baseline.csv", 5)
        argv = ["calibrate", "--val", str(bad_val.parent), "--test", str(bad_test.parent),
                "--out", str(tmp_path / "out")]
        _order_claims(monkeypatch, first, tmp_path / "first_claimed")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad_val}:3: ") and err.count("\n") == 1, err
        monkeypatch.delattr(os, "fork")
        assert main(argv) == 2
        assert capsys.readouterr().err == err

    def test_killed_loader_is_one_error_line(self, small_dataset, tmp_path, capsys, monkeypatch):
        val, test = small_dataset
        parent = os.getpid()

        def killed_loader(path):
            if os.getpid() != parent:  # never this process: that would kill the test run
                os.kill(os.getpid(), signal.SIGKILL)
            return load_logits(path)

        monkeypatch.setattr(cli, "load_logits", killed_loader)
        _order_claims(monkeypatch, "child", tmp_path / "child_claimed")
        out = tmp_path / "out"
        assert main(["calibrate", "--val", str(val), "--test", str(test), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: child process \d+ was killed by SIGKILL\n", err), err
        assert not out.exists()

    def test_bug_in_the_childs_loader_propagates(self, small_dataset, tmp_path, monkeypatch):
        val, test = small_dataset
        parent = os.getpid()

        def broken_loader(path):
            if os.getpid() != parent:
                raise TypeError("broken loader")
            return load_logits(path)

        monkeypatch.setattr(cli, "load_logits", broken_loader)
        _order_claims(monkeypatch, "child", tmp_path / "child_claimed")
        with pytest.raises(TypeError, match="broken loader") as caught:
            main(["calibrate", "--val", str(val), "--test", str(test), "--out", str(tmp_path / "out")])
        assert "in broken_loader" in str(caught.value.__cause__)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc listing of open files")
    def test_failed_load_leaves_no_file_descriptor_open(self, small_dataset, tmp_path, capsys, monkeypatch):
        val, test = small_dataset
        bad = _bad_row(test / "baseline.csv", tmp_path / "test" / "baseline.csv", 4)
        _order_claims(monkeypatch, "child", tmp_path / "child_claimed")
        gc.collect()
        before = set(os.listdir("/proc/self/fd"))
        assert main(["calibrate", "--val", str(val), "--test", str(bad.parent), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:4: ")
        assert set(os.listdir("/proc/self/fd")) == before


JOB_KINDS = ("value",) * 6 + (ValueError, KeyError, OSError, TypeError)


def _drawn_job(i: int, kind, warns: bool):
    """Job ``i``: it warns first when ``warns``, then returns a value or raises ``kind``."""
    if warns:
        warnings.warn(f"job {i}", UserWarning)
    if kind == "value":
        return (i, "value")
    raise kind(f"job {i}")


def _run_strict(run):
    """What ``run()`` returns, or the type and args of what it raises, with
    every warning an error: a job's warning is then that job's exception."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return run()
        except Exception as exc:
            return type(exc), exc.args


def _shared_results(jobs, sizes) -> list:
    """The results of one real ``_shared`` over ``jobs``, with an empty block."""
    with fork_layer._shared(jobs, sizes) as results:
        pass
    return results


@st.composite
def shared_cases(draw):
    """(jobs, sizes, how many jobs the child starts before this process claims one)."""
    count = draw(st.integers(0, 40))  # drawn first: a list strategy's lengths lean short
    kinds = draw(st.lists(st.tuples(st.sampled_from(JOB_KINDS), st.booleans()), min_size=count, max_size=count))
    sizes = draw(st.none() | st.permutations(range(len(kinds))))
    return ([partial(_drawn_job, i, kind, warns) for i, (kind, warns) in enumerate(kinds)], sizes,
            draw(st.integers(0, len(kinds))))


class TestSharedOracle:
    @settings(max_examples=30, deadline=None)
    @given(shared_cases())
    def test_shared_gives_what_a_serial_run_gives(self, case):
        """The forked jobs give the serial run's results, or its exception
        type and args; a job that warns fails with its warning, in either process."""
        jobs, sizes, first = case
        serial = _run_strict(lambda: [job() for job in jobs])
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            _order_claims(patch, "child", Path(tmp) / "claimed", head=first)
            assert _run_strict(partial(_shared_results, jobs, sizes)) == serial


FORK_THREADS = """
import json, os, sys
from pathlib import Path
import phasekit.cli

counts = []
os.register_at_fork(before=lambda: counts.append(len(os.listdir("/proc/self/task"))))
os.sched_getaffinity = lambda pid: {0, 1}  # fork as on a host with two CPUs
run = Path(sys.argv[1])
assert phasekit.cli.main(["pipeline", "--frames-mean", "140", "--val-videos", "1", "--test-videos", "1",
                          "--out", str(run / "run")]) == 0
assert phasekit.cli.main(["calibrate", "--val", str(run / "run" / "val"), "--test", str(run / "run" / "test"),
                          "--out", str(run / "calibration")]) == 0
print(json.dumps(counts), file=sys.stderr)
"""


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/task"),
                    reason="no os.fork or no /proc listing of threads")
def test_every_fork_forks_a_one_thread_process(tmp_path):
    """A fresh CLI process, with no OPENBLAS_NUM_THREADS of its own, has one
    thread at each fork of pipeline and calibrate: BLAS starts no worker, so
    Python 3.12+ has no fork-with-threads warning to give. Counted before the
    fork, since OpenBLAS joins its worker in its own fork handler."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    child = subprocess.run([sys.executable, "-c", FORK_THREADS, str(tmp_path)], env=env, capture_output=True,
                           text=True, check=True)
    counts = json.loads(child.stderr.splitlines()[-1])
    assert counts and set(counts) == {1}, counts


FUZZED = ["data/baseline.csv", "data/bank/trans_3_4.csv", "data/gt.csv", "replay/pred.csv", "replay/trace.csv",
          "replay/eval/results.json", "infer.cfg"]
FUZZ_TOKENS = [b"nan", b"1e309", b"-inf", b"\xff", b"12345678901234567890", b",", b"\n", b"#", b"0", b"-"]


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A one-video dataset with its predicted timeline, trace and results,
    and a config file for ``infer``."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["simulate", "--videos", "1", "--frames-mean", "40", "--seed", "4", "--out", str(root / "data")]) == 0
    assert main(["infer", "--strategy", "transition", "--bank", str(root / "data" / "bank"),
                 "--trace", str(root / "replay" / "trace.csv"), "--out", str(root / "replay" / "pred.csv")]) == 0
    assert main(["evaluate", "--pred", str(root / "replay" / "pred.csv"), "--gt", str(root / "data" / "gt.csv"),
                 "--trace", str(root / "replay" / "trace.csv"), "--format", "json",
                 "--out", str(root / "replay" / "eval")]) == 0
    (root / "infer.cfg").write_text("# a shorter buffer\nbuffer = 12\nstrategy = transition\n", encoding="utf-8")
    return root


# (file, edit, where in the file as a fraction, span length or bit, inserted token)
MUTATIONS = st.tuples(st.sampled_from(FUZZED), st.sampled_from(["flip", "insert", "delete", "duplicate"]),
                      st.floats(0, 1), st.integers(1, 40), st.sampled_from(FUZZ_TOKENS))


def _mutate(data: bytes, op: str, at: float, length: int, token: bytes) -> bytes:
    """``data`` with one byte flipped, ``token`` inserted, or a span deleted or duplicated."""
    i = min(int(at * len(data)), len(data) - 1)
    if op == "flip":
        return data[:i] + bytes([data[i] ^ (1 << length % 8)]) + data[i + 1:]
    if op == "insert":
        return data[:i] + token + data[i:]
    if op == "delete":
        return data[:i] + data[i + length:]
    return data[:i + length] + data[i:]


class TestFuzz:
    @settings(max_examples=40, deadline=None)
    @given(mutation=MUTATIONS)
    def test_mutated_inputs_exit_0_or_name_the_file(self, fuzz_base, mutation):
        """calibrate, infer, evaluate and report on a dataset, results file
        and config file with one mutated file end in exit 0 or in exit 2 with
        one line naming the file: never a traceback or a numpy warning."""
        name, *edit = mutation
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            shutil.copytree(fuzz_base, root, dirs_exist_ok=True)
            path = root / name
            path.write_bytes(_mutate(path.read_bytes(), *edit))
            data, replay, out = root / "data", root / "replay", root / "out"
            commands = [
                ["calibrate", "--val", str(data), "--test", str(data), "--include-bank", "--out", str(out / "cal")],
                ["infer", "--strategy", "confidence", "--base", str(data / "baseline.csv"), "--bank",
                 str(data / "bank"), "--temperature", "auto", "--val", str(data), "--sweep",
                 "--trace", str(out / "inf" / "trace.csv"), "--out", str(out / "inf" / "pred.csv")],
                ["evaluate", "--pred", str(replay / "pred.csv"), "--gt", str(data / "gt.csv"),
                 "--trace", str(replay / "trace.csv"), "--out", str(out / "eval")],
                ["report", "--results", str(replay / "eval" / "results.json"), "--out", str(out / "report")],
                ["infer", "--strategy", "transition", "--bank", str(data / "bank"), "--config", str(root / "infer.cfg"),
                 "--out", str(out / "cfg" / "pred.csv")],
            ]
            for argv in commands:
                err = io.StringIO()
                with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    warnings.simplefilter("error")  # the forked child inherits it: any warning fails the example
                    rc = main(argv)
                if rc != 0:
                    assert rc == 2 and err.getvalue().count("\n") == 1, (argv, err.getvalue())
                    assert str(path) in err.getvalue(), (argv, err.getvalue())


class TestParseErrors:
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--bogus"], "unrecognized arguments: --bogus"),
        (["calibrate", "--val", "x"], "the following arguments are required: --test"),
        ([], "the following arguments are required: command"),
    ], ids=["unknown_flag", "missing_required", "no_command"])
    def test_one_error_line_and_exit_2_from_main(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)] if argv else []) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_selftest_is_not_a_command(self, capsys):
        assert main(["selftest"]) == 2
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: argument command: invalid choice: 'selftest' .*\n", captured.err), captured.err
        assert captured.out == ""
