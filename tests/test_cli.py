import filecmp
import os
import re
import shutil
import signal
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import attention_smooth_loop
from phasekit import cli
from phasekit.calibration import fit_temperature
from phasekit.cli import main
from phasekit.inference import baseline_argmax, load_traces
from phasekit.logits import load_bank, load_logits
from phasekit.report import load_results_json
from phasekit.workflow import load_timelines


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
        ("simulate", "--overconfidence", "inf", "error: overconfidence must be finite and >= 1, got inf"),
        ("pipeline", "--overconfidence", "nan",
         "error in stage simulate: overconfidence must be finite and >= 1, got nan"),
        ("pipeline", "--seed", "-1", "error: argument --seed: must be an integer >= 0, got '-1'"),
    ], ids=["frames_mean_inf", "frames_mean_1e308", "frames_mean_0", "frames_mean_6.9", "frames_mean_1000001",
            "negative_seed", "overconfidence_inf", "pipeline_overconfidence_nan",
            "pipeline_negative_seed"])
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

    def test_bad_bins_writes_nothing(self, small_dataset, tmp_path, capsys):
        val, test = small_dataset
        out = tmp_path / "cal"
        rc = main(["calibrate", "--val", str(val), "--test", str(test), "--bins", "0", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: argument --bins: must be an integer >= 1, got '0'\n"
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

    def test_sweep_with_transition_strategy_rejected_and_writes_nothing(self, small_dataset, tmp_path, capsys):
        """--sweep, --temperature auto, --base and --val each apply only to the confidence strategy."""
        val, test = small_dataset
        out = tmp_path / "inf"
        for flags, named in ((["--sweep"], "--sweep"), (["--temperature", "auto"], "--temperature auto"),
                             (["--base", str(tmp_path / "X")], "--base"), ([], "--val")):
            rc = main(["infer", "--strategy", "transition", "--bank", str(test / "bank"), *flags, "--val", str(val),
                       "--out", str(out / "pred.csv")])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: {named} applies only to --strategy confidence\n"
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
        (lambda rows: [r[:5] for r in rows], "baseline logits must have K=7, got K=2"),
        (lambda rows: [["zz", *r[1:]] if r[0] == "video01" else r for r in rows], "bank does not cover video 'zz'"),
    ], ids=["k2", "unknown_video"])
    def test_baseline_not_matching_bank_named_and_writes_nothing(self, small_dataset, tmp_path, capsys, edit, message):
        _, test = small_dataset
        rows = [line.split(",") for line in (test / "baseline.csv").read_text().splitlines()]
        base = tmp_path / "baseline.csv"
        base.write_text("\n".join(",".join(r) for r in edit(rows)) + "\n")
        out = tmp_path / "inf"
        rc = main(["infer", "--strategy", "confidence", "--base", str(base), "--bank", str(test / "bank"),
                   "--out", str(out / "pred.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {base}: {message}\n"
        assert not out.exists()

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
        val, test = small_dataset
        reads = []

        def counting_load(path):
            reads.append(Path(path))
            return load_logits(path)

        monkeypatch.setattr(cli, "load_logits", counting_load)
        rc = main(["infer", "--strategy", "confidence", "--base", str(test / "baseline.csv"),
                   "--bank", str(test / "bank"), "--temperature", "auto", "--sweep", "--val", str(val),
                   "--out", str(tmp_path / "pred.csv")])
        assert rc == 0
        assert reads.count(val / "baseline.csv") == 1
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
            f"error: {partial / 'baseline.csv'}: missing ground truth for videos: video01\n")
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
        assert capsys.readouterr().err == (f"error: {partial / 'baseline.csv'}: frame counts differ from ground truth: "
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
            f"error: {pred}: frame counts differ from ground truth: video00: {frames} frames, ground truth 100\n")
        assert not out.exists()

    def test_prediction_without_ground_truth_named_and_writes_nothing(self, small_dataset, tmp_path, capsys):
        _, test = small_dataset
        pred = tmp_path / "pred.csv"
        main(["infer", "--strategy", "transition", "--bank", str(test / "bank"), "--out", str(pred)])
        pred.write_text(pred.read_text().replace("video01,", "zz,"))
        out = tmp_path / "eval"
        rc = main(["evaluate", "--pred", str(pred), "--gt", str(test / "gt.csv"), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {pred}: missing ground truth for videos: zz\n"
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
        assert capsys.readouterr().err == f"error: {trace}: {message.format(frames=frames)}\n"
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
        (b"videos = 1\nseed = \xff\n", "{cfg}:2: 'utf-8' codec can't decode byte 0xff in position 18: "
                                        "invalid start byte"),
    ], ids=["boolean", "float", "prefix", "unknown_key", "no_equals", "pair_acc", "not_utf8"])
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
        run with --sweep or --temperature auto is rejected both ways and
        writes nothing."""
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
            if strategy == "confidence":
                paths += ["--base", str(test / "baseline.csv"), "--val", str(val)]
            expected = 2 if strategy == "transition" and ("--sweep" in flags or "auto" in flags) else 0
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
        """A forked child writing the datasets gives the tree and output of
        writing them first in this process, the path where os.fork is missing."""
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert main(["pipeline", *flags, "--out", str(tmp_path / "forked")]) == 0
        forked = capsys.readouterr()
        assert forks == [1]
        monkeypatch.delattr(os, "fork")
        assert main(["pipeline", *flags, "--out", str(tmp_path / "inline")]) == 0
        assert capsys.readouterr() == forked
        assert _tree(tmp_path / "forked") == _tree(tmp_path / "inline")

    def test_dataset_write_error_is_a_simulate_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "test").mkdir(parents=True)
        (out / "test" / "bank").write_text("")
        assert main(["pipeline", *self.TINY, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error in stage simulate: ") and err.count("\n") == 1, err
        assert str(out / "test" / "bank") in err

    def test_bug_in_the_dataset_writer_propagates(self, tmp_path, monkeypatch):
        """A TypeError in the child is a bug: it leaves main as a TypeError
        whose cause holds the child's traceback."""
        def broken_writer(videos, out_dir):
            raise TypeError("broken writer")

        monkeypatch.setattr(cli.simulate, "save_dataset", broken_writer)
        with pytest.raises(TypeError, match="broken writer") as caught:
            main(["pipeline", *self.TINY, "--out", str(tmp_path / "run")])
        assert "in broken_writer" in str(caught.value.__cause__)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer runs in this process")
    def test_killed_writer_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.simulate, "save_dataset", lambda videos, out_dir: os.kill(os.getpid(), signal.SIGKILL))
        assert main(["pipeline", *self.TINY, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error in stage simulate: writer process \d+ was killed by SIGKILL\n", err), err

    def test_calibrate_error_waits_for_complete_datasets(self, tmp_path, capsys, monkeypatch):
        """A later stage that fails while the child writes still leaves
        whole dataset files, and the child reaped."""
        argv = ["pipeline", "--frames-mean", "420", "--val-videos", "2", "--test-videos", "2"]
        assert main([*argv, "--out", str(tmp_path / "whole")]) == 0
        save_dataset = cli.simulate.save_dataset

        def slow_writer(videos, out_dir):
            time.sleep(0.2)  # the parent fails first
            save_dataset(videos, out_dir)

        def broken(*args, **kwargs):
            raise ValueError("calibration broke")

        monkeypatch.setattr(cli.simulate, "save_dataset", slow_writer)
        monkeypatch.setattr(cli.calibration, "calibrate_report", broken)
        assert main([*argv, "--out", str(tmp_path / "cut")]) == 2
        assert capsys.readouterr().err == "error in stage calibrate: calibration broke\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        for split in ("val", "test"):
            assert _tree(tmp_path / "cut" / split) == _tree(tmp_path / "whole" / split)

    def test_stage_error_is_named(self, tmp_path, capsys):
        rc = main(["pipeline", "--out", str(tmp_path / "run"), "--base-acc", "0.05"])
        assert rc == 2
        assert "simulate" in capsys.readouterr().err

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
