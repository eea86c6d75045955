"""Command-line interface: simulate, calibrate, infer, evaluate, report and
pipeline subcommands wired over the library modules.

Exit codes: 0 success, 2 input or config error.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import calibration, inference, metrics, report, simulate
from .logits import LogitSequence, TransitionLogitBank, bank_path, load_bank, load_logits, positive_temperature
from .simulate import DEFAULT_PAIR_ACCURACY, NoiseSpec, WorkflowSpec, derive_video_seed
from .workflow import NUM_PHASES, all_transition_pairs, check_utf8, load_timelines, save_timelines

# Keys never written to config echoes: paths vary between runs without
# affecting artifact content, and byte-identical reruns are a contract.
_PATH_KEYS = {"out", "val", "test", "base", "bank", "pred", "gt", "trace", "results", "config", "func"}


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str):
    """Re-raise an input or config error inside the block (the types main
    reports) as a StageError naming ``name``; any other exception is a bug
    and propagates as it is."""
    try:
        yield
    except (ValueError, KeyError, OSError) as exc:
        raise StageError(name, exc) from exc


class _ChildTraceback(Exception):
    """The formatted traceback of an exception raised in a forked child,
    chained as the cause of that exception when the parent re-raises it."""


@contextmanager
def _alongside(stage: str, work):
    """Run ``work()`` in one forked child while the block runs in this process.

    After the block, even when it raised, the parent reads what the child
    sent and reaps it. An exception ``work`` raised, or the child's death by
    a signal, is then raised inside ``_stage(stage)``; it replaces any
    exception of the block, because ``stage`` comes first. The child ends
    with ``os._exit``, so it never flushes this process's buffers or runs its
    exit handlers. Where ``os.fork`` does not exist, ``work()`` runs first,
    inline.
    """
    if not hasattr(os, "fork"):
        with _stage(stage):
            work()
        yield
        return
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the child
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                try:
                    work()
                except BaseException as exc:  # sent to the parent, which raises it again
                    import traceback  # here, so that importing cli loads no module for it
                    pipe.write(pickle.dumps((exc, traceback.format_exc())))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        yield
    finally:
        with open(read_fd, "rb") as pipe:
            sent = pipe.read()  # all of it before waiting, so a full pipe cannot block the child
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        with _stage(stage):
            if sent:  # the child's own bytes, so unpickling them is safe
                exc, text = pickle.loads(sent)
                raise exc from _ChildTraceback(text)
            if code < 0:
                import signal
                raise ChildProcessError(f"writer process {pid} was killed by {signal.Signals(-code).name}")
            if code:
                raise ChildProcessError(f"writer process {pid} exited with status {code}")


@contextmanager
def _naming(path):
    """Prefix a ValueError raised inside the block with ``path``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def write_config_echo(directory, values: dict) -> None:
    """Echo the resolved run configuration (built on _echo_values) as sorted
    ``key = value`` lines."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [f"{k} = {_format_value(v)}" for k, v in sorted(values.items())]
    (directory / "config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _echo_values(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in _PATH_KEYS and v is not None}


def _parse_with_config(parser, subparser, argv: list[str], path) -> argparse.Namespace:
    """Parse ``argv`` again with the flags its ``key = value`` config file
    names placed first, so explicit flags win: ``frames_mean = 280`` names
    ``--frames-mean=280`` and ``monotone = off`` names ``--no-monotone``.
    Each line is first parsed on its own, so an error names it."""
    check_utf8(path)
    with open(path, encoding="utf-8") as fh:
        lines = list(fh)
    command, rest, flags = argv[0], argv[1:], []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        name = key.replace("_", "-")
        flag, default = f"--{name}={value}", subparser.get_default(name.replace("-", "_"))
        if isinstance(default, bool):
            on = value.lower() in ("1", "true", "yes", "on")
            if not on and value.lower() not in ("0", "false", "no", "off"):
                raise ValueError(f"{path}:{lineno}: {key} takes 1/true/yes/on or 0/false/no/off, got {value!r}")
            if on == default:
                continue
            flag = f"--{name}" if on else f"--no-{name}"
        try:
            _, unknown = parser.parse_known_args([command, flag, *rest])
        except argparse.ArgumentError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if unknown:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        flags.append(flag)
    return parser.parse_args([command, *flags, *rest])


def _pair_acc(text: str) -> tuple[float, ...]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) == 1:
        return tuple(parts * (NUM_PHASES - 1))
    if len(parts) != NUM_PHASES - 1:
        raise argparse.ArgumentTypeError(f"takes 1 or {NUM_PHASES - 1} comma-separated values, got {len(parts)}")
    return tuple(parts)


def _formats(text: str) -> tuple[str, ...]:
    fmts = tuple(f.strip() for f in text.split(",") if f.strip())
    if not fmts:
        raise argparse.ArgumentTypeError(f"names no format in {text!r}; choose from text, json, svg")
    unknown = set(fmts) - {"text", "json", "svg"}
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown formats: {', '.join(sorted(unknown))}")
    return fmts


def _int_at_least(low: int):
    """An argparse type for integers >= ``low``."""
    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
    return parse


def _number_in(low: int, high: int):
    """An argparse type for finite numbers in [``low``, ``high``]."""
    def parse(text: str) -> float:
        try:
            if low <= float(text) <= high:
                return float(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be a number in [{low}, {high}], got {text!r}")
    return parse


def _temperature(text: str) -> float | str:
    """``auto``, or a positive finite temperature."""
    if text == "auto":
        return text
    try:
        return positive_temperature(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive finite number or 'auto', got {text!r}") from None


def _workflow_spec(args) -> WorkflowSpec:
    dwell_mean = args.frames_mean / NUM_PHASES
    dwell_min = max(1, round(dwell_mean / 4)) if args.dwell_min is None else args.dwell_min
    return WorkflowSpec(dwell_mean=dwell_mean, dwell_min=dwell_min, monotone=args.monotone)


def _noise_spec(args, seed=None) -> NoiseSpec:
    return NoiseSpec(
        base_accuracy_target=args.base_acc,
        pairwise_accuracy_target=args.pair_acc,
        overconfidence=args.overconfidence,
        boundary_jitter=args.jitter,
        rng_seed=args.seed if seed is None else seed,
    )


# ---------------------------------------------------------------- simulate

def _simulation_echo(args, workflow: WorkflowSpec) -> dict:
    echo = _echo_values(args)
    echo["resolved_dwell_mean"] = workflow.dwell_mean
    echo["resolved_dwell_min"] = workflow.dwell_min
    return echo


def _video_prefix(text: str) -> str:
    """A video id prefix whose ids the file readers read back unchanged."""
    if text != text.strip() or text.startswith("#") or any(c in text for c in ",\n\r"):
        raise argparse.ArgumentTypeError(f"{text!r} has a comma, line break, leading '#' or surrounding whitespace")
    return text


def cmd_simulate(args) -> int:
    out = Path(args.out)
    workflow = _workflow_spec(args)
    simulate.generate_dataset(
        out,
        args.videos,
        workflow,
        _noise_spec(args),
        id_prefix=args.prefix,
        smoothing_window=args.attention_smooth,
    )
    write_config_echo(out, _simulation_echo(args, workflow))
    print(f"wrote {args.videos} simulated videos to {out}")
    return 0


# ---------------------------------------------------------------- calibrate

def _write_calibration(out_dir, report_path, val: dict, test: dict, val_file: Path, test_file: Path,
                       bins: int, extra_results: dict) -> dict:
    """Fit T on the ``val`` baselines ({video_id: LogitSequence}) and write the
    results (plus ``extra_results``), their text rendering and the ``test``
    split's reliability bins before and after. Nothing is written unless the
    report can be computed; errors in a split name its file. Returns the results."""
    # video id order fixes the concatenation order, and so the float results
    val_seqs, test_seqs = ([split[v] for v in sorted(split)] for split in (val, test))
    cal = calibration.calibrate_report(val_seqs, test_seqs, num_bins=bins,
                                       val_name=str(val_file), test_name=str(test_file))
    results = {**report.calibration_results(cal), **extra_results}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_results_json(results, report_path)
    (out_dir / "report.txt").write_text(report.render_report_text(results), encoding="utf-8")
    for name, temperature in (("before", 1.0), ("after", cal.fitted.value)):
        reliability = calibration.reliability_bins(test_seqs, temperature=temperature, num_bins=bins)
        report.write_reliability_csv(reliability, out_dir / f"reliability_{name}.csv")
    return results


def cmd_calibrate(args) -> int:
    out = Path(args.out)
    out_dir, report_path = (out.parent, out) if out.suffix == ".json" else (out, out / "report.json")
    val_file, test_file = Path(args.val) / "baseline.csv", Path(args.test) / "baseline.csv"
    val, test = load_logits(val_file), load_logits(test_file)
    extra = _bank_temperatures(Path(args.val) / "bank") if args.include_bank else {}
    results = _write_calibration(out_dir, report_path, val, test, val_file, test_file, args.bins, extra)
    write_config_echo(out_dir, _echo_values(args))
    print(report.render_report_text(results), end="")
    return 0


def _bank_temperatures(directory) -> dict:
    """Optional per-pair fits on in-pair frames, labels mapped to {1, 2}; errors name the pair file."""
    bank = load_bank(directory)
    out = {}
    for pair in all_transition_pairs():
        zs, ys = [], []
        for vid in bank.videos():
            seq = bank.sequences[vid][pair]
            if seq.labels is None:
                continue
            mask = (seq.labels == pair.low) | (seq.labels == pair.high)
            if mask.any():
                zs.append(seq.logits[mask])
                ys.append(np.where(seq.labels[mask] == pair.high, 2, 1))
        if not zs:
            out[f"calibration.bank.{pair.name}.temperature"] = None
            continue
        with _naming(bank_path(directory, pair)):
            fitted = calibration.fit_temperature(np.concatenate(zs), np.concatenate(ys))
        out[f"calibration.bank.{pair.name}.temperature"] = fitted.value
    return out


# ---------------------------------------------------------------- infer

def _resolve_temperature(args, val_base) -> float:
    if args.temperature != "auto":
        return args.temperature
    if val_base is None:
        raise ValueError("--temperature auto requires --val <dir> to fit on")
    with _naming(Path(args.val) / "baseline.csv"):
        fitted = calibration.fit_temperature([val_base[v] for v in sorted(val_base)])
    print(f"fitted temperature on validation split: {fitted.value!r}")
    return fitted.value


def _infer(strategy: str, baselines: dict[str, LogitSequence], bank, cfg) -> tuple[dict, dict]:
    """Run one strategy over every video in id order: ({vid: timeline}, {vid: trace})."""
    if strategy == "transition":
        runs = {vid: inference.transition_inference(bank, vid, cfg) for vid in bank.videos()}
    else:
        runs = {vid: inference.confidence_inference(baselines[vid], bank, cfg) for vid in sorted(baselines)}
    return {vid: t for vid, (t, _) in runs.items()}, {vid: tr for vid, (_, tr) in runs.items()}


def cmd_infer(args) -> int:
    confidence = args.strategy == "confidence"
    if not confidence:  # name the first flag the transition strategy would ignore
        for flag, given in (("--sweep", args.sweep), ("--temperature auto", args.temperature == "auto"),
                            ("--base", args.base is not None), ("--val", args.val is not None)):
            if given:
                raise ValueError(f"{flag} applies only to --strategy confidence")
    bank = load_bank(args.bank)
    # one parse of the validation baselines serves both --temperature auto and --sweep
    val_base = None
    if args.val and (args.sweep or args.temperature == "auto"):
        val_base = load_logits(Path(args.val) / "baseline.csv")
    cfg = inference.InferenceConfig(
        buffer_size=args.buffer,
        conf_threshold=args.threshold,
        temperature=_resolve_temperature(args, val_base),
    )
    if args.sweep:
        cfg = replace(cfg, conf_threshold=_run_sweep(args, cfg, val_base))
    baselines = {}
    if confidence:
        if not args.base:
            raise ValueError("--strategy confidence requires --base <file>")
        baselines = load_logits(args.base)
    with _naming(args.base if confidence else args.bank):
        timelines, traces = _infer(args.strategy, baselines, bank, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_timelines(list(timelines.values()), out)
    if args.trace:
        inference.save_traces(list(traces.values()), args.trace)
    echo = _echo_values(args)
    if confidence:
        echo["resolved_threshold"] = cfg.conf_threshold
        echo["resolved_temperature"] = cfg.temperature
    write_config_echo(out.parent, echo)
    print(f"wrote {len(timelines)} predicted timelines to {out}")
    return 0


def _run_sweep(args, cfg, baselines) -> float:
    if baselines is None:
        raise ValueError("--sweep requires --val <dir> with labeled data")
    gts = load_timelines(Path(args.val) / "gt.csv")
    with _naming(Path(args.val) / "baseline.csv"):
        metrics.require_ground_truth(baselines, gts)
    best, table = inference.sweep_threshold(baselines, load_bank(Path(args.val) / "bank"), gts, cfg)
    print("threshold sweep on validation split:")
    for t, a in table:
        marker = "  <- best" if t == best else ""
        print(f"  t_conf={t:.1f}  accuracy={100 * a:.2f}%{marker}")
    return best


# ---------------------------------------------------------------- evaluate

def _write_results(out: Path, results: dict, formats, texts: dict, ribbons: dict) -> None:
    """Write into ``out`` what ``formats`` selects: results.json, the ``texts``
    ({file name: results} to render) and the ``ribbons`` ({file name: (gt, pred)})."""
    out.mkdir(parents=True, exist_ok=True)
    if "json" in formats:
        report.write_results_json(results, out / "results.json")
    if "text" in formats:
        for name, family in texts.items():
            (out / name).write_text(report.render_report_text(family), encoding="utf-8")
    if "svg" in formats:
        for name, (gt, pred) in ribbons.items():
            report.write_ribbon_svg(gt, pred, out / name)


def cmd_evaluate(args) -> int:
    preds = load_timelines(args.pred)
    gts = load_timelines(args.gt)
    with _naming(args.pred):
        results = metrics.evaluate_predictions(preds, gts)
    if args.trace:
        traces = inference.load_traces(args.trace)
        with _naming(args.trace):
            metrics.require_ground_truth(traces, gts)
        for vid in sorted(traces):
            results.update(report.cascade_results(metrics.detect_cascades(traces[vid], gts[vid]), f"video.{vid}"))

    out = Path(args.out)
    ribbons = {f"ribbon_{vid}.svg": (gts[vid], preds[vid]) for vid in sorted(preds)}
    _write_results(out, results, args.format, {"evaluation.txt": results}, ribbons)
    write_config_echo(out, _echo_values(args))
    print(f"accuracy: pooled {report.pct(results['accuracy.pooled'])}%, "
          f"per-video mean {report.pct(results['accuracy.video_mean'])}%")
    return 0


# ---------------------------------------------------------------- report

def cmd_report(args) -> int:
    results = report.load_results_json(args.results)
    with _naming(args.results):
        text = report.render_report_text(results)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(text, encoding="utf-8")
    write_config_echo(out, _echo_values(args))
    print(text, end="")
    return 0


# ---------------------------------------------------------------- pipeline

def cmd_pipeline(args) -> int:
    """simulate -> calibrate -> infer (all four strategies) -> evaluate -> report.

    The whole configuration is checked, and every video simulated, before the
    first artifact is written. Each stage writes its artifacts once and hands
    its in-memory results to the next, so no artifact is read back. One forked
    child writes the two datasets while this process runs the later stages.
    Identical configuration and seed yield byte-identical trees. Raises
    StageError naming the failing stage; a failed dataset write is named
    ``simulate`` even though the later stages have run by then.
    """
    with _stage("simulate"):
        workflow = _workflow_spec(args)
        videos = {
            split: simulate.simulate_videos(
                count, workflow, _noise_spec(args, derive_video_seed(args.seed, key)),
                id_prefix=split, smoothing_window=args.attention_smooth,
            )
            for split, key, count in (("val", 101, args.val_videos), ("test", 202, args.test_videos))
        }
        out = Path(args.out)
        echo = _simulation_echo(args, workflow)
        del echo["command"]  # keeps pipeline echoes byte-identical to earlier versions
        for directory in (out, out / "val", out / "test"):
            write_config_echo(directory, echo)
        base_val = {v.baseline.video_id: v.baseline for v in videos["val"]}
        base_test = {v.baseline.video_id: v.baseline for v in videos["test"]}
        gts = {v.ground_truth.video_id: v.ground_truth for v in videos["test"]}
        bank = TransitionLogitBank.merge([v.bank for v in videos["test"]])

    def save_datasets():
        for split, split_videos in videos.items():
            simulate.save_dataset(split_videos, out / split)

    # no later stage reads the dataset files, so one child writes them meanwhile
    with _alongside("simulate", save_datasets):
        with _stage("calibrate"):
            cal_dir = out / "calibration"
            results = _write_calibration(cal_dir, cal_dir / "report.json", base_val, base_test,
                                         out / "val" / "baseline.csv", out / "test" / "baseline.csv", args.bins, {})
            write_config_echo(cal_dir, echo)

        with _stage("infer"):
            inf_dir = out / "inference"
            inf_dir.mkdir(exist_ok=True)
            uncal_cfg = inference.InferenceConfig(args.buffer, args.threshold)
            cal_cfg = replace(uncal_cfg, temperature=results["calibration.temperature"])
            strategies = {"baseline": {vid: inference.baseline_argmax(base_test[vid]) for vid in sorted(base_test)}}
            traces = {}
            for name, strategy, cfg in (
                ("transition", "transition", cal_cfg),
                ("confidence_uncalibrated", "confidence", uncal_cfg),
                ("confidence_calibrated", "confidence", cal_cfg),
            ):
                strategies[name], traces[name] = _infer(strategy, base_test, bank, cfg)
            for name, by_vid in strategies.items():
                save_timelines(list(by_vid.values()), inf_dir / f"{name}.csv")
            for name, by_vid in traces.items():
                inference.save_traces(list(by_vid.values()), inf_dir / f"{name}_trace.csv")
            write_config_echo(inf_dir, echo)

        with _stage("evaluate"):
            for name in report.STRATEGY_ORDER:
                ev = metrics.evaluate_predictions(strategies[name], gts)
                results.update({f"strategy.{name}.{k}": v for k, v in ev.items()})
            for name, by_vid in traces.items():
                count = frames = 0
                for vid, trace in by_vid.items():
                    cas = metrics.detect_cascades(trace, gts[vid])
                    count += len(cas.runs)
                    frames += cas.total_frames()
                results[f"strategy.{name}.cascade.count"] = count
                results[f"strategy.{name}.cascade.frames"] = frames
            results.update(metrics.bank_restricted_accuracies(bank, gts))
            strategy_family = {k: v for k, v in results.items() if k.startswith("strategy.")}
            ribbons = {f"ribbon_{name}_{vid}.svg": (gts[vid], strategies[name][vid])
                       for name in ("transition", "confidence_calibrated") for vid in sorted(strategies[name])}
            _write_results(out / "evaluation", results, args.format,
                           {"strategies.txt": strategy_family, "report.txt": results}, ribbons)
            write_config_echo(out / "evaluation", echo)

    print(report.render_report_text(results), end="")
    return 0


# ---------------------------------------------------------------- parser

def _add_simulation_flags(p: argparse.ArgumentParser, frames_default: float) -> None:
    # one frame per phase at least; at most, each video's arrays stay allocatable
    p.add_argument("--frames-mean", type=_number_in(NUM_PHASES, 1_000_000), default=frames_default,
                   help="mean video length in frames (split evenly over the 7 phases)")
    p.add_argument("--dwell-min", type=_int_at_least(1), default=None,
                   help="minimum frames per phase (default: mean dwell / 4)")
    p.add_argument("--monotone", action=argparse.BooleanOptionalAction, default=True,
                   help="phases 1..7 strictly in order")
    p.add_argument("--base-acc", type=float, default=0.85, help="baseline argmax accuracy target")
    p.add_argument("--pair-acc", type=_pair_acc, default=DEFAULT_PAIR_ACCURACY,
                   help="six comma-separated per-pair accuracy targets")
    p.add_argument("--overconfidence", type=float, default=2.5,
                   help="true miscalibration factor multiplied into the logits")
    p.add_argument("--jitter", type=_int_at_least(0), default=10,
                   help="frames around each phase change with concentrated errors")
    p.add_argument("--attention-smooth", type=_int_at_least(0), default=0,
                   help="smooth logits through the attention kernel over this window (0 = off)")
    p.add_argument("--seed", type=_int_at_least(0), default=42)


class _Parser(argparse.ArgumentParser):
    """Raises ArgumentError for main to report in one line, where argparse
    would print the usage block and exit: a bad value, an unknown flag or a
    missing required flag. Subcommand parsers inherit it."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # a config key must name its flag in full
    parser = _Parser(
        prog="phasekit",
        description="Surgical phase inference toolkit: calibrated-confidence switching "
                    "between a 7-class baseline and six 2-class transition models.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    shared = {
        "--buffer": dict(type=_int_at_least(1), default=100, help="majority buffer size"),
        "--threshold": dict(type=_number_in(0, 1), default=0.5, help="confidence threshold for accepting the baseline"),
        "--bins": dict(type=_int_at_least(1), default=15, help="ECE bin count"),
        "--format": dict(type=_formats, default=("text", "json", "svg")),
        "--config": dict(help="plain-text key = value config file"),
    }

    def command(name, func, help, *flags):
        p = parsers[name] = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        for flag in (*flags, "--config"):
            p.add_argument(flag, **shared[flag])
        return p

    p = command("simulate", cmd_simulate, "generate a synthetic dataset directory")
    p.add_argument("--videos", type=_int_at_least(1), default=8)
    p.add_argument("--prefix", type=_video_prefix, default="video", help="video id prefix")
    _add_simulation_flags(p, frames_default=1800.0)
    p.add_argument("--out", required=True, help="dataset directory to write")

    p = command("calibrate", cmd_calibrate, "fit temperature on validation, report on test", "--bins")
    p.add_argument("--val", required=True, help="validation dataset directory")
    p.add_argument("--test", required=True, help="test dataset directory")
    p.add_argument("--include-bank", action="store_true",
                   help="also fit per-pair temperatures for the transition bank")
    p.add_argument("--out", required=True, help="output directory or report .json path")

    p = command("infer", cmd_infer, "run an inference strategy over logit files", "--buffer", "--threshold")
    p.add_argument("--strategy", choices=("transition", "confidence"), required=True)
    p.add_argument("--base", help="baseline K=7 logit file (confidence strategy)")
    p.add_argument("--bank", required=True, help="transition bank directory")
    p.add_argument("--temperature", type=_temperature, default="1.0",
                   help="softmax temperature, or 'auto' to fit on --val")
    p.add_argument("--val", help="labeled validation dataset directory (for auto/sweep)")
    p.add_argument("--sweep", action="store_true",
                   help="pick the threshold by accuracy over a 0.1..0.9 grid on --val")
    p.add_argument("--trace", help="write the per-frame decision trace here")
    p.add_argument("--out", required=True, help="predicted timeline file")

    p = command("evaluate", cmd_evaluate, "score predictions against ground truth", "--format")
    p.add_argument("--pred", required=True, help="predicted timeline file")
    p.add_argument("--gt", required=True, help="ground-truth timeline file")
    p.add_argument("--trace", help="decision trace for cascade detection")
    p.add_argument("--out", required=True, help="output directory")

    p = command("report", cmd_report, "re-render every text table from a results JSON")
    p.add_argument("--results", required=True, help="results JSON from evaluate, calibrate or pipeline")
    p.add_argument("--out", required=True, help="output directory")

    p = command("pipeline", cmd_pipeline, "run the full synthetic pipeline end to end",
                "--buffer", "--threshold", "--bins", "--format")
    p.add_argument("--val-videos", type=_int_at_least(1), default=2)
    p.add_argument("--test-videos", type=_int_at_least(1), default=3)
    _add_simulation_flags(p, frames_default=1200.0)
    p.add_argument("--out", required=True, help="artifact directory")
    return parser, parsers


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, parsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _parse_with_config(parser, parsers[args.command], argv, args.config)
        return args.func(args)
    except StageError as exc:
        print(f"error in stage {exc.stage}: {exc.cause}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
