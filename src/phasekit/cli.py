"""Command-line interface: simulate, calibrate, infer, evaluate, report and
pipeline subcommands wired over the library modules.

Exit codes: 0 success, 2 input or config error.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import calibration, inference, metrics, report, simulate
from .fork import _results, _shared
from .logits import (LogitSequence, PairLabelBank, TransitionLogitBank, bank_files, check_bank_shapes, load_logits,
                     pair_argmax, positive_temperature)
from .simulate import DEFAULT_PAIR_ACCURACY, NoiseSpec, WorkflowSpec, derive_video_seed
from .workflow import NUM_PHASES, all_transition_pairs, check_utf8, load_timelines, save_timelines

# Keys never written to config echoes: paths vary between runs without
# affecting artifact content, and byte-identical reruns are a contract.
_PATH_KEYS = {"out", "val", "test", "base", "bank", "pred", "gt", "trace", "results", "config", "func"}


class StageError(RuntimeError):
    """An input or config error of a pipeline stage, in a message that names the stage."""


@contextmanager
def _stage(name: str):
    """Re-raise an input or config error inside the block (the types main
    reports) as a StageError naming ``name``; any other exception is a bug
    and propagates as it is."""
    try:
        yield
    except (ValueError, KeyError, OSError) as exc:
        raise StageError(f"error in stage {name}: {exc}") from exc


@contextmanager
def _naming(*paths):
    """Prefix a ValueError raised inside the block with ``paths``: the file at
    fault, or the files that disagree, either of which may be at fault."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{' and '.join(map(str, paths))}: {exc}") from None


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
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"takes 1 or {NUM_PHASES - 1} comma-separated numbers, got {text!r}") from None
    if len(parts) not in (1, NUM_PHASES - 1):
        raise argparse.ArgumentTypeError(f"takes 1 or {NUM_PHASES - 1} comma-separated values, got {len(parts)}")
    for part in parts:
        if not 0.5 < part <= 1:
            raise argparse.ArgumentTypeError(f"takes accuracies in (0.5, 1], got {part!r}")
    return tuple(parts * (NUM_PHASES - 1) if len(parts) == 1 else parts)


def _formats(text: str) -> tuple[str, ...]:
    fmts = tuple(f.strip() for f in text.split(",") if f.strip())
    if not fmts:
        raise argparse.ArgumentTypeError(f"names no format in {text!r}; choose from text, json, svg")
    unknown = set(fmts) - {"text", "json", "svg"}
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown formats: {', '.join(sorted(unknown))}")
    return fmts


def _int_at_least(low: int, high: float = float("inf")):
    """An argparse type for integers >= ``low`` and <= ``high``."""
    def parse(text: str) -> int:
        try:
            if int(text) > high:
                raise argparse.ArgumentTypeError(f"must be an integer <= {high}, got {text!r}")
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
    return parse


def _number_in(low: float, high: float, low_open: bool = False, low_text: str | None = None):
    """An argparse type for finite numbers in [``low``, ``high``], or in
    (``low``, ``high``] when ``low_open``, an error showing ``low`` as
    ``low_text`` if given; an infinite ``high`` is excluded."""
    interval = f"{'(' if low_open else '['}{low_text or low}, {high}{')' if math.isinf(high) else ']'}"

    def parse(text: str) -> float:
        try:
            value = float(text)
            if (low < value if low_open else low <= value) and value <= high and math.isfinite(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be a number in {interval}, got {text!r}")
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
    if args.dwell_min is not None and args.dwell_min > dwell_mean:
        raise ValueError(f"argument --dwell-min: must be at most the mean dwell, --frames-mean / {NUM_PHASES} = "
                         f"{dwell_mean!r}, got {args.dwell_min}")
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

def _write_calibration(out_dir: Path, report_path, fitted: calibration.Temperature, test: dict, test_file: Path,
                       bins: int, extra_results: dict) -> dict:
    """Write the results of the temperature ``fitted`` on the ``test``
    baselines ({video_id: LogitSequence}), plus ``extra_results``, their text
    rendering and the test split's reliability bins before and after. Nothing
    is written unless the report can be computed; an error in the test split
    names ``test_file``. Returns the results."""
    # video id order fixes the order of the per-row NLL terms and of the binned sums, and so the float results
    with _naming(test_file):
        cal = calibration.held_out_report(fitted, [test[v] for v in sorted(test)], bins)
    results = {**report.calibration_results(cal), **extra_results}
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_results_json(results, report_path)
    (out_dir / "report.txt").write_text(report.render_report_text(results), encoding="utf-8")
    for name, reliability in zip(("before", "after"), cal.reliability, strict=True):
        report.write_reliability_csv(reliability, out_dir / f"reliability_{name}.csv")
    return results


def cmd_calibrate(args) -> int:
    out = Path(args.out)
    out_dir, report_path = (out.parent, out) if out.suffix == ".json" else (out, out / "report.json")
    val_file, test_file = Path(args.val) / "baseline.csv", Path(args.test) / "baseline.csv"
    pair_files = bank_files(Path(args.val) / "bank") if args.include_bank else []
    # each validation file's job fits its T there, so only the fits and the test split come back
    jobs = [partial(_parsed, _fit, val_file), partial(load_logits, test_file),
            *(partial(_parsed, partial(_pair_temperature, pair), path)
              for pair, path in zip(all_transition_pairs(), pair_files))]
    (_, val_fit), test, *pairs = _results(jobs)
    if pairs:  # the bank is checked whole after its fits, as assemble_bank would
        check_bank_shapes([shapes for shapes, _ in pairs])
    extra = {}
    for pair, (_, fit) in zip(all_transition_pairs(), pairs):  # null where no labeled frame lies in the pair
        key = f"calibration.bank.{pair.name}.temperature"
        extra[key], extra[f"{key}_at_bound"] = (None, None) if fit is None else (fit.value, int(fit.at_bound))
    results = _write_calibration(out_dir, report_path, val_fit, test, test_file, args.bins, extra)
    write_config_echo(out_dir, _echo_values(args))
    print(report.render_report_text(results), end="")
    return 0


def _fit(path, sequences: dict) -> calibration.Temperature:
    """T fitted on the labeled ``sequences`` of the file ``path`` in video id
    order; an error names the file."""
    with _naming(path):
        return calibration.fit_temperature([sequences[v] for v in sorted(sequences)])


def _parsed(reduce, path) -> tuple[dict, object]:
    """Parse the logit file ``path``: the logits' shape per video, and ``reduce(path, sequences)``,
    so that only these come back from a job."""
    sequences = load_logits(path)
    return {vid: seq.logits.shape for vid, seq in sequences.items()}, reduce(path, sequences)


def _pair_temperature(pair, path, sequences: dict) -> calibration.Temperature | None:
    """T fitted on the in-pair frames of ``sequences`` in video id order,
    labels mapped to {1, 2}; None when no labeled frame lies in the pair."""
    zs, ys = [], []
    for vid in sorted(sequences):
        seq = sequences[vid]
        if seq.labels is None:
            continue
        mask = (seq.labels == pair.low) | (seq.labels == pair.high)
        if mask.any():
            zs.append(seq.logits[mask])
            ys.append(np.where(seq.labels[mask] == pair.high, 2, 1))
    if not zs:
        return None
    with _naming(path):
        return calibration.fit_temperature(np.concatenate(zs), np.concatenate(ys))


# ---------------------------------------------------------------- infer

def _pair_argmaxes(pair, path, sequences: dict) -> dict:
    """Each video's pair_argmax of ``pair`` over the ``sequences`` of its pair file ``path``."""
    return {vid: pair_argmax(pair, seq.logits) for vid, seq in sequences.items()}


def _label_jobs(directory) -> list:
    """One job per pair file of the bank ``directory``, in pair order, that
    parses and checks every row and returns what PairLabelBank.assemble takes."""
    return [partial(_parsed, partial(_pair_argmaxes, pair), path)
            for pair, path in zip(all_transition_pairs(), bank_files(directory))]


def _unlabeled(path) -> dict[str, LogitSequence]:
    """The logit file ``path`` parsed, without the labels that no strategy reads."""
    return {vid: replace(seq, labels=None) for vid, seq in load_logits(path).items()}


def _run_strategy(strategy: str, baselines: dict[str, LogitSequence], bank, cfg, vid: str) -> tuple:
    """One video's (timeline, trace) under ``strategy``."""
    if strategy == "transition":
        return inference.transition_inference(bank, vid, cfg)
    return inference.confidence_inference(baselines[vid], bank, cfg)


def _tuned(args) -> tuple[calibration.Temperature | None, tuple[float, list] | None]:
    """Parse the validation split of ``infer`` and tune on it: the
    ``--temperature auto`` fit, then the ``--sweep``'s (threshold, table),
    each None when it is not asked for."""
    val = Path(args.val)
    base = load_logits(val / "baseline.csv")
    if args.sweep:
        gts = load_timelines(val / "gt.csv")
        pairs = [job() for job in _label_jobs(val / "bank")]
    fit = _fit(val / "baseline.csv", base) if args.temperature == "auto" else None
    if not args.sweep:
        return fit, None
    bank = PairLabelBank.assemble(pairs)
    with _naming(val / "baseline.csv", val / "gt.csv"):
        metrics.require_ground_truth(base, gts)
    with _naming(val / "baseline.csv"):
        return fit, inference.sweep_threshold(base, bank, gts, fit.value if fit else args.temperature)


def cmd_infer(args) -> int:
    confidence = args.strategy == "confidence"
    if not confidence:  # name the first flag the transition strategy would ignore
        for flag, given in (("--sweep", args.sweep), ("--temperature auto", args.temperature == "auto"),
                            ("--temperature", args.temperature is not None),
                            ("--threshold", args.threshold is not None),
                            ("--base", args.base is not None), ("--val", args.val is not None)):
            if given:
                raise ValueError(f"{flag} applies only to --strategy confidence")
    if args.sweep and args.threshold is not None:
        raise ValueError("--threshold applies only without --sweep")
    if args.threshold is None:  # not given: the default, which config.txt echoes
        args.threshold = inference.InferenceConfig.conf_threshold
    if args.temperature is None:
        args.temperature = inference.InferenceConfig.temperature
    fit_on_val = args.sweep or args.temperature == "auto"
    if args.val and not fit_on_val:
        raise ValueError("--val applies only with --temperature auto or --sweep")
    if args.temperature == "auto" and not args.val:
        raise ValueError("--temperature auto requires --val <dir> to fit on")
    if args.sweep and not args.val:
        raise ValueError("--sweep requires --val <dir> with labeled data")
    if confidence and not args.base:
        raise ValueError("--strategy confidence requires --base <file>")
    out, first = Path(args.out), {}
    for name, path in (("--out", out), ("--trace", args.trace), ("the configuration echo", out.parent / "config.txt")):
        other = first.setdefault(Path(path).resolve(), name) if path else name
        if other != name:  # one output would overwrite another, however their paths are spelled
            raise ValueError(f"{other} and {name} both name {path}")
    jobs = _label_jobs(args.bank)  # the pair files, 2 scores a row, each back as one byte a frame
    if args.sweep:  # checked before the fork, as the bank's are
        bank_files(Path(args.val) / "bank")
    if confidence:  # the baselines, 7 scores a row, go before them: the largest jobs first
        jobs.insert(0, partial(_unlabeled, args.base))
    if fit_on_val:  # first, one job parses the validation split and tunes on it, for --temperature auto and --sweep
        jobs.insert(0, partial(_tuned, args))
    parsed = _results(jobs)
    fit, sweep = parsed.popleft() if fit_on_val else (None, None)
    baselines = parsed.popleft() if confidence else {}
    bank = PairLabelBank.assemble(parsed)
    temperature, threshold = args.temperature, args.threshold
    if fit:
        temperature = fit.value
        print(f"fitted temperature on validation split: {temperature!r}{report.AT_BOUND if fit.at_bound else ''}")
    if sweep:
        threshold, table = sweep
        print("threshold sweep on validation split:")
        for t, a in table:
            marker = "  <- best" if t == threshold else ""
            print(f"  t_conf={t:.1f}  accuracy={100 * a:.2f}%{marker}")
    cfg = inference.InferenceConfig(buffer_size=args.buffer, conf_threshold=threshold, temperature=temperature)
    with _naming(args.base if confidence else args.bank):  # every video runs before either file is written
        timelines, traces = zip(*(_run_strategy(args.strategy, baselines, bank, cfg, vid)
                                  for vid in sorted(baselines if confidence else bank.videos())))
    for path in filter(None, (out, args.trace)):  # both directories, before either file is written
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    save_timelines(timelines, out)
    if args.trace:
        inference.save_traces(traces, args.trace)
    echo = _echo_values(args)
    if confidence:
        echo["resolved_threshold"] = cfg.conf_threshold
        echo["resolved_temperature"] = cfg.temperature
    write_config_echo(out.parent, echo)
    print(f"wrote {len(timelines)} predicted timelines to {out}")
    return 0


# ---------------------------------------------------------------- evaluate

def _write_results(out: Path, results: dict, formats, texts: dict) -> None:
    """Write into ``out`` what ``formats`` selects of results.json and the
    ``texts`` ({file name: results} to render)."""
    out.mkdir(parents=True, exist_ok=True)
    if "json" in formats:
        report.write_results_json(results, out / "results.json")
    if "text" in formats:
        for name, family in texts.items():
            (out / name).write_text(report.render_report_text(family), encoding="utf-8")


def _keep_inputs(inputs: dict, outputs: dict) -> None:
    """Raise ValueError when an input file, {flag: path}, is one of the
    ``outputs``, {path: what writes it}, however their paths are spelled."""
    written = {Path(path).resolve(): what for path, what in outputs.items()}
    for flag, path in inputs.items():
        if Path(path).resolve() in written:
            raise ValueError(f"{flag} and {written[Path(path).resolve()]} both name {path}")


def cmd_evaluate(args) -> int:
    out = Path(args.out)
    inputs = {flag: path for flag, path in (("--pred", args.pred), ("--gt", args.gt), ("--trace", args.trace)) if path}
    _keep_inputs(inputs, {out / name: what for name, what, fmt in (
        ("results.json", "the results JSON", "json"), ("evaluation.txt", "the evaluation text", "text"),
        ("config.txt", "the configuration echo", None)) if fmt is None or fmt in args.format})
    reads = [partial(load_timelines, args.pred), partial(load_timelines, args.gt)]
    if args.trace:  # the largest file first: a trace row has 4 columns, a timeline row 1
        reads.insert(0, partial(inference.load_traces, args.trace))
    parsed = _results(reads)
    traces = parsed.popleft() if args.trace else {}
    preds, gts = parsed.popleft(), parsed.popleft()
    if "svg" in args.format:
        _keep_inputs(inputs, {out / f"ribbon_{vid}.svg": f"the ribbon of video {vid!r}" for vid in preds})
    with _naming(args.pred, args.gt):
        results = metrics.evaluate_predictions(preds, gts)
    if args.trace:
        with _naming(args.trace, args.gt):
            metrics.require_ground_truth(traces, gts)

    out.mkdir(parents=True, exist_ok=True)
    if "svg" in args.format:
        for vid in sorted(preds):
            report.write_ribbon_svg(gts[vid], preds[vid], out / f"ribbon_{vid}.svg")
    for vid in sorted(traces):
        results.update(report.cascade_results(metrics.detect_cascades(traces[vid], gts[vid]), f"video.{vid}"))
    _write_results(out, results, args.format, {"evaluation.txt": results})
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

def _streamed_traces(run, gts: dict, timelines: dict, cascades: list):
    """For each video of ``gts`` in id order: run ``run(video_id)``, keep its
    timeline in ``timelines`` and its cascades in ``cascades``, and yield its
    trace, so that one trace is alive at a time."""
    for vid in sorted(gts):
        timelines[vid], trace = run(vid)
        # each trace and its ground truth come from one simulated video, so this cannot fail
        cascades.append(metrics.detect_cascades(trace, gts[vid]))
        yield trace


def cmd_pipeline(args) -> int:
    """simulate -> calibrate -> infer (all four strategies) -> evaluate -> report.

    The whole configuration is checked, every video simulated (by this
    process and one forked child, from one job queue) and every dataset
    directory made before any file is written. Each stage writes its
    artifacts once and hands its in-memory results to the next, so no
    artifact is read back. The two datasets' 16 files are queued too: a
    second forked child claims and writes them from the start, while this
    process runs the later stages and then claims what is left. Identical
    configuration and seed yield byte-identical trees. Raises StageError
    naming the failing stage; a failed dataset write is named ``simulate``
    even though the later stages have run by then, and of two failed writes
    the one queued first wins.
    """
    workflow = _workflow_spec(args)
    with _stage("simulate"):
        # val then test, on one queue: both processes simulate
        splits = [(split, count, _noise_spec(args, derive_video_seed(args.seed, key)))
                  for split, key, count in (("val", 101, args.val_videos), ("test", 202, args.test_videos))]
        videos = dict(zip(("val", "test"), simulate.simulate_videos(workflow, splits, args.attention_smooth)))
        out = Path(args.out)
        echo = _simulation_echo(args, workflow)
        del echo["command"]  # keeps pipeline echoes byte-identical to earlier versions
        for directory in (out, out / "val", out / "test"):
            write_config_echo(directory, echo)
        base_val = {v.baseline.video_id: v.baseline for v in videos["val"]}
        base_test = {v.baseline.video_id: v.baseline for v in videos["test"]}
        gts = {v.ground_truth.video_id: v.ground_truth for v in videos["test"]}
        bank = TransitionLogitBank.merge([v.bank for v in videos["test"]])
        # test and val interleaved: both baselines, the bank pairs, then both gt.csv
        writes = [write for pair in zip(*(simulate.dataset_writes(videos[split], out / split)
                                          for split in ("test", "val"))) for write in pair]

    # no later stage reads the dataset files, so both processes write them
    with _stage("simulate"), _shared(writes):
        with _stage("calibrate"):
            cal_dir = out / "calibration"
            fitted = _fit(out / "val" / "baseline.csv", base_val)
            results = _write_calibration(cal_dir, cal_dir / "report.json", fitted, base_test,
                                         out / "test" / "baseline.csv", args.bins, {})
            write_config_echo(cal_dir, echo)

        with _stage("infer"):
            inf_dir = out / "inference"
            inf_dir.mkdir(exist_ok=True)
            uncal_cfg = inference.InferenceConfig(args.buffer, args.threshold)
            cal_cfg = replace(uncal_cfg, temperature=results["calibration.temperature"])
            strategies = {"baseline": {vid: inference.baseline_argmax(base_test[vid]) for vid in sorted(base_test)}}
            save_timelines(list(strategies["baseline"].values()), inf_dir / "baseline.csv")
            for name, strategy, cfg in (
                ("transition", "transition", cal_cfg),
                ("confidence_uncalibrated", "confidence", uncal_cfg),
                ("confidence_calibrated", "confidence", cal_cfg),
            ):
                strategies[name], cascades = {}, []  # the timelines stay for the evaluate stage
                inference.save_traces(_streamed_traces(partial(_run_strategy, strategy, base_test, bank, cfg), gts,
                                                       strategies[name], cascades), inf_dir / f"{name}_trace.csv")
                save_timelines(list(strategies[name].values()), inf_dir / f"{name}.csv")
                results[f"strategy.{name}.cascade.count"] = sum(len(cas.runs) for cas in cascades)
                results[f"strategy.{name}.cascade.frames"] = sum(cas.total_frames() for cas in cascades)
            write_config_echo(inf_dir, echo)

        with _stage("evaluate"):
            for name in report.STRATEGY_ORDER:
                ev = metrics.evaluate_predictions(strategies[name], gts)
                results.update({f"strategy.{name}.{k}": v for k, v in ev.items()})
            results.update(metrics.bank_restricted_accuracies(bank, gts))
            strategy_family = {k: v for k, v in results.items() if k.startswith("strategy.")}
            _write_results(out / "evaluation", results, args.format,
                           {"strategies.txt": strategy_family, "report.txt": results})
            if "svg" in args.format:
                for name in ("transition", "confidence_calibrated"):
                    for vid in sorted(strategies[name]):
                        report.write_ribbon_svg(gts[vid], strategies[name][vid],
                                                out / "evaluation" / f"ribbon_{name}_{vid}.svg")
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
    p.add_argument("--base-acc", type=_number_in(1 / NUM_PHASES, 1, True, f"1/{NUM_PHASES}"), default=0.85,
                   help="baseline argmax accuracy target")
    p.add_argument("--pair-acc", type=_pair_acc, default=DEFAULT_PAIR_ACCURACY,
                   help="six comma-separated per-pair accuracy targets")
    p.add_argument("--overconfidence", type=_number_in(1, math.inf), default=2.5,
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
        # at most, the bins' arrays and reliability CSVs stay small, as --frames-mean's cap keeps videos
        "--bins": dict(type=_int_at_least(1, 1_000_000), default=15, help="ECE bin count"),
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
    # at most, as --bins: the simulator queues one job per video before the first runs, so the queue stays allocatable
    p.add_argument("--videos", type=_int_at_least(1, 1_000_000), default=8)
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
    p.set_defaults(threshold=None)  # so that cmd_infer can tell a given --threshold from the default
    p.add_argument("--strategy", choices=("transition", "confidence"), required=True)
    p.add_argument("--base", help="baseline K=7 logit file (confidence strategy)")
    p.add_argument("--bank", required=True, help="transition bank directory")
    p.add_argument("--temperature", type=_temperature, default=None,
                   help="softmax temperature (default 1.0), or 'auto' to fit on --val")
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
    # capped as --videos
    p.add_argument("--val-videos", type=_int_at_least(1, 1_000_000), default=2)
    p.add_argument("--test-videos", type=_int_at_least(1, 1_000_000), default=3)
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
        print(exc, file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
