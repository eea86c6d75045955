"""The layers of phasekit that the traced run measures, named after its modules.

``TIME_METRICS`` maps each per-layer time metric to the public functions
whose self time it sums. Those functions are wrapped, wherever a phasekit
module holds them (``phasekit.cli`` and ``phasekit.simulate`` re-import
several), so a call counts the same whichever name it came through.
A function a later change deletes is reported as absent, and every metric
that rests only on absent functions reads 0.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from pathlib import Path

from spans import Span, self_times, untraced_time

MODULES = ("simulate", "attention", "logits", "workflow", "calibration", "inference", "metrics", "report")

TIME_METRICS = {
    "simulate.self_s": (
        "simulate.generate_dataset", "simulate.simulate_video", "simulate.generate_ground_truth",
        "simulate.generate_baseline_logits", "simulate.generate_transition_bank",
        "simulate.attention_smooth",
    ),
    "attention.self_s": ("attention.scaled_dot_attention", "attention.multi_head_attention"),
    "logits.load_s": ("logits.load_logits", "logits.load_bank"),
    "logits.save_s": ("logits.save_logits", "logits.save_bank"),
    "workflow.load_s": ("workflow.load_timelines",),
    "workflow.save_s": ("workflow.save_timelines",),
    "calibration.fit_s": ("calibration.fit_temperature",),
    "calibration.report_s": ("calibration.calibrate_report", "calibration.reliability_bins"),
    "inference.transition_s": ("inference.transition_inference",),
    "inference.confidence_s": ("inference.confidence_inference",),
    "inference.sweep_s": ("inference.sweep_threshold",),
    "inference.trace_save_s": ("inference.save_traces",),
    "inference.trace_load_s": ("inference.load_traces",),
    "metrics.evaluate_s": ("metrics.evaluate_predictions", "metrics.bank_restricted_accuracies"),
    "metrics.cascade_s": ("metrics.detect_cascades",),
    "report.write_s": ("report.write_results_json", "report.write_reliability_csv", "report.write_ribbon_svg"),
}
TARGETS = {fn: metric for metric, fns in TIME_METRICS.items() for fn in fns}

CALL_METRICS = {
    "simulate.videos": "simulate.simulate_video",
    "attention.calls": "attention.scaled_dot_attention",
    "logits.load_calls": "logits.load_logits",
    "calibration.fit_calls": "calibration.fit_temperature",
}


def _frames_in(result) -> int:
    return sum(seq.num_frames for seq in result.values())


# Counters read from a call's arguments and result: (args, kwargs, result) -> {counter: amount}.
COUNTERS = {
    "logits.load_logits": lambda a, k, r: {"logits.rows_parsed": _frames_in(r)},
    "logits.save_logits": lambda a, k, r: {
        "logits.bytes_written": Path(k.get("path", a[1] if len(a) > 1 else "")).stat().st_size
    },
    "simulate.simulate_video": lambda a, k, r: {"simulate.frames": len(r.ground_truth)},
    "inference.transition_inference": lambda a, k, r: {"inference.transition_frames": len(r[0])},
    "inference.confidence_inference": lambda a, k, r: {"inference.confidence_frames": len(r[0])},
}

# name -> (unit, which direction is better); the order of the printed report.
PER_LAYER = {
    "simulate.self_s": ("s", "lower"),
    "simulate.videos": ("count", "lower"),
    "simulate.frames_per_s": ("1/s", "higher"),
    "attention.self_s": ("s", "lower"),
    "attention.calls": ("count", "lower"),
    "logits.load_s": ("s", "lower"),
    "logits.save_s": ("s", "lower"),
    "logits.load_calls": ("count", "lower"),
    "logits.rows_parsed": ("count", "lower"),
    "logits.bytes_written": ("B", "lower"),
    "workflow.load_s": ("s", "lower"),
    "workflow.save_s": ("s", "lower"),
    "calibration.fit_s": ("s", "lower"),
    "calibration.fit_calls": ("count", "lower"),
    "calibration.report_s": ("s", "lower"),
    "inference.transition_s": ("s", "lower"),
    "inference.confidence_s": ("s", "lower"),
    "inference.sweep_s": ("s", "lower"),
    "inference.frames": ("count", "lower"),
    "inference.transition_us_per_frame": ("us", "lower"),
    "inference.confidence_us_per_frame": ("us", "lower"),
    "inference.trace_save_s": ("s", "lower"),
    "inference.trace_load_s": ("s", "lower"),
    "metrics.evaluate_s": ("s", "lower"),
    "metrics.cascade_s": ("s", "lower"),
    "report.write_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "import.phasekit_s": ("s", "lower"),
    "import.scipy_s": ("s", "lower"),
    **{f"{m}.errors": ("count", "lower") for m in MODULES},
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def install(recorder) -> list[str]:
    """Wrap every target in every loaded phasekit module; return the targets not found."""
    modules = [m for name, m in list(sys.modules.items()) if name == "phasekit" or name.startswith("phasekit.")]
    absent = []
    for target in TARGETS:
        module_name, func_name = target.split(".")
        original = getattr(sys.modules.get(f"phasekit.{module_name}"), func_name, None)
        if not callable(original):
            absent.append(target)
            continue
        wrapper = recorder.wrap(target, original, COUNTERS.get(target))
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                setattr(module, attr, wrapper)
    return absent


def layer_metrics(spans: list[Span], counters: dict, start: float, end: float) -> dict[str, float]:
    """Per-layer figures of one traced run whose CLI calls ran from ``start`` to ``end``.

    Time metrics sum self times, so they and ``cli.self_s`` add up to the
    traced wall time.
    """
    out: dict[str, float] = {name: 0.0 for name in TIME_METRICS}
    for span, own in zip(spans, self_times(spans)):
        out[TARGETS[span.name]] += own
    out["cli.self_s"] = untraced_time(start, end, spans)
    calls = Counter(span.name for span in spans)
    for name, fn in CALL_METRICS.items():
        out[name] = calls[fn]
    errors = Counter(span.name.split(".")[0] for span in spans if span.error)
    for module in MODULES:
        out[f"{module}.errors"] = errors[module]
    for name in ("logits.rows_parsed", "logits.bytes_written"):
        out[name] = counters.get(name, 0)
    frames = counters.get("simulate.frames", 0)
    out["simulate.frames_per_s"] = frames / out["simulate.self_s"] if frames else 0.0
    t_frames = counters.get("inference.transition_frames", 0)
    c_frames = counters.get("inference.confidence_frames", 0)
    out["inference.frames"] = t_frames + c_frames
    out["inference.transition_us_per_frame"] = 1e6 * out["inference.transition_s"] / t_frames if t_frames else 0.0
    out["inference.confidence_us_per_frame"] = 1e6 * out["inference.confidence_s"] / c_frames if c_frames else 0.0
    out["trace.wall_s"] = end - start
    return out


def absent_metrics(absent: list[str]) -> list[str]:
    """Metrics every one of whose functions is absent."""
    gone = set(absent)
    names = [m for m, fns in TIME_METRICS.items() if gone.issuperset(fns)]
    names += [m for m, fn in CALL_METRICS.items() if fn in gone]
    return names


def parse_importtime(stderr: str) -> dict[str, float]:
    """``import.phasekit_s`` and ``import.scipy_s`` from ``python -X importtime`` output.

    Each line gives a module's cumulative import time in microseconds, after
    its children and indented two spaces per nesting level. A package's
    figure is the sum over its outermost entries, so nested imports are not
    counted twice.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    totals = {"import.phasekit_s": 0.0, "import.scipy_s": 0.0}
    open_: list[tuple[int, str]] = []
    # reversed post-order visits each parent before its children
    for depth, name, seconds in reversed(entries):
        while open_ and open_[-1][0] >= depth:
            open_.pop()
        package = name.split(".")[0]
        parent = open_[-1][1].split(".")[0] if open_ else None
        if package in ("phasekit", "scipy") and parent != package:
            totals[f"import.{package}_s"] += seconds
        open_.append((depth, name))
    return totals


def median_importtime(runs: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}
