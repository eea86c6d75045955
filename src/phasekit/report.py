"""Report rendering: aligned text tables, flat JSON key-value results, the
reliability-bin CSV, and the SVG timeline ribbon.

Every text artifact is ``render_report_text`` of the results dict saved
beside it, so ``phasekit report`` re-renders it byte for byte."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .calibration import CalibrationReport, Temperature
from .metrics import CascadeReport, CascadeRun
from .workflow import PhaseTimeline, all_transition_pairs, segment_boundaries

# One color band per phase, 1..7.
PHASE_COLORS = (
    "#66c2a5",
    "#fc8d62",
    "#8da0cb",
    "#e78ac3",
    "#a6d854",
    "#ffd92f",
    "#b3b3b3",
)

UNDEFINED = "n/a"
AT_BOUND = " (at the search bound)"  # follows a fitted temperature that stopped on a search bound

STRATEGY_LABELS = {
    "baseline": "baseline (argmax)",
    "transition": "transition-based",
    "confidence_uncalibrated": "confidence-based w/o calibration",
    "confidence_calibrated": "confidence-based w/ calibration",
}
STRATEGY_ORDER = tuple(STRATEGY_LABELS)


def pct(value: float | None) -> str:
    """Percentage with two decimals, or the undefined marker."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return UNDEFINED
    return f"{100.0 * value:.2f}"


def render_table(headers: list[str], rows: list[list[str]], title: str) -> str:
    """Plain-text table under its ``title`` line, with left-aligned first column, right-aligned rest."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells):
        parts = [cells[0].ljust(widths[0])]
        parts += [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        return "  ".join(parts).rstrip()

    lines = [title, fmt(headers), "  ".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"


def render_strategy_table(rows: list[tuple[str, float, float]]) -> str:
    """Strategy comparison: model name, pooled accuracy, per-video mean."""
    body = [[name, pct(acc), pct(mean)] for name, acc, mean in rows]
    return render_table(
        ["Model", "Accuracy (%)", "Per-video mean (%)"], body, title="Inference strategy comparison"
    )


def render_pair_table(baseline_accuracy: float | None, pair_accuracies: dict[str, float | None]) -> str:
    """In-pair accuracy by pair name (``trans_1_2`` ...). With a baseline
    accuracy these are the six 2-class models, drawn under the baseline's
    accuracy on all frames; without one they are one prediction's accuracy
    on each pair's frames."""
    body = [[pair.name, pct(pair_accuracies.get(pair.name))] for pair in all_transition_pairs()]
    if baseline_accuracy is None:
        return render_table(["Pair", "Accuracy (%)"], body, title="Prediction accuracy on in-pair frames")
    body.insert(0, ["baseline (all frames)", pct(baseline_accuracy)])
    return render_table(["Model", "Accuracy (%)"], body, title="2-class model accuracy on in-pair frames")


def render_calibration_table(report: CalibrationReport) -> str:
    body = [
        ["baseline", f"{report.nll_before:.3f}", f"{report.ece_before:.3f}"],
        ["calibrated", f"{report.nll_after:.3f}", f"{report.ece_after:.3f}"],
    ]
    table = render_table(["Model", "NLL", "ECE"], body, title="Confidence calibration")
    return table + f"fitted temperature = {report.fitted.value!r}{AT_BOUND if report.fitted.at_bound else ''}\n"


def render_report_text(results: dict) -> str:
    """Render every table family a flat results dict holds, in this order:
    strategies (``strategy.<name>.accuracy.*``), evaluation (``accuracy.*``),
    pairs (``pair.<pair>.accuracy``: the 2-class models' when the baseline
    strategy is present, else the evaluated prediction's), calibration
    (``calibration.*``) and cascades by id (``video.<id>.cascade.count``
    and ``.cascade.<i>.start``, ``.end``, ``.state``; ids may contain
    dots). A family that lacks a key, or holds null or a non-integer where
    a number or a frame is needed, or a ``calibration.temperature_at_bound``
    (absent: 0) other than 0 or 1, raises ValueError."""
    def need(key, nullable=True):
        if key not in results or results[key] is None and not nullable:
            raise ValueError(f"no value for {key!r}")
        return results[key]

    def need_count(key):
        if type(need(key, False)) is not int or results[key] < 0:
            raise ValueError(f"{key!r} must be a non-negative integer, got {results[key]!r}")
        return results[key]

    blocks = []
    strategies = sorted(
        {k.split(".")[1] for k in results if k.startswith("strategy.") and k.endswith(".accuracy.pooled")},
        key=lambda s: (STRATEGY_ORDER.index(s) if s in STRATEGY_ORDER else len(STRATEGY_ORDER), s),
    )
    if strategies:
        blocks.append(render_strategy_table([
            (STRATEGY_LABELS.get(s, s), results[f"strategy.{s}.accuracy.pooled"],
             need(f"strategy.{s}.accuracy.video_mean"))
            for s in strategies
        ]))
    if "accuracy.pooled" in results:
        rows = [["accuracy (pooled %)", pct(results["accuracy.pooled"])],
                ["accuracy (per-video mean %)", pct(need("accuracy.video_mean"))]]
        blocks.append(render_table(["Metric", "Value"], rows, title="Evaluation"))
    pair_accs = {k.split(".")[1]: v for k, v in results.items() if k.startswith("pair.trans_")}
    if pair_accs:
        # only pipeline results hold the bank's accuracies, beside the baseline strategy
        blocks.append(render_pair_table(results.get("strategy.baseline.accuracy.pooled"), pair_accs))
    if "calibration.nll_before" in results:
        at_bound = results.get("calibration.temperature_at_bound", 0)
        if type(at_bound) is not int or at_bound not in (0, 1):
            raise ValueError(f"'calibration.temperature_at_bound' must be 0 or 1, got {at_bound!r}")
        cal = CalibrationReport(
            **{k: need(f"calibration.{k}", False) for k in ("nll_before", "nll_after", "ece_before", "ece_after")},
            fitted=Temperature(need("calibration.temperature", False), at_bound=bool(at_bound)),
        )
        blocks.append(render_calibration_table(cal))
    for vid in sorted(m[1] for m in map(re.compile(r"video\.(.+)\.cascade\.count").fullmatch, results) if m):
        key = f"video.{vid}.cascade"
        runs = [CascadeRun(*(need_count(f"{key}.{i}.{f}") for f in ("start", "end", "state")))
                for i in range(need_count(f"{key}.count"))]
        body = [[str(r.start), str(r.end), str(r.state), str(len(r))] for r in runs]
        table = render_table(["start", "end", "state", "frames"], body, title="Cascade runs (end exclusive)")
        blocks.append(f"cascades for {vid}:\n" + (table if runs else "No cascade runs detected.\n"))
    if not blocks:
        blocks.append("no renderable result families found\n")
    return "\n".join(blocks)


def calibration_results(report: CalibrationReport) -> dict:
    return {
        "calibration.nll_before": report.nll_before,
        "calibration.nll_after": report.nll_after,
        "calibration.ece_before": report.ece_before,
        "calibration.ece_after": report.ece_after,
        "calibration.temperature": report.fitted.value,
        "calibration.temperature_at_bound": int(report.fitted.at_bound),
    }


def cascade_results(report: CascadeReport, prefix: str) -> dict:
    out = {f"{prefix}.cascade.count": len(report.runs), f"{prefix}.cascade.frames": report.total_frames()}
    for i, run in enumerate(report.runs):
        out[f"{prefix}.cascade.{i}.start"] = run.start
        out[f"{prefix}.cascade.{i}.end"] = run.end
        out[f"{prefix}.cascade.{i}.state"] = run.state
    return out


def write_results_json(results: dict, path) -> None:
    """Flat key-value results as JSON: sorted keys, null for undefined."""
    Path(path).write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_results_json(path) -> dict:
    """Read a flat results object whose values are null or finite numbers;
    any other content raises ValueError naming ``path``."""
    try:
        results = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep, or an int past the digit limit
        raise ValueError(f"{path}: not a JSON results file: {exc}") from None
    if not isinstance(results, dict):
        raise ValueError(f"{path}: expected a JSON object of results, got {type(results).__name__}")
    for key, value in results.items():
        if value is not None and not _finite_number(value):
            raise ValueError(f"{path}: {key!r} must be null or a finite number, got {value!r}")
    return results


def _finite_number(value) -> bool:
    try:
        return type(value) in (int, float) and math.isfinite(value)  # a bool is not a number here
    except OverflowError:  # an int too large for a float
        return False


def write_reliability_csv(bins: tuple[np.ndarray, np.ndarray, np.ndarray], path) -> None:
    """Write ``calibration.reliability_bins``' (counts, mean_confidence,
    accuracy) one bin a row after its edges; an empty bin's NaN statistics
    read ``nan``."""
    edges = np.linspace(0.0, 1.0, len(bins[0]) + 1).tolist()
    rows = zip(edges, edges[1:], *(a.tolist() for a in bins))
    lines = ["bin_lo,bin_hi,count,mean_confidence,accuracy", *(",".join(map(repr, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def ribbon_svg(gt: PhaseTimeline, pred: PhaseTimeline) -> str:
    """Two-row SVG ribbon (ground truth above, prediction below), one colored
    rect per run of equal labels in each row."""
    if len(gt) != len(pred):
        raise ValueError("ribbon needs equal-length timelines")
    n = len(gt)
    cell_width, row_height = 3, 24
    label_w = 90
    pad = 4
    width = label_w + n * cell_width + pad
    height = 2 * row_height + 3 * pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="2" y="{pad + row_height - 8}" font-size="12" font-family="monospace">ground truth</text>',
        f'<text x="2" y="{2 * pad + 2 * row_height - 8}" font-size="12" font-family="monospace">prediction</text>',
    ]
    for row, timeline in ((0, gt), (1, pred)):
        y = pad + row * (row_height + pad)
        starts = [0, *(frame for frame, _, _ in segment_boundaries(timeline))]
        for start, stop in zip(starts, [*starts[1:], n]):
            parts.append(
                f'<rect x="{label_w + start * cell_width}" y="{y}" width="{(stop - start) * cell_width}" '
                f'height="{row_height}" fill="{PHASE_COLORS[timeline.labels[start] - 1]}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_ribbon_svg(gt: PhaseTimeline, pred: PhaseTimeline, path) -> None:
    Path(path).write_text(ribbon_svg(gt, pred), encoding="utf-8")
