"""Report rendering: aligned text tables, flat JSON key-value results, the
reliability-bin CSV, and the SVG timeline ribbon."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .calibration import CalibrationReport, ReliabilityBins
from .metrics import CascadeReport, EvalResult
from .workflow import PhaseTimeline, all_transition_pairs

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


def pct(value: float | None) -> str:
    """Percentage with two decimals, or the undefined marker."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return UNDEFINED
    return f"{100.0 * value:.2f}"


def metric(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return UNDEFINED
    return f"{value:.3f}"


def render_table(headers: list[str], rows: list[list[str]], title: str | None = None) -> str:
    """Plain-text table with left-aligned first column, right-aligned rest."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells):
        parts = [cells[0].ljust(widths[0])]
        parts += [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"


def render_strategy_table(rows: list[tuple[str, float, float]]) -> str:
    """Strategy comparison: model name, pooled accuracy, per-video mean."""
    body = [[name, pct(acc), pct(mean)] for name, acc, mean in rows]
    return render_table(
        ["Model", "Accuracy (%)", "Per-video mean (%)"], body, title="Inference strategy comparison"
    )


def render_pair_table(baseline_accuracy: float | None, pair_accuracies: dict) -> str:
    """Baseline vs the six 2-class models (restricted to in-pair frames)."""
    body = [["baseline (all frames)", pct(baseline_accuracy)]]
    for pair in all_transition_pairs():
        body.append([pair.name, pct(pair_accuracies.get(pair))])
    return render_table(
        ["Model", "Accuracy (%)"], body, title="2-class model accuracy on in-pair frames"
    )


def render_calibration_table(report: CalibrationReport) -> str:
    body = [
        ["baseline", metric(report.nll_before), metric(report.ece_before)],
        ["calibrated", metric(report.nll_after), metric(report.ece_after)],
    ]
    table = render_table(["Model", "NLL", "ECE"], body, title="Confidence calibration")
    return table + f"fitted temperature = {report.fitted.value!r}\n"


def render_cascades(report: CascadeReport) -> str:
    if not report.runs:
        return "No cascade runs detected.\n"
    body = [[str(r.start), str(r.end), str(r.state), str(len(r))] for r in report.runs]
    return render_table(["start", "end", "state", "frames"], body, title="Cascade runs (end exclusive)")


def calibration_results(report: CalibrationReport) -> dict:
    return {
        "calibration.nll_before": report.nll_before,
        "calibration.nll_after": report.nll_after,
        "calibration.ece_before": report.ece_before,
        "calibration.ece_after": report.ece_after,
        "calibration.temperature": report.fitted.value,
    }


def eval_results(result: EvalResult, prefix: str = "") -> dict:
    """Flatten an EvalResult into dotted key-value pairs."""
    p = f"{prefix}." if prefix else ""
    out = {
        f"{p}accuracy.pooled": result.overall_accuracy,
        f"{p}accuracy.video_mean": result.video_mean_accuracy,
    }
    for vid, acc in sorted(result.per_video_accuracy.items()):
        out[f"{p}accuracy.video.{vid}"] = acc
    for phase, stats in result.per_phase.items():
        out[f"{p}phase.{phase}.precision"] = stats.precision
        out[f"{p}phase.{phase}.recall"] = stats.recall
        out[f"{p}phase.{phase}.support"] = stats.support
    for pair, acc in result.restricted_pair_accuracy.items():
        out[f"{p}pair.{pair.name}.accuracy"] = acc
    return out


def cascade_results(report: CascadeReport, prefix: str = "") -> dict:
    p = f"{prefix}." if prefix else ""
    out = {f"{p}cascade.count": len(report.runs), f"{p}cascade.frames": report.total_frames()}
    for i, run in enumerate(report.runs):
        out[f"{p}cascade.{i}.start"] = run.start
        out[f"{p}cascade.{i}.end"] = run.end
        out[f"{p}cascade.{i}.state"] = run.state
    return out


def write_results_json(results: dict, path) -> None:
    """Flat key-value results as JSON: sorted keys, null for undefined."""
    Path(path).write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_results_json(path) -> dict:
    """Read a flat results object whose values are null or finite numbers;
    any other content raises ValueError naming ``path``."""
    try:
        results = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an int past the digit limit
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


def write_reliability_csv(bins: ReliabilityBins, path) -> None:
    edges = bins.edges()
    lines = ["bin_lo,bin_hi,count,mean_confidence,accuracy"]
    for i in range(bins.num_bins):
        mc = bins.mean_confidence[i]
        ac = bins.accuracy[i]
        lines.append(
            f"{edges[i]!r},{edges[i + 1]!r},{int(bins.counts[i])},"
            f"{'nan' if np.isnan(mc) else repr(float(mc))},"
            f"{'nan' if np.isnan(ac) else repr(float(ac))}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def ribbon_svg(gt: PhaseTimeline, pred: PhaseTimeline) -> str:
    """Two-row SVG ribbon (ground truth above, prediction below), one colored
    cell per frame per row."""
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
        for i, phase in enumerate(timeline.labels):
            x = label_w + i * cell_width
            color = PHASE_COLORS[int(phase) - 1]
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_width}" height="{row_height}" fill="{color}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_ribbon_svg(gt: PhaseTimeline, pred: PhaseTimeline, path) -> None:
    Path(path).write_text(ribbon_svg(gt, pred), encoding="utf-8")
