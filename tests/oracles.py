"""Independent reference implementations used to verify the package.

Everything here deliberately avoids the code paths under test: NLL goes
through scipy's logsumexp, the temperature oracle is an exhaustive geometric
grid, majority voting uses collections.Counter, and the simulator's margin
solve uses adaptive quadrature inside brentq. The file loaders read one row
at a time through the row-by-row reader the block reader replaced.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import logsumexp
from scipy.stats import norm

from phasekit.inference import _MODEL_NAMES, BASELINE_MODEL, TRACE_HEADER, InferenceTrace, TraceRecord
from phasekit.logits import LOGIT_HEADER, LogitSequence
from phasekit.workflow import PHASE_MAX, PHASE_MIN, TIMELINE_HEADER, PhaseTimeline


def oracle_nll(logits: np.ndarray, labels: np.ndarray, temperature: float) -> float:
    z = np.asarray(logits, dtype=np.float64) / temperature
    lse = logsumexp(z, axis=1)
    true = z[np.arange(z.shape[0]), np.asarray(labels) - 1]
    return float(np.mean(lse - true))


def grid_search_temperature(
    logits: np.ndarray,
    labels: np.ndarray,
    lo: float = 0.01,
    hi: float = 100.0,
    step: float = 1.001,
) -> float:
    """Exhaustive geometric-grid NLL minimizer over [lo, hi]."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    count = int(math.floor(math.log(hi / lo) / math.log(step))) + 1
    grid = lo * step ** np.arange(count)
    # row max subtracted once; exact for NLL and keeps exp() in range
    zs = z - z.max(axis=1, keepdims=True)
    zs_true = zs[np.arange(z.shape[0]), y - 1]
    best_t, best_v = None, np.inf
    for i in range(0, len(grid), 64):
        ts = grid[i:i + 64]
        v = zs[None, :, :] / ts[:, None, None]
        lse = np.log(np.exp(v).sum(axis=2))
        vals = (lse - zs_true[None, :] / ts[:, None]).mean(axis=1)
        j = int(np.argmin(vals))
        if vals[j] < best_v:
            best_v, best_t = float(vals[j]), float(ts[j])
    return best_t


def oracle_softmax(z, temperature: float = 1.0) -> list[float]:
    vals = [v / temperature for v in z]
    peak = max(vals)
    exps = [math.exp(v - peak) for v in vals]
    total = sum(exps)
    return [e / total for e in exps]


def oracle_majority(labels) -> int:
    counts = Counter(labels)
    top = max(counts.values())
    return min(label for label, c in counts.items() if c == top)


def oracle_ece(confidences, correct, num_bins: int) -> float:
    """Direct binned ECE: floor(conf * B) with 1.0 clamped to the top bin."""
    confidences = list(confidences)
    correct = list(correct)
    bins: dict[int, list[int]] = {}
    for i, c in enumerate(confidences):
        b = min(int(c * num_bins), num_bins - 1)
        bins.setdefault(b, []).append(i)
    total = len(confidences)
    out = 0.0
    for idx in bins.values():
        conf = sum(confidences[i] for i in idx) / len(idx)
        acc = sum(1 for i in idx if correct[i]) / len(idx)
        out += len(idx) / total * abs(acc - conf)
    return out


def oracle_margin(target: float, num_classes: int) -> float:
    """Solve P(m + e0 > max of K-1 iid standard normals) = target for m."""
    rivals = num_classes - 1
    if rivals == 1:
        return math.sqrt(2.0) * float(norm.ppf(target))

    def accuracy(m: float) -> float:
        val, _ = quad(lambda u: norm.pdf(u) * norm.cdf(m + u) ** rivals, -10.0, 10.0)
        return val

    return float(brentq(lambda m: accuracy(m) - target, 0.0, 16.0, xtol=1e-10))


def oracle_read_rows(path, header: str, convert, *, open_ended: bool = False) -> dict[str, list]:
    """Parse a comma-separated file keyed by ``video_id,frame_idx`` into
    {video_id: [convert(columns after frame_idx), ...]}.

    Blank lines and lines beginning with ``#`` are skipped. The first other
    line must equal ``header``; with ``open_ended`` it must instead start with
    ``header``'s columns and add two or more (a logit file's K >= 2 scores).
    Every row must have the header's column count, frame_idx must run 0, 1,
    2, ... within each video, and ``convert`` rejects a row by raising
    ValueError. Every error is a ValueError beginning ``path:line:``.
    """
    path = Path(path)
    names = header.split(",")
    columns = None
    per_video: dict[str, list] = {}
    with path.open(encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if columns is None:
                if open_ended:
                    ok = fields[:len(names)] == names and len(fields) >= len(names) + 2
                else:
                    ok = fields == names
                if not ok:
                    shown = header + ",..." if open_ended else header
                    raise ValueError(f"{path}:{lineno}: expected header {shown!r}, got {line!r}")
                columns = len(fields)
                continue
            if len(fields) != columns:
                raise ValueError(f"{path}:{lineno}: expected {columns} columns, got {len(fields)}")
            rows = per_video.setdefault(fields[0], [])
            try:
                idx = int(fields[1])
                if idx != len(rows):
                    raise ValueError(
                        f"frame_idx {idx} out of order for video {fields[0]!r} (expected {len(rows)})"
                    )
                rows.append(convert(fields[2:]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if columns is None:
        raise ValueError(f"{path}: missing header line")
    if not per_video:
        raise ValueError(f"{path}: no frames")
    return per_video


def _oracle_phase(fields) -> int:
    phase = int(fields[0])
    if not PHASE_MIN <= phase <= PHASE_MAX:
        raise ValueError(f"phase {phase} outside [{PHASE_MIN}, {PHASE_MAX}]")
    return phase


def oracle_load_timelines(path) -> dict[str, PhaseTimeline]:
    per_video = oracle_read_rows(path, TIMELINE_HEADER, _oracle_phase)
    return {vid: PhaseTimeline(vid, rows) for vid, rows in per_video.items()}


def _oracle_logit_row(fields) -> tuple[int, list[float]]:
    z = [float(v) for v in fields[1:]]
    if not all(map(math.isfinite, z)):
        raise ValueError("non-finite logit")
    label, hi = int(fields[0]), max(PHASE_MAX, len(z))
    if not 0 <= label <= hi:
        raise ValueError(f"label {label} outside [0, {hi}]")
    return label, z


def oracle_load_logits(path) -> dict[str, LogitSequence]:
    out: dict[str, LogitSequence] = {}
    for vid, rows in oracle_read_rows(path, LOGIT_HEADER, _oracle_logit_row, open_ended=True).items():
        labs, zs = zip(*rows)
        if not any(labs):
            lab_arr = None
        elif not all(labs):
            raise ValueError(f"{path}: video {vid!r} mixes labeled and unlabeled (0) rows")
        else:
            lab_arr = np.array(labs, dtype=np.int64)
        out[vid] = LogitSequence(vid, np.array(zs, dtype=np.float64), labels=lab_arr)
    return out


def _oracle_trace_row(fields) -> tuple[str, int, float | None, int]:
    model, state, conf, pred = fields
    if model not in _MODEL_NAMES:
        raise ValueError(f"model must be {BASELINE_MODEL!r} or a transition pair name, got {model!r}")
    confidence = None if conf == "" else float(conf)
    if confidence is not None and not math.isfinite(confidence):
        raise ValueError("non-finite confidence")
    return model, int(state), confidence, int(pred)


def oracle_load_traces(path) -> dict[str, InferenceTrace]:
    per_video = oracle_read_rows(path, TRACE_HEADER, _oracle_trace_row)
    return {
        vid: InferenceTrace(vid, tuple(TraceRecord(i, *row) for i, row in enumerate(rows)))
        for vid, rows in per_video.items()
    }
