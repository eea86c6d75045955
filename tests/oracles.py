"""Independent reference implementations used to verify the package.

Everything here deliberately avoids the code paths under test: NLL goes
through scipy's logsumexp, the temperature oracle is an exhaustive geometric
grid, majority voting uses collections.Counter, and the simulator's margin
solve uses adaptive quadrature inside brentq. The file loaders read one row
at a time through the row-by-row reader the block reader replaced, and the
file writers format one line per frame, as the streaming writer replaced
them. The inference strategies, the threshold sweep, cascade detection and
the trace writer run one frame at a time over records, as the array
versions replaced them; a record is a (frame_idx, model, state, confidence,
prediction) tuple. Attention smoothing makes one kernel call per frame over
its trailing window, as the stacked-matmul version replaced it. The ribbon
draws one rect per frame, as the one-rect-per-run version replaced it. The
NLL objective allocates its temporaries at each probe, as the buffered
version replaced it.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import logsumexp
from scipy.stats import norm

from phasekit.attention import scaled_dot_attention
from phasekit.inference import BASELINE_MODEL, MODEL_NAMES, SWEEP_GRID, TRACE_HEADER, InferenceTrace
from phasekit.logits import LOGIT_HEADER, LogitSequence, argmax_confidence_rows
from phasekit.report import PHASE_COLORS
from phasekit.workflow import (
    NUM_PHASES,
    PHASE_MAX,
    PHASE_MIN,
    TIMELINE_HEADER,
    PhaseTimeline,
    TransitionPair,
    all_transition_pairs,
    pair_for_phase,
)

PAIRS_BY_NAME = {pair.name: pair for pair in all_transition_pairs()}


def oracle_nll(logits: np.ndarray, labels: np.ndarray, temperature: float) -> float:
    z = np.asarray(logits, dtype=np.float64) / temperature
    lse = logsumexp(z, axis=1)
    true = z[np.arange(z.shape[0]), np.asarray(labels) - 1]
    return float(np.mean(lse - true))


def oracle_nll_arrays(z: np.ndarray, y: np.ndarray, t: float) -> float:
    """The mean NLL with fresh temporaries at each call, as the buffered
    objective of ``calibration._nll_at`` replaced it."""
    # v - m may overflow to -inf, whose exp is the right limit 0; a scaled logit of inf gives inf or NaN, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        v = z / t
        m = v.max(axis=1, keepdims=True)
        lse = (m + np.log(np.exp(v - m).sum(axis=1, keepdims=True)))[:, 0]
        true = v[np.arange(z.shape[0]), y - 1]
        value = float((lse - true).mean())
    if not math.isfinite(value):
        raise ValueError(f"NLL is not finite at temperature {t!r}: the scaled logits overflow")
    return value


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


def oracle_save_timelines(timelines, path) -> None:
    """Write timelines one line per frame."""
    if isinstance(timelines, PhaseTimeline):
        timelines = [timelines]
    lines = [TIMELINE_HEADER]
    for t in timelines:
        lines.extend(f"{t.video_id},{i},{p}" for i, p in enumerate(t.labels.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def oracle_save_logits(sequences, path) -> None:
    """Write LogitSequence values one line per frame, each score through repr."""
    if isinstance(sequences, LogitSequence):
        sequences = [sequences]
    sequences = list(sequences)
    if not sequences:
        raise ValueError("nothing to save")
    k = sequences[0].num_classes
    for seq in sequences:
        if seq.num_classes != k:
            raise ValueError("all sequences in one file must share the class count")
    lines = [LOGIT_HEADER + "".join(f",z{i}" for i in range(1, k + 1))]
    for seq in sequences:
        labels = [0] * seq.num_frames if seq.labels is None else seq.labels.tolist()
        lines.extend(
            f"{seq.video_id},{i},{lab},{','.join(map(repr, row))}"
            for i, (lab, row) in enumerate(zip(labels, seq.logits.tolist()))
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def oracle_save_trace_arrays(traces, path) -> None:
    """Write InferenceTrace values one line per frame."""
    if isinstance(traces, InferenceTrace):
        traces = [traces]
    lines = [TRACE_HEADER]
    for trace in traces:
        vid = trace.video_id
        names = [MODEL_NAMES[code] for code in trace.model.tolist()]
        conf = [repr(c) if has else "" for c, has in zip(trace.confidence.tolist(), trace.has_confidence.tolist())]
        lines.extend(
            f"{vid},{i},{m},{s},{c},{p}"
            for i, m, s, c, p in zip(range(len(trace)), names, trace.state.tolist(), conf, trace.prediction.tolist())
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def oracle_ribbon_svg(gt: PhaseTimeline, pred: PhaseTimeline) -> str:
    """The two-row ribbon with one colored cell per frame per row."""
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


def _oracle_phase_cell(cell: str, name: str) -> int:
    value = int(cell)
    if not PHASE_MIN <= value <= PHASE_MAX:
        raise ValueError(f"{name} {value} outside [{PHASE_MIN}, {PHASE_MAX}]")
    return value


def _oracle_trace_row(fields) -> tuple[str, int, float | None, int]:
    model, state, conf, pred = fields
    if model not in MODEL_NAMES:
        raise ValueError(f"model must be {BASELINE_MODEL!r} or a transition pair name, got {model!r}")
    confidence = None if conf == "" else float(conf)
    if confidence is not None and not math.isfinite(confidence):
        raise ValueError("non-finite confidence")
    state = _oracle_phase_cell(state, "state")
    return model, state, confidence, _oracle_phase_cell(pred, "prediction")


def oracle_load_traces(path) -> dict[str, tuple]:
    """{video_id: records} of a trace file."""
    per_video = oracle_read_rows(path, TRACE_HEADER, _oracle_trace_row)
    return {vid: tuple((i, *row) for i, row in enumerate(rows)) for vid, rows in per_video.items()}


def oracle_save_traces(traces: dict[str, list], path) -> None:
    """Write {video_id: records} as a trace file, one record at a time."""
    lines = [TRACE_HEADER]
    for vid, records in traces.items():
        for frame_idx, model, state, confidence, prediction in records:
            conf = "" if confidence is None else repr(float(confidence))
            lines.append(f"{vid},{frame_idx},{model},{state},{conf},{prediction}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _phase(label) -> int:
    if not PHASE_MIN <= int(label) <= PHASE_MAX:
        raise ValueError(f"phase {label} outside [{PHASE_MIN}, {PHASE_MAX}]")
    return int(label)


class MajorityBuffer:
    """Fixed-size FIFO of phase labels; push evicts the oldest entry.

    The buffer always holds exactly ``capacity`` entries (initialized to the
    fill label), so the majority is defined from the first frame.
    """

    def __init__(self, capacity: int, fill: int = 1):
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        fill = _phase(fill)
        self._fifo = deque([fill] * capacity, maxlen=capacity)
        self._counts = np.zeros(NUM_PHASES + 1, dtype=np.int64)
        self._counts[fill] = capacity

    @classmethod
    def from_contents(cls, labels) -> "MajorityBuffer":
        labels = [_phase(l) for l in labels]
        buf = cls(len(labels), fill=labels[0])
        for l in labels:
            buf.push(l)
        return buf

    @property
    def contents(self) -> tuple[int, ...]:
        return tuple(self._fifo)

    def push(self, label: int) -> None:
        label = _phase(label)
        oldest = self._fifo[0]
        self._fifo.append(label)
        self._counts[oldest] -= 1
        self._counts[label] += 1

    def majority(self) -> int:
        """Most frequent label; ties resolve to the smallest phase index."""
        return int(np.argmax(self._counts[1:])) + 1


def oracle_pair_predictions(bank, video_id: str) -> dict[TransitionPair, np.ndarray]:
    """Each pair's binary argmax per frame as phase labels; ties go to the low phase."""
    return {
        pair: np.array([pair.low if z0 >= z1 else pair.high for z0, z1 in seq.logits.tolist()])
        for pair, seq in bank.sequences[video_id].items()
    }


def oracle_transition_inference(bank, video_id: str, buffer_size: int) -> tuple[list[int], list[tuple]]:
    """(emitted phases, records) of the buffer-majority strategy."""
    pair_preds = oracle_pair_predictions(bank, video_id)
    buf = MajorityBuffer(buffer_size, fill=1)
    out, records = [], []
    for t in range(len(next(iter(pair_preds.values())))):
        m = buf.majority()
        pair = pair_for_phase(m)
        pred = int(pair_preds[pair][t])
        records.append((t, pair.name, m, None, pred))
        buf.push(pred)
        out.append(pred)
    return out, records


def oracle_confidence_inference(base, bank, threshold: float, temperature: float) -> tuple[list[int], list[tuple]]:
    """(emitted phases, records) of the confidence switching strategy."""
    preds, confs = argmax_confidence_rows(base.logits, temperature)
    pair_preds = oracle_pair_predictions(bank, base.video_id)
    out, records = [], []
    p_last = 1
    for t in range(base.num_frames):
        c = float(confs[t])
        if c > threshold:
            pred, model = int(preds[t]), BASELINE_MODEL
        else:
            pair = pair_for_phase(p_last)
            pred, model = int(pair_preds[pair][t]), pair.name
        records.append((t, model, p_last, c, pred))
        p_last = pred
        out.append(pred)
    return out, records


def oracle_sweep_threshold(baselines, bank, references, temperature: float) -> tuple[float, list]:
    """(best threshold, [(threshold, pooled accuracy), ...]) over SWEEP_GRID."""
    n_frames = sum(base.num_frames for base in baselines.values())
    rows = []
    best, best_hits = None, -1
    for t_conf in SWEEP_GRID:
        hits = 0
        for vid in sorted(baselines):
            out, _ = oracle_confidence_inference(baselines[vid], bank, t_conf, temperature)
            hits += sum(p == g for p, g in zip(out, references[vid].labels.tolist()))
        rows.append((t_conf, hits / n_frames))
        if hits > best_hits:
            best, best_hits = t_conf, hits
    return best, rows


def oracle_detect_cascades(records, gt_labels) -> list[tuple[int, int, int]]:
    """(start, end, state) of each maximal run of frames whose consulted pair
    excludes the true phase; baseline frames break runs."""
    runs = []
    start = state = None
    for frame_idx, model, m, _, _ in records:
        pair = PAIRS_BY_NAME.get(model)  # None for the baseline
        qualifies = pair is not None and int(gt_labels[frame_idx]) not in (pair.low, pair.high)
        if qualifies and start is None:
            start, state = frame_idx, m
        elif not qualifies and start is not None:
            runs.append((start, frame_idx, state))
            start = None
    if start is not None:
        runs.append((start, len(gt_labels), state))
    return runs


def oracle_evaluate_predictions(preds, gts) -> dict:
    """The evaluation keys, counted one frame at a time over the videos in
    id order; None where a denominator is 0."""
    frames, out = [], {}
    for vid in sorted(preds):
        pairs = list(zip(preds[vid].labels.tolist(), gts[vid].labels.tolist()))
        out[f"accuracy.video.{vid}"] = sum(p == g for p, g in pairs) / len(pairs)
        frames += pairs
    per_video = list(out.values())
    out["accuracy.pooled"] = sum(p == g for p, g in frames) / len(frames)
    out["accuracy.video_mean"] = sum(per_video) / len(per_video)
    for phase in range(1, NUM_PHASES + 1):
        hits = sum(p == g == phase for p, g in frames)
        predicted = sum(p == phase for p, _ in frames)
        support = sum(g == phase for _, g in frames)
        out[f"phase.{phase}.precision"] = hits / predicted if predicted else None
        out[f"phase.{phase}.recall"] = hits / support if support else None
        out[f"phase.{phase}.support"] = support
    for pair in all_transition_pairs():
        inside = [p == g for p, g in frames if g in (pair.low, pair.high)]
        out[f"pair.{pair.name}.accuracy"] = sum(inside) / len(inside) if inside else None
    return out


def attention_smooth_loop(seq: LogitSequence, window: int) -> LogitSequence:
    """One ``scaled_dot_attention`` call per frame: the frame's logits attend
    to the logit rows of its trailing window."""
    if window < 1:
        raise ValueError("window must be >= 1")
    z = seq.logits
    out = np.empty_like(z)
    for t in range(z.shape[0]):
        lo = max(0, t - window + 1)
        out[t] = scaled_dot_attention(z[t:t + 1], z[lo:t + 1], z[lo:t + 1])[0]
    return LogitSequence(seq.video_id, out, labels=seq.labels)
