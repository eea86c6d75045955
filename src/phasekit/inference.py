"""The two inference strategies, implemented as deterministic per-video state
machines over a baseline logit stream and a transition-model bank.

Transition-based: a FIFO buffer of the last N predictions selects, by
majority, which 2-class model predicts the current frame.

Confidence-based: the baseline prediction is kept when its max-softmax
confidence exceeds a threshold; otherwise the 2-class model indexed by the
last emitted prediction substitutes. Confidence exactly equal to the
threshold routes to the transition model.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .logits import LogitSequence, TransitionLogitBank, argmax_confidence_rows, positive_temperature
from .workflow import (
    NUM_PHASES,
    PhaseLabel,
    PhaseTimeline,
    TransitionPair,
    all_transition_pairs,
    pair_for_phase,
    read_rows,
)

BASELINE_MODEL = "baseline"
_MODEL_NAMES = frozenset([BASELINE_MODEL, *(pair.name for pair in all_transition_pairs())])

TRACE_HEADER = "video_id,frame_idx,model,state,confidence,prediction"

# Confidence thresholds tried by sweep_threshold, ascending.
SWEEP_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))


class MajorityBuffer:
    """Fixed-size FIFO of phase labels; push evicts the oldest entry.

    The buffer always holds exactly ``capacity`` entries (initialized to the
    fill label), so the majority is defined from the first frame.
    """

    def __init__(self, capacity: int, fill: int = 1):
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        fill = PhaseLabel(fill)
        self._fifo = deque([int(fill)] * capacity, maxlen=capacity)
        self._counts = np.zeros(NUM_PHASES + 1, dtype=np.int64)
        self._counts[fill] = capacity

    @classmethod
    def from_contents(cls, labels) -> "MajorityBuffer":
        labels = [int(PhaseLabel(l)) for l in labels]
        buf = cls(len(labels), fill=labels[0])
        for l in labels:
            buf.push(l)
        return buf

    @property
    def contents(self) -> tuple[int, ...]:
        return tuple(self._fifo)

    def push(self, label: int) -> None:
        label = int(PhaseLabel(label))
        oldest = self._fifo[0]
        self._fifo.append(label)
        self._counts[oldest] -= 1
        self._counts[label] += 1

    def majority(self) -> int:
        """Most frequent label; ties resolve to the smallest phase index."""
        return int(np.argmax(self._counts[1:])) + 1


@dataclass(frozen=True)
class InferenceConfig:
    """Shared knobs: buffer size N, confidence threshold, and temperature."""

    buffer_size: int = 100
    conf_threshold: float = 0.5
    temperature: float = 1.0

    def __post_init__(self):
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if not 0.0 <= self.conf_threshold <= 1.0:
            raise ValueError("conf_threshold must lie in [0, 1]")
        object.__setattr__(self, "temperature", positive_temperature(self.temperature))


@dataclass(frozen=True)
class TraceRecord:
    """One frame's decision: which model ran, with what state and confidence.

    ``model`` is "baseline" or a pair name like "trans_2_3". ``state`` is the
    buffer majority (transition strategy) or p_last (confidence strategy) that
    selected the model. ``confidence`` is the baseline max-softmax value for
    the confidence strategy and None for the transition strategy.
    """

    frame_idx: int
    model: str
    state: int
    confidence: float | None
    prediction: int

    def consulted_pair(self) -> TransitionPair | None:
        if self.model == BASELINE_MODEL:
            return None
        return TransitionPair.from_name(self.model)


@dataclass(frozen=True)
class InferenceTrace:
    video_id: str
    records: tuple[TraceRecord, ...]

    def __len__(self) -> int:
        return len(self.records)


def _pair_predictions(bank: TransitionLogitBank, video_id: str) -> dict[TransitionPair, np.ndarray]:
    """Per-pair binary argmax mapped to phase labels; ties go to the low phase."""
    out = {}
    for pair, seq in bank.sequences[video_id].items():
        z = seq.logits
        out[pair] = np.where(z[:, 0] >= z[:, 1], pair.low, pair.high).astype(np.int64)
    return out


def transition_inference(
    bank: TransitionLogitBank,
    video_id: str,
    cfg: InferenceConfig = InferenceConfig(),
) -> tuple[PhaseTimeline, InferenceTrace]:
    """Run the buffer-majority strategy for one video.

    The buffer starts filled with phase 1. Each frame consults the pair for
    the current majority (before appending), emits that binary model's
    prediction, and pushes it; every emission therefore lies in
    {majority, majority + 1} (or {6, 7} once the majority is 7).
    """
    if video_id not in bank.sequences:
        raise ValueError(f"bank does not cover video {video_id!r}")
    pair_preds = _pair_predictions(bank, video_id)
    n = bank.frame_count(video_id)
    buf = MajorityBuffer(cfg.buffer_size, fill=1)
    out = np.empty(n, dtype=np.int64)
    records = []
    for t in range(n):
        m = buf.majority()
        pair = pair_for_phase(m)
        pred = int(pair_preds[pair][t])
        records.append(TraceRecord(t, pair.name, m, None, pred))
        buf.push(pred)
        out[t] = pred
    return PhaseTimeline(video_id, out), InferenceTrace(video_id, tuple(records))


def confidence_inference(
    base: LogitSequence,
    bank: TransitionLogitBank,
    cfg: InferenceConfig = InferenceConfig(),
) -> tuple[PhaseTimeline, InferenceTrace]:
    """Run the calibrated-confidence switching strategy for one video.

    Per frame the baseline prediction is accepted iff its confidence (at
    cfg.temperature) strictly exceeds cfg.conf_threshold; otherwise the pair
    indexed by the last emitted prediction substitutes. p_last starts at 1.
    """
    if base.num_classes != NUM_PHASES:
        raise ValueError(f"baseline logits must have K={NUM_PHASES}, got K={base.num_classes}")
    if base.video_id not in bank.sequences:
        raise ValueError(f"bank does not cover video {base.video_id!r}")
    if bank.frame_count(base.video_id) != base.num_frames:
        raise ValueError(
            f"bank frame count {bank.frame_count(base.video_id)} does not match "
            f"baseline frame count {base.num_frames} for video {base.video_id!r}"
        )
    preds, confs = argmax_confidence_rows(base.logits, cfg.temperature)
    pair_preds = _pair_predictions(bank, base.video_id)
    n = base.num_frames
    out = np.empty(n, dtype=np.int64)
    records = []
    p_last = 1
    for t in range(n):
        c = float(confs[t])
        if c > cfg.conf_threshold:
            pred = int(preds[t])
            model = BASELINE_MODEL
        else:
            pair = pair_for_phase(p_last)
            pred = int(pair_preds[pair][t])
            model = pair.name
        records.append(TraceRecord(t, model, p_last, c, pred))
        p_last = pred
        out[t] = pred
    return PhaseTimeline(base.video_id, out), InferenceTrace(base.video_id, tuple(records))


def baseline_argmax(base: LogitSequence) -> PhaseTimeline:
    """The plain per-frame argmax of the baseline logits (temperature-free)."""
    preds, _ = argmax_confidence_rows(base.logits, 1.0)
    return PhaseTimeline(base.video_id, preds)


def sweep_threshold(
    baselines: dict[str, LogitSequence],
    bank: TransitionLogitBank,
    references: dict[str, PhaseTimeline],
    cfg: InferenceConfig,
) -> tuple[float, list[tuple[float, float]]]:
    """Pick the confidence threshold with the most correct frames.

    Runs the confidence strategy at every SWEEP_GRID threshold on each video
    in ``baselines`` and pools its integer hit count against ``references``
    over all of their frames. Returns (best_threshold, [(threshold,
    accuracy), ...]); ties resolve to the smallest threshold.
    """
    n_frames = sum(base.num_frames for base in baselines.values())
    rows = []
    best, best_hits = None, -1
    for t_conf in SWEEP_GRID:
        run_cfg = replace(cfg, conf_threshold=t_conf)
        hits = 0
        for vid in sorted(baselines):
            timeline, _ = confidence_inference(baselines[vid], bank, run_cfg)
            hits += int(np.count_nonzero(timeline.labels == references[vid].labels))
        rows.append((t_conf, hits / n_frames))
        if hits > best_hits:
            best, best_hits = t_conf, hits
    return best, rows


def save_traces(traces, path) -> None:
    """Write traces as CSV: video_id,frame_idx,model,state,confidence,prediction.

    The confidence column is empty when absent.
    """
    if isinstance(traces, InferenceTrace):
        traces = [traces]
    lines = [TRACE_HEADER]
    for trace in traces:
        for r in trace.records:
            conf = "" if r.confidence is None else repr(float(r.confidence))
            lines.append(f"{trace.video_id},{r.frame_idx},{r.model},{r.state},{conf},{r.prediction}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _trace_columns(cells) -> tuple[list[str], list[int], list[float | None], list[int]]:
    models, states, confs, preds = cells
    unknown = set(models) - _MODEL_NAMES
    if unknown:
        raise ValueError(f"model must be {BASELINE_MODEL!r} or a transition pair name, got {min(unknown)!r}")
    confidences = [None if c == "" else float(c) for c in confs]
    # filter(None, ...) drops None and 0.0; NaN and inf are truthy
    if not all(map(math.isfinite, filter(None, confidences))):
        raise ValueError("non-finite confidence")
    return models, list(map(int, states)), confidences, list(map(int, preds))


def load_traces(path) -> dict[str, InferenceTrace]:
    """Parse a trace file into {video_id: InferenceTrace} (see read_rows).

    The model column must be ``baseline`` or a transition pair name.
    """
    return {
        vid: InferenceTrace(vid, tuple(TraceRecord(i, *row) for i, row in enumerate(zip(*columns))))
        for vid, columns in read_rows(path, TRACE_HEADER, _trace_columns).items()
    }
