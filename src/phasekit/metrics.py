"""Accuracy and diagnostic metrics: frame-level accuracy, per-phase precision
and recall, restricted pair accuracy, and cascade detection over traces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inference import InferenceTrace
from .logits import TransitionLogitBank
from .workflow import NUM_PHASES, PhaseTimeline, TransitionPair, all_transition_pairs


def _label_arrays(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    p = pred.labels if isinstance(pred, PhaseTimeline) else np.asarray(pred, dtype=np.int64)
    g = gt.labels if isinstance(gt, PhaseTimeline) else np.asarray(gt, dtype=np.int64)
    if p.shape != g.shape:
        raise ValueError(f"length mismatch: predictions {p.shape} vs ground truth {g.shape}")
    return p, g


def accuracy(pred, gt) -> float:
    """Fraction of frames with identical labels (frame-level micro accuracy)."""
    p, g = _label_arrays(pred, gt)
    return float((p == g).mean())


def restricted_pair_accuracy(pred, gt, pair: TransitionPair) -> float | None:
    """Accuracy over frames whose ground truth lies in the pair.

    Returns None when no frame qualifies (undefined, deliberately not 0).
    """
    p, g = _label_arrays(pred, gt)
    mask = (g == pair.low) | (g == pair.high)
    if not mask.any():
        return None
    return float((p[mask] == g[mask]).mean())


@dataclass(frozen=True)
class PhaseStats:
    """Precision/recall for one phase; None where the denominator is empty."""

    precision: float | None
    recall: float | None
    support: int


@dataclass(frozen=True)
class EvalResult:
    """Pooled evaluation of predictions against ground truth."""

    overall_accuracy: float
    per_video_accuracy: dict[str, float]
    per_phase: dict[int, PhaseStats]
    restricted_pair_accuracy: dict[TransitionPair, float | None]

    def __post_init__(self):
        if not 0.0 <= self.overall_accuracy <= 1.0:
            raise ValueError("overall_accuracy must lie in [0, 1]")

    @property
    def video_mean_accuracy(self) -> float:
        return float(np.mean(list(self.per_video_accuracy.values())))


def per_phase_stats(pred, gt) -> dict[int, PhaseStats]:
    p, g = _label_arrays(pred, gt)
    out = {}
    for phase in range(1, NUM_PHASES + 1):
        predicted = p == phase
        actual = g == phase
        tp = int((predicted & actual).sum())
        n_pred = int(predicted.sum())
        n_act = int(actual.sum())
        out[phase] = PhaseStats(
            precision=(tp / n_pred) if n_pred else None,
            recall=(tp / n_act) if n_act else None,
            support=n_act,
        )
    return out


def require_ground_truth(preds: dict, gts: dict[str, PhaseTimeline]) -> None:
    """Raise ValueError naming every predicted video (a timeline or a logit
    sequence) without a ground-truth timeline, or else every one whose frame
    count differs from its ground truth's."""
    missing = sorted(set(preds) - set(gts))
    if missing:
        raise ValueError(f"missing ground truth for videos: {', '.join(missing)}")
    wrong = [f"{v}: {len(preds[v])} frames, ground truth {len(gts[v])}" for v in sorted(preds) if len(preds[v]) != len(gts[v])]
    if wrong:
        raise ValueError(f"frame counts differ from ground truth: {'; '.join(wrong)}")


def evaluate_predictions(preds: dict[str, PhaseTimeline], gts: dict[str, PhaseTimeline]) -> EvalResult:
    """Pool predictions over videos and compute the full metric set.

    Every predicted video must have a ground-truth timeline of equal length.
    Pooled (frame-weighted) accuracy and the per-video mean are both exposed,
    since either convention is defensible for multi-video corpora.
    """
    if not preds:
        raise ValueError("no predictions to evaluate")
    require_ground_truth(preds, gts)
    order = sorted(preds)
    p_all = np.concatenate([preds[v].labels for v in order])
    g_all = np.concatenate([gts[v].labels for v in order])
    per_video = {v: accuracy(preds[v], gts[v]) for v in order}
    restricted = {
        pair: restricted_pair_accuracy(p_all, g_all, pair) for pair in all_transition_pairs()
    }
    return EvalResult(
        overall_accuracy=float((p_all == g_all).mean()),
        per_video_accuracy=per_video,
        per_phase=per_phase_stats(p_all, g_all),
        restricted_pair_accuracy=restricted,
    )


def bank_restricted_accuracies(
    bank: TransitionLogitBank, gts: dict[str, PhaseTimeline]
) -> dict[TransitionPair, float | None]:
    """Restricted accuracy of each 2-class model's argmax, pooled over videos.

    Measured only on frames whose ground truth lies in the pair, per the
    restricted convention.
    """
    from .inference import _pair_predictions

    out: dict[TransitionPair, float | None] = {}
    videos = [v for v in bank.videos() if v in gts]
    if not videos:
        raise ValueError("bank and ground truth share no videos")
    preds_by_video = {v: _pair_predictions(bank, v) for v in videos}
    for pair in all_transition_pairs():
        p_all = np.concatenate([preds_by_video[v][pair] for v in videos])
        g_all = np.concatenate([gts[v].labels for v in videos])
        out[pair] = restricted_pair_accuracy(p_all, g_all, pair)
    return out


@dataclass(frozen=True)
class CascadeRun:
    """A maximal run of frames [start, end) where the consulted transition
    pair excluded the true phase; ``state`` is the majority/p_last value at
    the run's first frame."""

    start: int
    end: int
    state: int

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("cascade run must cover at least one frame")

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class CascadeReport:
    runs: tuple[CascadeRun, ...]

    def total_frames(self) -> int:
        return sum(len(r) for r in self.runs)


def detect_cascades(trace: InferenceTrace, gt: PhaseTimeline) -> CascadeReport:
    """Find maximal runs where the consulted pair does not contain the truth.

    Frames where the baseline was consulted never qualify (they break runs).
    Runs are disjoint, ordered, and their union is exactly the qualifying set.
    """
    if len(trace) != len(gt):
        raise ValueError(f"trace length {len(trace)} does not match timeline length {len(gt)}")
    labels = gt.labels
    runs = []
    start = None
    state = None
    for r in trace.records:
        pair = r.consulted_pair()
        qualifies = pair is not None and not pair.contains(int(labels[r.frame_idx]))
        if qualifies and start is None:
            start, state = r.frame_idx, r.state
        elif not qualifies and start is not None:
            runs.append(CascadeRun(start, r.frame_idx, state))
            start = None
    if start is not None:
        runs.append(CascadeRun(start, len(gt), state))
    return CascadeReport(tuple(runs))
