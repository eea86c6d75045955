"""Accuracy and diagnostic metrics: frame-level accuracy, per-phase precision
and recall, restricted pair accuracy, and cascade detection over traces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inference import InferenceTrace, _pair_argmax
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


def evaluate_predictions(preds: dict[str, PhaseTimeline], gts: dict[str, PhaseTimeline]) -> dict:
    """Pool predictions over videos and return the evaluation keys:
    ``accuracy.pooled`` (frame-weighted), ``accuracy.video_mean``,
    ``accuracy.video.<id>``, ``phase.<p>.precision``, ``.recall`` and
    ``.support``, and ``pair.<pair>.accuracy``. A value whose denominator is
    0 is None.

    Every predicted video must have a ground-truth timeline of equal length.
    """
    if not preds:
        raise ValueError("no predictions to evaluate")
    require_ground_truth(preds, gts)
    order = sorted(preds)
    p_all = np.concatenate([preds[v].labels for v in order])
    g_all = np.concatenate([gts[v].labels for v in order])
    per_video = {f"accuracy.video.{v}": accuracy(preds[v], gts[v]) for v in order}
    out = {
        "accuracy.pooled": float((p_all == g_all).mean()),
        "accuracy.video_mean": float(np.mean(list(per_video.values()))),
        **per_video,
    }
    for phase in range(1, NUM_PHASES + 1):
        predicted, actual = p_all == phase, g_all == phase
        tp, n_pred, n_act = int((predicted & actual).sum()), int(predicted.sum()), int(actual.sum())
        out[f"phase.{phase}.precision"] = tp / n_pred if n_pred else None
        out[f"phase.{phase}.recall"] = tp / n_act if n_act else None
        out[f"phase.{phase}.support"] = n_act
    for pair in all_transition_pairs():
        out[f"pair.{pair.name}.accuracy"] = restricted_pair_accuracy(p_all, g_all, pair)
    return out


def bank_restricted_accuracies(bank: TransitionLogitBank, gts: dict[str, PhaseTimeline]) -> dict:
    """``pair.<pair>.accuracy``: the restricted accuracy of each 2-class
    model's argmax, pooled over the videos the bank and ``gts`` share.

    Measured only on frames whose ground truth lies in the pair, per the
    restricted convention; None where no frame does.
    """
    videos = [v for v in bank.videos() if v in gts]
    if not videos:
        raise ValueError("bank and ground truth share no videos")
    g_all = np.concatenate([gts[v].labels for v in videos])
    out = {}
    for pair in all_transition_pairs():  # one pair's predictions at a time
        p_all = np.concatenate([_pair_argmax(bank, v, pair) for v in videos])
        out[f"pair.{pair.name}.accuracy"] = restricted_pair_accuracy(p_all, g_all, pair)
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
    pair_low, labels = trace.model, gt.labels
    qualifies = (pair_low > 0) & (labels != pair_low) & (labels != pair_low + 1)
    # run starts and ends alternate among the frames where qualifying flips
    edges = np.flatnonzero(np.diff(qualifies, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    states = trace.state[starts]
    return CascadeReport(tuple(map(CascadeRun, starts.tolist(), ends.tolist(), states.tolist())))
