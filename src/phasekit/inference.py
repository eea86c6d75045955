"""The two inference strategies, deterministic per-video state machines over
a baseline logit stream and a transition-model bank, computed array at a time.

Transition-based: a FIFO buffer of the last N predictions selects, by
majority, which 2-class model predicts the current frame.

Confidence-based: the baseline prediction is kept when its max-softmax
confidence exceeds a threshold; otherwise the 2-class model indexed by the
last emitted prediction substitutes. Confidence exactly equal to the
threshold routes to the transition model.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .logits import LogitSequence, TransitionLogitBank, argmax_confidence_rows, positive_temperature
from .workflow import (NUM_PHASES, PhaseTimeline, all_transition_pairs, float_text, frozen, int_text, phase_cells,
                       read_rows, row_block, write_rows)

BASELINE_MODEL = "baseline"
# A trace's model code indexes this: 0 is the baseline, k is pair (k, k + 1).
MODEL_NAMES = (BASELINE_MODEL, *(pair.name for pair in all_transition_pairs()))
_MODEL_CODES = {name: code for code, name in enumerate(MODEL_NAMES)}
_PHASES = np.arange(1, NUM_PHASES + 1)
# The model code of pair_for_phase(p) at index p - 1: (p, p + 1), and (6, 7) for p = 7.
_PAIR_CODE = np.minimum(_PHASES, NUM_PHASES - 1)

TRACE_HEADER = "video_id,frame_idx,model,state,confidence,prediction"

# Confidence thresholds tried by sweep_threshold, ascending.
SWEEP_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))

# Frames the transition strategy extends its current majority over per step.
_LOOKAHEAD = 512


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


_Record = namedtuple("Record", "frame_idx model state confidence prediction")


@dataclass(frozen=True, eq=False)
class InferenceTrace:
    """One video's per-frame decisions as parallel read-only columns.

    ``model`` is 0 where the baseline ran and k where pair (k, k + 1) ran.
    ``state`` is the buffer majority (transition strategy) or p_last
    (confidence strategy) that selected the model. ``confidence`` is the
    baseline max-softmax value where ``has_confidence`` is set (every frame
    of the confidence strategy), and 0.0 elsewhere. ``prediction`` is the
    emitted phase.
    """

    video_id: str
    model: np.ndarray
    state: np.ndarray
    confidence: np.ndarray
    has_confidence: np.ndarray
    prediction: np.ndarray

    def __post_init__(self):
        present = frozen(self.has_confidence, bool)
        columns = {
            "model": frozen(self.model, np.int64),
            "state": frozen(self.state, np.int64),
            "confidence": (frozen(self.confidence, np.float64) if present.all()
                           else np.where(present, np.asarray(self.confidence, dtype=np.float64), 0.0)),
            "has_confidence": present,
            "prediction": frozen(self.prediction, np.int64),
        }
        if present.ndim != 1 or any(col.shape != present.shape for col in columns.values()):
            raise ValueError(f"trace columns for {self.video_id!r} must be 1-D and of equal length")
        for name, col in columns.items():
            col.flags.writeable = False  # np.where's confidences are the one column frozen did not make
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.model)

    def __eq__(self, other) -> bool:
        if not isinstance(other, InferenceTrace):
            return NotImplemented
        return self.video_id == other.video_id and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)[1:]
        )

    @property
    def records(self) -> tuple:
        """The frames as ``(frame_idx, model, state, confidence, prediction)``
        namedtuples, built on each access: ``model`` is a name such as
        ``trans_2_3`` and ``confidence`` is None where absent."""
        conf = [c if has else None for c, has in zip(self.confidence.tolist(), self.has_confidence.tolist())]
        names = [MODEL_NAMES[code] for code in self.model.tolist()]
        return tuple(map(_Record, range(len(self)), names, self.state.tolist(), conf, self.prediction.tolist()))


def _pair_argmax(bank: TransitionLogitBank, video_id: str, pair) -> np.ndarray:
    """The (n,) phase labels of ``pair``'s binary argmax; ties go to the low phase."""
    z = bank.sequences[video_id][pair].logits
    return pair.low + (z[:, 0] < z[:, 1])


def _pair_predictions(bank: TransitionLogitBank, video_id: str) -> np.ndarray:
    """(6, n) phase labels whose row k - 1 is pair (k, k + 1)'s binary argmax."""
    return np.stack([_pair_argmax(bank, video_id, pair) for pair in all_transition_pairs()])


def transition_inference(
    bank: TransitionLogitBank,
    video_id: str,
    cfg: InferenceConfig = InferenceConfig(),
) -> tuple[PhaseTimeline, InferenceTrace]:
    """Run the buffer-majority strategy for one video.

    The buffer starts filled with phase 1. Each frame consults the pair for
    the current majority (before appending; ties go to the smaller phase),
    emits that binary model's prediction, and pushes it; every emission
    therefore lies in {majority, majority + 1} (or {6, 7} once the majority
    is 7).

    While the majority stays m every emission is pair m's, so each step
    assumes m over up to _LOOKAHEAD frames, takes every buffer's counts from
    one cumulative one-hot sum, and commits the frames before the first
    whose majority differs, which it then starts from. The majority may fall
    as well as rise.
    """
    if video_id not in bank.sequences:
        raise ValueError(f"bank does not cover video {video_id!r}")
    pair_preds = _pair_predictions(bank, video_id)
    n = pair_preds.shape[1]
    # frame t's buffer holds t < n emissions and at least size - t fill ones,
    # so any size >= 2n keeps the majority at 1 throughout, as 2n does
    size = min(cfg.buffer_size, 2 * n)
    # every label ever pushed: the phase-1 fill, then frame t's emission at size + t;
    # frame t's buffer is pushed[t:size + t]
    pushed = np.ones(size + n, dtype=np.int64)
    state = np.empty(n, dtype=np.int64)
    t, m = 0, 1
    while t < n:
        ahead = min(_LOOKAHEAD, n - t)
        pushed[size + t:size + t + ahead] = pair_preds[_PAIR_CODE[m - 1] - 1, t:t + ahead]
        counts = np.zeros((size + ahead + 1, NUM_PHASES), dtype=np.int64)
        np.cumsum(pushed[t:size + t + ahead, None] == _PHASES, axis=0, out=counts[1:])
        # majority[i]: frame t + i's majority, given majority m through frame t + i - 1
        majority = (counts[size:] - counts[:ahead + 1]).argmax(axis=1) + 1
        moved = np.flatnonzero(majority[1:] != m)
        step = int(moved[0]) + 1 if moved.size else ahead
        state[t:t + step] = m
        t, m = t + step, int(majority[step])
    out = frozen(pushed[size:], np.int64)  # one read-only copy, which the timeline and the trace share
    trace = InferenceTrace(video_id, _PAIR_CODE[state - 1], state, np.zeros(n), np.zeros(n, dtype=bool), out)
    return PhaseTimeline(video_id, out), trace


def _check_baseline(base: LogitSequence, bank: TransitionLogitBank) -> None:
    if base.num_classes != NUM_PHASES:
        raise ValueError(f"baseline logits must have K={NUM_PHASES}, got K={base.num_classes}")
    if base.video_id not in bank.sequences:
        raise ValueError(f"bank does not cover video {base.video_id!r}")
    if bank.frame_count(base.video_id) != base.num_frames:
        raise ValueError(
            f"bank frame count {bank.frame_count(base.video_id)} does not match "
            f"baseline frame count {base.num_frames} for video {base.video_id!r}"
        )


def _switched_predictions(preds, confs, pair_preds, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The confidence strategy's emissions and its baseline-accepted mask.

    Routing does not depend on p_last, so frame t is a map on the phases: a
    constant where the baseline is accepted, p -> pair_for_phase(p)'s
    prediction elsewhere. A Hillis-Steele scan composes the maps in
    ceil(log2 n) gathers, and the emissions are the composed maps at p = 1.
    """
    accepted = confs > threshold
    # 0-based: maps[t, p - 1] ends as frame t's emission when frame 0 starts from p_last = p
    maps = np.where(accepted[:, None], preds[:, None], pair_preds[_PAIR_CODE - 1].T) - 1
    rows = np.arange(0, maps.size, NUM_PHASES)[:, None]
    shift = 1
    while shift < len(maps):
        # maps[t] after maps[t - shift]: a gather from the flat table
        maps[shift:] = maps.ravel()[maps[:-shift] + rows[shift:]]
        shift *= 2
    return maps[:, 0] + 1, accepted


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
    _check_baseline(base, bank)
    preds, confs = argmax_confidence_rows(base.logits, cfg.temperature)
    out, accepted = _switched_predictions(preds, confs, _pair_predictions(bank, base.video_id), cfg.conf_threshold)
    out.flags.writeable = False  # so the timeline and the trace share it
    p_last = np.concatenate([[1], out[:-1]])
    model = np.where(accepted, 0, _PAIR_CODE[p_last - 1])
    trace = InferenceTrace(base.video_id, model, p_last, confs, np.ones(len(out), dtype=bool), out)
    return PhaseTimeline(base.video_id, out), trace


def baseline_argmax(base: LogitSequence) -> PhaseTimeline:
    """The plain per-frame argmax of the baseline logits (temperature-free)."""
    return PhaseTimeline(base.video_id, np.argmax(base.logits, axis=1) + 1)


def sweep_threshold(
    baselines: dict[str, LogitSequence],
    bank: TransitionLogitBank,
    references: dict[str, PhaseTimeline],
    temperature: float,
) -> tuple[float, list[tuple[float, float]]]:
    """Pick the confidence threshold with the most correct frames.

    Runs the confidence strategy at every SWEEP_GRID threshold, with
    confidences at ``temperature``, on each video in ``baselines`` and pools
    its integer hit count against ``references`` over all of their frames.
    Returns (best_threshold, [(threshold, accuracy), ...]); ties resolve to
    the smallest threshold. Confidences and pair predictions are computed
    once per video for all thresholds.
    """
    videos = []
    for vid in sorted(baselines):
        _check_baseline(baselines[vid], bank)
        preds, confs = argmax_confidence_rows(baselines[vid].logits, temperature)
        videos.append((preds, confs, _pair_predictions(bank, vid), references[vid].labels))
    n_frames = sum(base.num_frames for base in baselines.values())
    rows = []
    best, best_hits = None, -1
    for t_conf in SWEEP_GRID:
        hits = 0
        for preds, confs, pair_preds, reference in videos:
            out, _ = _switched_predictions(preds, confs, pair_preds, t_conf)
            hits += int(np.count_nonzero(out == reference))
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
    write_rows(path, TRACE_HEADER, map(trace_rows, traces))


def trace_rows(trace: InferenceTrace) -> str:
    """The lines of ``trace`` in a trace file (see save_traces)."""
    names = list(map(MODEL_NAMES.__getitem__, trace.model.tolist()))
    conf = [c if has else "" for c, has in zip(float_text(trace.confidence), trace.has_confidence.tolist())]
    return row_block(trace.video_id, (names, int_text(trace.state), conf, int_text(trace.prediction)))


def _trace_columns(cells) -> tuple[np.ndarray, ...]:
    models, states, confs, preds = cells
    unknown = set(models) - _MODEL_CODES.keys()
    if unknown:
        raise ValueError(f"model must be {BASELINE_MODEL!r} or a transition pair name, got {min(unknown)!r}")
    confidence = np.array([float(c) if c else 0.0 for c in confs])
    if not np.isfinite(confidence).all():
        raise ValueError("non-finite confidence")
    return (
        np.array([_MODEL_CODES[m] for m in models], dtype=np.int64),
        np.array(phase_cells(states, "state"), dtype=np.int64),
        confidence,
        np.array([c != "" for c in confs]),
        np.array(phase_cells(preds, "prediction"), dtype=np.int64),
    )


def load_traces(path) -> dict[str, InferenceTrace]:
    """Parse a trace file into {video_id: InferenceTrace} (see read_rows).

    The model column must be ``baseline`` or a transition pair name, and the
    state and prediction columns phases in [1, 7].
    """
    return {vid: InferenceTrace(vid, *columns) for vid, columns in read_rows(path, TRACE_HEADER, _trace_columns).items()}
