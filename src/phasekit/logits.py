"""Logit containers, softmax primitives, and the columnar text formats for
baseline and transition-model score streams."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .workflow import (PHASE_MAX, PHASE_MIN, TransitionPair, all_transition_pairs, float_text, frozen, int_cells,
                       int_text, read_rows, row_block, write_rows)

BANK_FILE_SUFFIX = ".csv"
LOGIT_HEADER = "video_id,frame_idx,label"


def positive_temperature(value) -> float:
    """``value`` as a float, rejecting anything but a positive finite real."""
    t = float(value)
    if not math.isfinite(t) or t <= 0:
        raise ValueError(f"temperature must be a positive finite real, got {value}")
    return t


def softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """Temperature-scaled softmax along the last axis.

    Computed stably by subtracting the row maximum before exponentiation, so
    the result is invariant (to ~1e-12) to adding a constant to all entries.
    Rejects non-finite input, non-positive temperature, and a temperature at
    which a row's scaled maximum overflows.
    """
    e = _checked_exp(logits, temperature)
    return np.divide(e, e.sum(axis=-1, keepdims=True), out=e)


def _checked_exp(logits, temperature) -> np.ndarray:
    """_shifted_exp of ``logits / temperature``; a bad temperature, an empty
    or non-finite input, or a row whose scaled maximum overflows raises ValueError."""
    t = positive_temperature(temperature)
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ValueError("softmax input is empty")
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax input contains non-finite entries")
    # from K = 8 numpy sums a contiguous row in pairwise blocks, so there a row-major buffer gives every
    # layout of z the bits of a row-major one; below, every layout sums a row in column order
    e, m = _shifted_exp(z, t, None if z.shape[-1] < 8 else np.empty(z.shape))
    if not np.isfinite(m).all():
        raise ValueError(f"softmax is not finite at temperature {t!r}: the scaled logits overflow")
    return e


def _shifted_exp(z: np.ndarray, t: float, out=None) -> tuple[np.ndarray, np.ndarray]:
    """``(exp(z / t - m), m)``, with ``m`` the row maxima of ``z / t``, in
    ``out`` or one new buffer; 1.0 at each row's maximum, and NaN across a
    row whose ``m`` overflows, which the caller checks."""
    # a score far below its row maximum gives exp(-inf) = 0; an infinite maximum gives inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.divide(z, t, out=out)
        m = e.max(axis=-1, keepdims=True)
        return np.exp(np.subtract(e, m, out=e), out=e), m


def argmax_confidence_rows(logits, temperature: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Predicted classes (1-based) and their max-softmax probabilities for an
    (n, K) array of logits.

    The argmax is taken on the raw logits, so the predicted classes are
    invariant to the temperature; the confidences are evaluated at the given
    temperature. Exact ties resolve to the smallest class index.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("expected an (n, K) array of logits")
    # z / t peaks where z does, so softmax's entry there is 1 / sum, bit for bit
    e = _checked_exp(z, temperature)
    return np.argmax(z, axis=1) + 1, 1.0 / e.sum(axis=1)


@dataclass(frozen=True)
class LogitSequence:
    """Per-frame raw score vectors for one video.

    ``logits`` is (n_frames, K) with K >= 2 and finite entries. ``labels``
    optionally carries the ground-truth phase per frame (values in [1, 7]);
    it is None when unknown.
    """

    video_id: str
    logits: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        z = frozen(self.logits, np.float64)
        if z.ndim != 2:
            raise ValueError(f"logits for {self.video_id!r} must be 2-D, got {z.ndim}-D")
        if z.shape[0] < 1:
            raise ValueError(f"logits for {self.video_id!r} have no frames")
        if z.shape[1] < 2:
            raise ValueError(f"logits for {self.video_id!r} need K >= 2, got K={z.shape[1]}")
        if not np.all(np.isfinite(z)):
            raise ValueError(f"logits for {self.video_id!r} contain non-finite entries")
        object.__setattr__(self, "logits", z)
        if self.labels is not None:
            y = frozen(self.labels, np.int64)
            if y.shape != (z.shape[0],):
                raise ValueError(f"labels for {self.video_id!r} do not match the frame count")
            hi = max(PHASE_MAX, z.shape[1])
            if y.min() < PHASE_MIN or y.max() > hi:
                raise ValueError(f"labels for {self.video_id!r} outside [{PHASE_MIN}, {hi}]")
            object.__setattr__(self, "labels", y)

    @property
    def num_classes(self) -> int:
        return int(self.logits.shape[1])

    @property
    def num_frames(self) -> int:
        return int(self.logits.shape[0])

    def __len__(self) -> int:
        return self.num_frames


@dataclass(frozen=True)
class TransitionLogitBank:
    """2-class logit sequences for every neighboring pair, per video.

    ``sequences`` maps video_id -> {TransitionPair: LogitSequence}. Every
    covered video must carry all six pairs with K=2 and a common frame count.
    For pair (i, i+1), column 0 scores phase i and column 1 scores phase i+1.
    """

    sequences: dict[str, dict[TransitionPair, LogitSequence]]

    def __post_init__(self):
        _check_layout({vid: {pair: (seq.video_id, seq.logits.shape) for pair, seq in by_pair.items()}
                       for vid, by_pair in self.sequences.items()})

    @classmethod
    def merge(cls, banks) -> "TransitionLogitBank":
        merged: dict[str, dict[TransitionPair, LogitSequence]] = {}
        for bank in banks:
            for vid, by_pair in bank.sequences.items():
                if vid in merged:
                    raise ValueError(f"duplicate video {vid!r} while merging banks")
                merged[vid] = dict(by_pair)
        return cls(merged)

    def videos(self) -> list[str]:
        return sorted(self.sequences)

    def pair_labels(self, video_id: str) -> np.ndarray:
        """The (6, n) read-only phases whose row k - 1 is pair (k, k + 1)'s pair_argmax."""
        by_pair = self.sequences.get(video_id)
        if by_pair is None:
            raise ValueError(f"bank does not cover video {video_id!r}")
        return frozen(np.stack([pair_argmax(pair, by_pair[pair].logits) for pair in all_transition_pairs()]), np.uint8)


@dataclass(frozen=True)
class PairLabelBank:
    """The part of a TransitionLogitBank that the inference strategies read:
    ``labels`` maps video_id -> its (6, n) read-only uint8 pair_labels."""

    labels: dict[str, np.ndarray]

    @classmethod
    def assemble(cls, parsed) -> "PairLabelBank":
        """The bank of the six pair files ``parsed``, in pair order, each as
        ({video_id: logit shape}, {video_id: pair_argmax}); a bad layout
        raises what assemble_bank raises for those files."""
        check_bank_shapes([shapes for shapes, _ in parsed])
        per_video = _by_video([labels for _, labels in parsed])
        return cls({vid: frozen(np.stack(list(by_pair.values())), np.uint8) for vid, by_pair in per_video.items()})

    def videos(self) -> list[str]:
        return sorted(self.labels)

    def pair_labels(self, video_id: str) -> np.ndarray:
        """The (6, n) read-only phases whose row k - 1 is pair (k, k + 1)'s pair_argmax."""
        if video_id not in self.labels:
            raise ValueError(f"bank does not cover video {video_id!r}")
        return self.labels[video_id]


def pair_argmax(pair: TransitionPair, logits: np.ndarray) -> np.ndarray:
    """The (n,) read-only uint8 phases of ``pair``'s binary argmax over (n, 2)
    ``logits``; ties, -0.0 against 0.0 among them, go to the low phase."""
    return frozen(pair.low + (logits[:, 0] < logits[:, 1]), np.uint8)


def save_logits(sequences, path) -> None:
    """Write one or more LogitSequence values to a columnar text file.

    Format: header ``video_id,frame_idx,label,z1,...,zK`` then one line per
    frame. The label column holds the ground-truth phase, or 0 when the
    sequence carries no labels. Floats are written with full round-trip
    precision. All sequences in one file must share K.
    """
    if isinstance(sequences, LogitSequence):
        sequences = [sequences]
    sequences = list(sequences)
    if not sequences:
        raise ValueError("nothing to save")
    k = sequences[0].num_classes
    for seq in sequences:
        if seq.num_classes != k:
            raise ValueError("all sequences in one file must share the class count")
    header = LOGIT_HEADER + "".join(f",z{i}" for i in range(1, k + 1))
    write_rows(path, header, (row_block(seq.video_id, _logit_text(seq)) for seq in sequences))


def _logit_text(seq: LogitSequence) -> list[list[str]]:
    """The label column and the K score columns of ``seq`` as cell strings."""
    n = seq.num_frames
    labels = ["0"] * n if seq.labels is None else int_text(seq.labels)
    scores = float_text(seq.logits.T.ravel())
    return [labels, *(scores[j:j + n] for j in range(0, len(scores), n))]


def _logit_columns(cells) -> tuple[list[int], np.ndarray]:
    n = len(cells[0])
    # column by column: a single row is parsed in cell order, naming its first bad cell
    z = np.fromiter(map(float, chain.from_iterable(cells[1:])), np.float64, n * (len(cells) - 1))
    if not np.isfinite(z).all():
        raise ValueError("non-finite logit")
    labels = int_cells(cells[0])
    hi = max(PHASE_MAX, len(cells) - 1)
    for label in (min(labels), max(labels)):
        if not 0 <= label <= hi:
            raise ValueError(f"label {label} outside [0, {hi}]")
    return labels, z.reshape(-1, n).T


def load_logits(path) -> dict[str, LogitSequence]:
    """Parse a logit file into {video_id: LogitSequence} (see read_rows).

    Non-numeric or non-finite entries, and labels outside [0, max(7, K)],
    raise ValueError naming the line. An all-zero label column for a video
    loads as labels=None.
    """
    out: dict[str, LogitSequence] = {}
    for vid, (labs, z) in read_rows(path, LOGIT_HEADER, _logit_columns, open_ended=True).items():
        if any(labs) and not all(labs):
            raise ValueError(f"{path}: video {vid!r} mixes labeled and unlabeled (0) rows")
        out[vid] = LogitSequence(vid, z, labels=labs if any(labs) else None)
    return out


def bank_path(directory, pair: TransitionPair) -> Path:
    return Path(directory) / f"{pair.name}{BANK_FILE_SUFFIX}"


def bank_layout(bank: TransitionLogitBank, directory) -> list[tuple[list[LogitSequence], Path]]:
    """The six pair files of ``bank`` in ``directory``, in pair order: each
    pair's sequences in video id order, and the file they go to."""
    return [([bank.sequences[vid][pair] for vid in bank.videos()], bank_path(directory, pair))
            for pair in all_transition_pairs()]


def save_bank(bank: TransitionLogitBank, directory) -> None:
    """Write a bank as one file per pair (``trans_1_2.csv`` ... ``trans_6_7.csv``)."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    for seqs, path in bank_layout(bank, directory):
        save_logits(seqs, path)


def bank_files(directory) -> list[Path]:
    """The six ``trans_<i>_<i+1>.csv`` files of a bank directory, in pair
    order; a missing one raises ValueError naming it."""
    paths = [bank_path(directory, pair) for pair in all_transition_pairs()]
    for path in paths:
        if not path.exists():
            raise ValueError(f"missing transition file {path.name} in {directory}")
    return paths


def _check_layout(per_video: dict) -> None:
    """Raise ValueError unless every video of ``per_video``, {video_id: {pair:
    (the video id its sequence carries, its logits' shape)}}, has all six
    pairs, each with K=2, the video's id and one common frame count."""
    pairs = set(all_transition_pairs())
    for vid, by_pair in per_video.items():
        got = set(by_pair)
        if got != pairs:
            missing = sorted(p.name for p in pairs - got)
            raise ValueError(f"bank for video {vid!r} is missing pairs: {', '.join(missing)}")
        counts = set()
        for pair, (carried, (frames, k)) in by_pair.items():
            if k != 2:
                raise ValueError(f"bank entry {pair.name} for {vid!r} must have K=2")
            if carried != vid:
                raise ValueError(f"bank entry {pair.name} carries video {carried!r}, expected {vid!r}")
            counts.add(frames)
        if len(counts) != 1:
            raise ValueError(f"bank for video {vid!r} has mismatched frame counts: {sorted(counts)}")


def _by_video(parsed) -> dict[str, dict[TransitionPair, object]]:
    """{video_id: {pair: item}} from the six pair files' {video_id: item}, in pair order."""
    per_video: dict[str, dict[TransitionPair, object]] = {}
    for pair, items in zip(all_transition_pairs(), parsed, strict=True):
        for vid, item in items.items():
            per_video.setdefault(vid, {})[pair] = item
    return per_video


def assemble_bank(parsed) -> TransitionLogitBank:
    """The bank held by the six pair files ``parsed`` by load_logits, in pair order."""
    return TransitionLogitBank(_by_video(parsed))


def check_bank_shapes(shapes) -> None:
    """Raise the ValueError assemble_bank raises for the six pair files, in
    pair order, whose sequences have these logit ``shapes``, {video_id:
    (frames, K)} per file, without their arrays."""
    _check_layout({vid: {pair: (vid, shape) for pair, shape in by_pair.items()}
                   for vid, by_pair in _by_video(shapes).items()})


def load_bank(directory) -> TransitionLogitBank:
    """Load a bank directory written by save_bank: assemble_bank over the
    parsed bank_files."""
    return assemble_bank([load_logits(path) for path in bank_files(directory)])
