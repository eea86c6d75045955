"""Seven-phase laparoscopic workflow structure: phase labels, timelines,
and the neighboring-pair layout that the transition models are indexed by."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby, islice, repeat
from pathlib import Path

import numpy as np

NUM_PHASES = 7
PHASE_MIN = 1
PHASE_MAX = 7

TIMELINE_HEADER = "video_id,frame_idx,phase"
# Lines read_rows converts at a time; only one block's cell strings are held.
READ_BLOCK_LINES = 2048
# frame_idx cells "0", "1", ... that read_rows checks as strings; frames past
# the cap, and any other spelling, are parsed with int() instead.
CANONICAL_FRAMES_MAX = 1 << 16
_frame_cells: list[str] = []
_DIGITS = {str(d): d for d in range(10)}


@dataclass(frozen=True, order=True)
class TransitionPair:
    """A neighboring phase pair (i, i+1); exactly six are constructible."""

    low: int
    high: int

    def __post_init__(self):
        for field in ("low", "high"):
            index = getattr(self, field)
            if not PHASE_MIN <= int(index) <= PHASE_MAX:
                raise ValueError(f"phase index must be in [{PHASE_MIN}, {PHASE_MAX}], got {index}")
            object.__setattr__(self, field, int(index))
        if self.high != self.low + 1:
            raise ValueError(f"transition pair must be neighboring phases, got ({self.low}, {self.high})")

    @property
    def name(self) -> str:
        """Stable identifier used for bank file names, e.g. ``trans_1_2``."""
        return f"trans_{self.low}_{self.high}"


def all_transition_pairs() -> tuple[TransitionPair, ...]:
    """The six neighboring pairs (1,2) ... (6,7), in order."""
    return tuple(TransitionPair(i, i + 1) for i in range(PHASE_MIN, PHASE_MAX))


def pair_for_phase(phase: int) -> TransitionPair:
    """Transition pair consulted when the current phase estimate is ``phase``.

    Returns (p, p+1) for p <= 6 and (6, 7) for the final phase, which has no
    successor.
    """
    low = PHASE_MAX - 1 if int(phase) == PHASE_MAX else int(phase)
    return TransitionPair(low, low + 1)  # the pair rejects a phase outside [1, 7]


def frozen(values, dtype) -> np.ndarray:
    """``values`` itself if it is a read-only array of ``dtype`` that owns its
    data, so that containers share it; else a read-only copy as ``dtype``."""
    if type(values) is np.ndarray and values.dtype == dtype and values.base is None and not values.flags.writeable:
        return values
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PhaseTimeline:
    """Per-frame phase labels for one video at 1 fps.

    ``labels`` is a non-empty 1-D int array with every entry in [1, 7];
    it is stored read-only (see frozen) so timelines can be shared freely.
    """

    video_id: str
    labels: np.ndarray

    def __post_init__(self):
        arr = frozen(self.labels, np.int64)
        if arr.ndim != 1:
            raise ValueError("timeline labels must be a 1-D sequence")
        if arr.size == 0:
            raise ValueError(f"timeline for {self.video_id!r} is empty")
        if arr.min() < PHASE_MIN or arr.max() > PHASE_MAX:
            raise ValueError(
                f"timeline for {self.video_id!r} has phases outside [{PHASE_MIN}, {PHASE_MAX}]"
            )
        object.__setattr__(self, "labels", arr)

    def __len__(self) -> int:
        return int(self.labels.size)


def segment_boundaries(timeline: PhaseTimeline) -> list[tuple[int, int, int]]:
    """Indices where the label changes, as (frame_idx, from_phase, to_phase).

    frame_idx is the first frame of the new segment. Constant timelines
    yield an empty list.
    """
    labels = timeline.labels
    idx = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    return [(int(i), int(labels[i - 1]), int(labels[i])) for i in idx]


def save_timelines(timelines, path) -> None:
    """Write one or more timelines in the columnar text format.

    Format: header ``video_id,frame_idx,phase``, then one line per frame
    with frame_idx starting at 0 per video.
    """
    if isinstance(timelines, PhaseTimeline):
        timelines = [timelines]
    write_rows(path, TIMELINE_HEADER, (row_block(t.video_id, (int_text(t.labels),)) for t in timelines))


def write_rows(path, header: str, blocks) -> None:
    """Write ``header``, then each block of the lazy iterable ``blocks`` (see
    row_block); one block is held at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(blocks)


def row_block(vid: str, columns) -> str:
    """One line ``video_id,frame_idx,<cells>`` per frame of the video ``vid``,
    whose ``columns`` are equal-length lists of cell strings."""
    n = len(columns[0])
    frames = _canonical_frames(0, n)
    frames.extend(map(str, range(len(frames), n)))
    return "\n".join(map(",".join, zip(repeat(vid, n), frames, *columns))) + "\n"


def float_text(column) -> list[str]:
    """``repr`` of each float of a 1-D array, computed once per distinct bit
    pattern (so -0.0 and 0.0 stay apart)."""
    column = np.asarray(column, dtype=np.float64)
    bits, where = np.unique(column.view(np.int64), return_inverse=True)
    if bits.size == column.size:
        return list(map(repr, column.tolist()))
    return list(map(list(map(repr, bits.view(np.float64).tolist())).__getitem__, where.tolist()))


def int_text(column) -> list[str]:
    """``str`` of each integer of a 1-D array, looked up among the canonical
    frame_idx cells when every value is one."""
    column = np.asarray(column)
    if column.size and 0 <= column.min() and column.max() < CANONICAL_FRAMES_MAX:
        return list(map(_canonical_frames(0, int(column.max()) + 1).__getitem__, column.tolist()))
    return list(map(str, column.tolist()))


def check_utf8(path) -> None:
    """Raise a ValueError naming ``path:line`` of the file's first byte that
    is not UTF-8, with lines counted where file iteration breaks them."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        line = 1 + head.count("\n") + head.count("\r") - head.count("\r\n")
        raise ValueError(f"{path}:{line}: {exc}") from None


def read_rows(path, header: str, convert, *, open_ended: bool = False) -> dict[str, tuple]:
    """Parse a comma-separated file keyed by ``video_id,frame_idx`` into
    {video_id: (column, ...)}, one list or read-only array per column after frame_idx.

    Blank lines and lines beginning with ``#`` are skipped. The first other
    line must equal ``header``; with ``open_ended`` it must instead start with
    ``header``'s columns and add two or more (a logit file's K >= 2 scores).
    Every row must have the header's column count, and frame_idx must run 0,
    1, 2, ... within each video. ``convert`` takes the columns after frame_idx
    of READ_BLOCK_LINES lines (lists of cell strings), returns one list or
    array per column, and rejects a bad cell by raising ValueError. Every
    error is a ValueError beginning ``path:line:`` at the first bad row.
    """
    path = Path(path)
    names = header.split(",")
    per_video: dict[str, list] = {}
    counts: dict[str, int] = {}
    try:
        with path.open(encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line and not line.startswith("#"):
                    break
            else:
                raise ValueError(f"{path}: missing header line")
            fields = line.split(",")
            ok = fields[:len(names)] == names and len(fields) >= len(names) + 2 if open_ended else fields == names
            if not ok:
                shown = header + ",..." if open_ended else header
                raise ValueError(f"{path}:{lineno}: expected header {shown!r}, got {line!r}")
            columns = len(fields)
            # file iteration, unlike str.splitlines, breaks lines only at \n, \r and \r\n
            while block := list(islice(fh, READ_BLOCK_LINES)):
                lines = [line for line in map(str.strip, block) if line and line[0] != "#"]
                try:
                    _add_rows(lines, columns, convert, per_video, counts)
                except ValueError:  # find the first bad row and name its line
                    for n, raw in enumerate(block, start=lineno + 1):
                        if (line := raw.strip()) and line[0] != "#":
                            try:
                                _add_rows([line], columns, convert, per_video, counts)
                            except ValueError as exc:
                                raise ValueError(f"{path}:{n}: {exc}") from None
                lineno += len(block)
    except UnicodeDecodeError:
        check_utf8(path)
        raise
    if not per_video:
        raise ValueError(f"{path}: no frames")
    return {vid: tuple(map(_joined, zip(*chunks))) for vid, chunks in per_video.items()}


def _add_rows(lines, columns: int, convert, per_video: dict, counts: dict) -> None:
    """Split stripped data ``lines`` once, convert them column by column and
    append each video's run of rows; a bad row adds nothing and raises.

    Column counts and frame_idx cells are checked as strings first; only a
    block that fails a string check is parsed with int() to name the fault."""
    if not lines:
        return
    step = columns + 1
    # a stripped line holds no "\n", so the markers sit on the stride only if every line has the right width
    cells = ",\n,".join(lines).split(",")
    if len(cells) != len(lines) * step - 1 or cells[columns::step] != ["\n"] * (len(lines) - 1):
        widths = set(map(str.count, lines, repeat(","))) - {columns - 1}
        raise ValueError(f"expected {columns} columns, got {widths.pop() + 1}")
    vids, frames, *data = (cells[j::step] for j in range(columns))
    runs, seen, canonical = [], {}, True
    start = 0
    for vid, group in groupby(vids):
        size = len(list(group))
        have = seen.get(vid, counts.get(vid, 0))
        seen[vid] = have + size
        runs.append((vid, have, start, start + size))
        canonical = canonical and frames[start:start + size] == _canonical_frames(have, have + size)
        start += size
    if not canonical:
        idx = list(map(int, frames))
        expected = list(chain.from_iterable(range(have, have + e - s) for _, have, s, e in runs))
        if idx != expected:
            i = next(i for i, (got, want) in enumerate(zip(idx, expected)) if got != want)
            raise ValueError(f"frame_idx {idx[i]} out of order for video {vids[i]!r} (expected {expected[i]})")
    data = convert(data)
    for vid, _, s, e in runs:
        per_video.setdefault(vid, []).append([col[s:e] for col in data])
    counts.update(seen)


def _canonical_frames(start: int, stop: int) -> list[str]:
    """The cells str(start) ... str(stop - 1), cut short at CANONICAL_FRAMES_MAX."""
    stop = min(stop, CANONICAL_FRAMES_MAX)
    if len(_frame_cells) < stop:
        _frame_cells.extend(map(str, range(len(_frame_cells), stop)))
    return _frame_cells[start:stop]


def _joined(parts):
    if not isinstance(parts[0], np.ndarray):
        return list(chain.from_iterable(parts))
    column = np.concatenate(parts)
    column.flags.writeable = False  # so that a container keeps it rather than a copy (see frozen)
    return column


def int_cells(cells) -> list[int]:
    """A column of cell strings as ints: the digits "0" ... "9" by lookup, and
    the whole column through int() when any cell is spelled otherwise."""
    try:
        return list(map(_DIGITS.__getitem__, cells))
    except KeyError:
        return list(map(int, cells))


def phase_cells(cells, name: str = "phase") -> list[int]:
    """A column of cell strings as ints, each in [1, 7]; a bad cell raises a
    ValueError that calls the column ``name``."""
    phases = int_cells(cells)
    for phase in (min(phases), max(phases)):
        if not PHASE_MIN <= phase <= PHASE_MAX:
            raise ValueError(f"{name} {phase} outside [{PHASE_MIN}, {PHASE_MAX}]")
    return phases


def _phases(cells) -> tuple[list[int]]:
    return (phase_cells(cells[0]),)


def load_timelines(path) -> dict[str, PhaseTimeline]:
    """Parse a timeline file into {video_id: PhaseTimeline} (see read_rows)."""
    return {vid: PhaseTimeline(vid, p) for vid, (p,) in read_rows(path, TIMELINE_HEADER, _phases).items()}
