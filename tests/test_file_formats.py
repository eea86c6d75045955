"""The three CSV formats: exact writer output, the streaming writer checked
against the per-row reference writers, and the block reader checked against
the row-by-row reference reader on valid and corrupted files."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_load_logits,
    oracle_load_timelines,
    oracle_load_traces,
    oracle_save_logits,
    oracle_save_timelines,
    oracle_save_trace_arrays,
)
from phasekit import workflow
from phasekit.cli import main
from phasekit.inference import TRACE_HEADER, InferenceTrace, load_traces, save_traces
from phasekit.logits import LogitSequence, load_logits, save_logits
from phasekit.report import load_results_json
from phasekit.workflow import PhaseTimeline, all_transition_pairs, load_timelines, save_timelines

MODELS = ["baseline", "trans_1_2", "trans_3_4", "trans_6_7"]
BAD_CELLS = ["x", "", "1.5.", "--1", "1e", "inf", "-inf", "nan", "1e400", "99999999999999999999",
             "0", "8", "٣", "1_0", " 2 ", "0x1", "2.0", "1\x0c5", "\x0c3", "trans_9_9"]
# Other spellings of an integer cell: int() reads the first five as the
# canonical cell does and rejects the last two.
RESPELLINGS = ["+{}".format, "0{}".format, "0_{}".format, " {}".format,
               lambda cell: cell.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
               "{}.0".format, "0x{}".format]


class TestWriters:
    def test_save_logits_text(self, tmp_path):
        labeled = LogitSequence("a", [[0.1, 1e-05], [1e16, -0.0]], labels=[1, 2])
        unlabeled = LogitSequence("b", [[5e-324, 0.1]])
        path = tmp_path / "z.csv"
        save_logits([labeled, unlabeled], path)
        assert path.read_bytes() == (
            b"video_id,frame_idx,label,z1,z2\n"
            b"a,0,1,0.1,1e-05\n"
            b"a,1,2,1e+16,-0.0\n"
            b"b,0,0,5e-324,0.1\n"
        )

    def test_save_timelines_text(self, tmp_path):
        path = tmp_path / "t.csv"
        save_timelines([PhaseTimeline("a", [1, 1, 2]), PhaseTimeline("b", [7])], path)
        assert path.read_bytes() == b"video_id,frame_idx,phase\na,0,1\na,1,1\na,2,2\nb,0,7\n"

    def test_save_traces_text(self, tmp_path):
        transition = InferenceTrace("a", model=[1, 2], state=[1, 2], confidence=[0.0, 0.0],
                                    has_confidence=[False, False], prediction=[2, 2])
        confidence = InferenceTrace("b", model=[0, 3], state=[1, 3], confidence=[0.75, 0.1],
                                    has_confidence=[True, True], prediction=[3, 4])
        path = tmp_path / "tr.csv"
        save_traces([transition, confidence], path)
        assert path.read_bytes() == (
            b"video_id,frame_idx,model,state,confidence,prediction\n"
            b"a,0,trans_1_2,1,,2\n"
            b"a,1,trans_2_3,2,,2\n"
            b"b,0,baseline,1,0.75,3\n"
            b"b,1,trans_3_4,3,0.1,4\n"
        )


# Values that repeat and that differ only in sign or format edge cases, mixed
# into the arbitrary finite floats the writers are checked on.
FLOAT_POOL = [0.0, -0.0, 16.0, 5e-324, 1e16, 1e-5]


def _float_column(draw, n):
    values = st.one_of(st.sampled_from(FLOAT_POOL), st.floats(allow_nan=False, allow_infinity=False))
    return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)


@st.composite
def _written(draw, kind):
    """The values one writer takes: 1-4 videos of 1-40 frames each."""
    vids = draw(st.lists(st.sampled_from(["a", "b", "v10", "video07"]), min_size=1, max_size=4, unique=True))
    k = draw(st.integers(2, 7))
    values = []
    for vid in vids:
        n = draw(st.integers(1, 40))
        phases = st.lists(st.integers(1, 7), min_size=n, max_size=n)
        if kind == "timeline":
            values.append(PhaseTimeline(vid, draw(phases)))
        elif kind == "logits":
            labels = draw(st.one_of(st.none(), phases))
            values.append(LogitSequence(vid, _float_column(draw, n * k).reshape(n, k), labels=labels))
        else:
            values.append(InferenceTrace(
                vid, model=draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)), state=draw(phases),
                confidence=_float_column(draw, n),
                has_confidence=draw(st.lists(st.booleans(), min_size=n, max_size=n)), prediction=draw(phases)))
    return values


WRITERS = {
    "timeline": (save_timelines, oracle_save_timelines, load_timelines),
    "logits": (save_logits, oracle_save_logits, load_logits),
    "trace": (save_traces, oracle_save_trace_arrays, load_traces),
}


def _assert_written_as_oracle(kind, values, tmp):
    """The streaming writer's bytes equal the per-row writer's, and the
    loader reads every array back bit for bit."""
    save, oracle, load = WRITERS[kind]
    save(values, tmp / "new.csv")
    oracle(values, tmp / "old.csv")
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()
    loaded = load(tmp / "new.csv")
    assert list(loaded) == [v.video_id for v in values]
    for value in values:
        got = loaded[value.video_id]
        if kind == "timeline":
            assert got.labels.tobytes() == value.labels.tobytes()
        elif kind == "logits":
            assert got.logits.shape == value.logits.shape
            assert got.logits.tobytes() == value.logits.tobytes()
            assert (got.labels is None) == (value.labels is None)
            assert value.labels is None or got.labels.tobytes() == value.labels.tobytes()
        else:
            assert got == value
            assert got.confidence.tobytes() == value.confidence.tobytes()


@pytest.mark.parametrize("kind", list(WRITERS))
@given(data=st.data())
def test_writers_match_row_writers(kind, data, tmp_path_factory):
    _assert_written_as_oracle(kind, data.draw(_written(kind)), tmp_path_factory.mktemp(kind))


@pytest.mark.parametrize("kind", list(WRITERS))
def test_writers_match_row_writers_past_the_canonical_cap(kind, tmp_path):
    """70,000 frames in one video: frame_idx cells past CANONICAL_FRAMES_MAX."""
    n = 70_000
    assert n > workflow.CANONICAL_FRAMES_MAX
    rng = np.random.default_rng(14)
    phases = rng.integers(1, 8, size=n)
    z = rng.choice(np.array([0.0, -0.0, 16.0, 5e-324, 1e16, 1e-5, 0.1, -2.5]), size=(n, 2))
    values = {
        "timeline": [PhaseTimeline("v", phases)],
        "logits": [LogitSequence("v", z, labels=phases)],
        "trace": [InferenceTrace("v", model=phases - 1, state=phases, confidence=z[:, 0],
                                 has_confidence=z[:, 1] > 0, prediction=phases)],
    }[kind]
    _assert_written_as_oracle(kind, values, tmp_path)


@pytest.mark.parametrize("kind", ["logits", "trace"])
def test_readers_hand_their_arrays_to_the_containers(kind, tmp_path, monkeypatch):
    """The row reader joins each array column read-only, so the container
    keeps it rather than a copy."""
    joined, join = [], workflow._joined

    def record(parts):
        joined.append(join(parts))
        return joined[-1]

    monkeypatch.setattr(workflow, "_joined", record)
    path = tmp_path / "f.csv"
    if kind == "logits":
        save_logits([LogitSequence("a", [[0.5, 1.0]] * 3, labels=[1, 2, 2]), LogitSequence("b", [[2.0, -1.0]])], path)
        held = [seq.logits for seq in load_logits(path).values()]
    else:
        save_traces(InferenceTrace("a", model=[0, 3], state=[1, 3], confidence=[0.75, 0.1],
                                   has_confidence=[True, True], prediction=[3, 4]), path)
        trace = load_traces(path)["a"]
        held = [getattr(trace, name) for name in ("model", "state", "confidence", "has_confidence", "prediction")]
    arrays = [a for a in joined if isinstance(a, np.ndarray)]
    assert len(arrays) == len(held) and all(a is b for a, b in zip(arrays, held))


@pytest.mark.parametrize("kind", ["logits", "timeline"])
def test_writer_streams_one_video_at_a_time(kind, tmp_path):
    """Writing 20 videos x 2,000 frames allocates at its peak less than the
    file it writes: the writer never holds every video's lines at once."""
    rng = np.random.default_rng(7)
    if kind == "logits":
        values = [LogitSequence(f"video{i:02d}", rng.normal(size=(2000, 7)), labels=rng.integers(1, 8, size=2000))
                  for i in range(20)]
    else:
        values = [PhaseTimeline(f"video{i:02d}", rng.integers(1, 8, size=2000)) for i in range(20)]
    save = WRITERS[kind][0]
    path = tmp_path / "f.csv"
    tracemalloc.start()
    try:
        save(values, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


def test_error_names_line_beyond_several_blocks(tmp_path):
    path = tmp_path / "gt.csv"
    rows = [f"v,{i},{1 + i % 7}" for i in range(4998)]
    path.write_text("\n".join(["video_id,frame_idx,phase", *rows, "v,4998,9"]) + "\n")
    with pytest.raises(ValueError) as err:
        load_timelines(path)
    assert str(err.value) == f"{path}:5000: phase 9 outside [1, 7]"


def test_label_beyond_int64_names_line(tmp_path):
    path = tmp_path / "baseline.csv"
    path.write_text("video_id,frame_idx,label,z1,z2\nv,0,1,0.5,0.1\nv,1,99999999999999999999,0.5,0.1\n")
    with pytest.raises(ValueError) as err:
        load_logits(path)
    assert str(err.value) == f"{path}:3: label 99999999999999999999 outside [0, 7]"


@pytest.mark.parametrize("load, header, row", [
    pytest.param(load_timelines, workflow.TIMELINE_HEADER, "v,{},1", id="timeline"),
    pytest.param(load_logits, "video_id,frame_idx,label,z1,z2", "v,{},1,0.5,-0.5", id="logits"),
    pytest.param(load_traces, TRACE_HEADER, "v,{},baseline,1,0.5,1", id="trace"),
])
@pytest.mark.parametrize("bad_line", [3, 5000])
def test_byte_not_utf8_names_file_and_line(tmp_path, load, header, row, bad_line):
    """Lines end in \r\n and \r, and line 5,000 lies past the first read block."""
    path = tmp_path / "f.csv"
    rows = [row.format(i).encode() for i in range(bad_line - 1)]
    rows[-1] = rows[-1][:-1] + b"\xff"
    path.write_bytes(b"\r\n".join([header.encode(), *rows[:-1]]) + b"\r" + rows[-1] + b"\n")
    with pytest.raises(ValueError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}:{bad_line}: 'utf-8' codec can't decode byte 0xff")


# ---------------------------------------------------------------- differential

def _float_cell():
    return st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def _table(draw, kind):
    """(header, rows): the rows of a valid file, each a list of cell strings,
    with videos interleaved."""
    order = draw(st.lists(st.sampled_from(["a", "b", "v10"]), min_size=1, max_size=14))
    if kind == "timeline":
        header = workflow.TIMELINE_HEADER
        rest = st.tuples(st.integers(1, 7).map(str))
    elif kind == "logits":
        k = draw(st.integers(2, 4))
        header = "video_id,frame_idx,label," + ",".join(f"z{i}" for i in range(1, k + 1))
        labeled = draw(st.booleans())
        label = st.integers(1, 7).map(str) if labeled else st.just("0")
        rest = st.tuples(label, *[_float_cell()] * k)
    else:
        header = "video_id,frame_idx,model,state,confidence,prediction"
        conf = st.floats(0, 1).map(repr) if draw(st.booleans()) else st.just("")
        rest = st.tuples(st.sampled_from(MODELS), st.integers(1, 7).map(str), conf, st.integers(1, 7).map(str))
    seen: dict[str, int] = {}
    rows = []
    for vid in order:
        rows.append([vid, str(seen.get(vid, 0)), *draw(rest)])
        seen[vid] = seen.get(vid, 0) + 1
    return header, rows


def _corrupt(draw, rows):
    """Damage one cell or row of ``rows`` in place, or leave them valid."""
    how = draw(st.sampled_from(["none", "drop", "extra", "cell", "frame", "formfeed", "respell"]))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    col = draw(st.integers(2, len(row) - 1))
    if how == "drop":
        row.pop()
    elif how == "extra":
        row.append("1")
    elif how == "cell":
        row[col] = draw(st.sampled_from(BAD_CELLS))
    elif how == "frame":
        row[1] = str(int(row[1]) + draw(st.sampled_from([-1, 1, 2])))
    elif how == "formfeed":
        at = draw(st.integers(0, len(row[col])))
        row[col] = row[col][:at] + "\x0c" + row[col][at:]
    elif how == "respell":  # frame_idx, label, phase, state or prediction: the cells of digits alone
        col = draw(st.sampled_from([j for j in range(1, len(row)) if row[j].isdigit()]))
        row[col] = draw(st.sampled_from(RESPELLINGS))(row[col])


@st.composite
def _file_text(draw, kind):
    header, rows = draw(_table(kind))
    _corrupt(draw, rows)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    filler = st.sampled_from(["", "   ", "# note", "#a,0,1", "\t"])
    lines = [*draw(st.lists(filler, max_size=2)), header]
    for row in rows:
        lines.extend(draw(st.lists(filler, max_size=1)))
        pad = draw(st.sampled_from(["", " ", "\t", "\x0c"]))
        lines.append(pad + ",".join(row) + draw(st.sampled_from(["", " ", "\t"])))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


def _outcome(load, path):
    try:
        return "ok", load(path)
    except Exception as exc:  # the exception type and message must both agree
        return type(exc).__name__, str(exc)


def _normalized(kind, loaded):
    if kind == "timeline":
        return {v: t.labels.tolist() for v, t in loaded.items()}
    if kind == "logits":
        return {v: (s.logits.shape, s.logits.tobytes(), None if s.labels is None else s.labels.tolist())
                for v, s in loaded.items()}
    return {v: tuple(map(tuple, getattr(t, "records", t))) for v, t in loaded.items()}


LOADERS = {
    "timeline": (load_timelines, oracle_load_timelines),
    "logits": (load_logits, oracle_load_logits),
    "trace": (load_traces, oracle_load_traces),
}


@pytest.mark.parametrize("kind", list(LOADERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_block_reader_matches_row_reader(kind, data, tmp_path_factory):
    load, oracle = LOADERS[kind]
    path = tmp_path_factory.mktemp(kind) / "f.csv"
    path.write_bytes(data.draw(_file_text(kind)).encode("utf-8"))
    _assert_blocks_match(kind, load, path, _outcome(oracle, path))


def _assert_blocks_match(kind, load, path, expected):
    """``load(path)`` at block sizes 1, 3 and the default has the outcome ``expected``."""
    for block in (1, 3, workflow.READ_BLOCK_LINES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(workflow, "READ_BLOCK_LINES", block)
            got = _outcome(load, path)
        assert got[0] == expected[0], (block, got, expected)
        if got[0] == "ok":
            assert _normalized(kind, got[1]) == _normalized(kind, expected[1]), block
        else:
            assert got[1] == expected[1], block


@pytest.mark.parametrize("bad_frame", [None, 30])
def test_frames_past_the_canonical_cap_match_row_reader(tmp_path, monkeypatch, bad_frame):
    """Past CANONICAL_FRAMES_MAX, frame_idx cells are parsed with int(), and
    the cache of canonical cells never grows beyond the cap."""
    monkeypatch.setattr(workflow, "CANONICAL_FRAMES_MAX", 5)
    monkeypatch.setattr(workflow, "_frame_cells", [])
    rows = [f"v,{i},{1 + i % 7},{i / 7!r},-0.5" for i in range(40)] + [f"w,{i},0,0.25,{i}.5" for i in range(9)]
    if bad_frame is not None:
        rows[bad_frame] = rows[bad_frame].replace(f"v,{bad_frame},", f"v,{bad_frame + 1},")
    path = tmp_path / "long.csv"
    path.write_text("\n".join(["video_id,frame_idx,label,z1,z2", *rows]) + "\n")
    expected = _outcome(oracle_load_logits, path)
    assert expected[0] == ("ok" if bad_frame is None else "ValueError")
    _assert_blocks_match("logits", load_logits, path, expected)
    assert workflow._frame_cells == ["0", "1", "2", "3", "4"]


class TestArtifacts:
    """What ``pipeline`` and ``calibrate`` write is plain text: no numpy
    scalar repr anywhere, and every cell of a numeric CSV column a float."""

    TEXT_COLUMNS = {"video_id", "model"}

    def test_text_artifacts_hold_plain_numbers(self, tmp_path):
        run = tmp_path / "run"
        assert main(["pipeline", "--frames-mean", "280", "--val-videos", "1", "--test-videos", "1",
                     "--out", str(run)]) == 0
        assert main(["calibrate", "--val", str(run / "val"), "--test", str(run / "test"), "--include-bank",
                     "--out", str(tmp_path / "cal")]) == 0
        results = load_results_json(tmp_path / "cal" / "report.json")
        # a bank pair of this short split fits on a bound, and the flag is a plain 0 or 1
        flags = [results[f"calibration.bank.{pair.name}.temperature_at_bound"] for pair in all_transition_pairs()]
        assert 1 in flags and {type(flag) for flag in flags} == {int}
        files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        assert sum(p.name.startswith("reliability_") for p in files) == 4
        for path in files:
            text = path.read_text(encoding="utf-8")
            assert "np." not in text, path
            if path.suffix != ".csv":
                continue
            header, *rows = text.splitlines()
            names = header.split(",")
            for row in rows:
                for name, cell in zip(names, row.split(","), strict=True):
                    if name not in self.TEXT_COLUMNS and not (name == "confidence" and cell == ""):
                        float(cell)
