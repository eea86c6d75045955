import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import oracle_ribbon_svg
from phasekit.calibration import CalibrationReport, Temperature, reliability_bins
from phasekit.metrics import evaluate_predictions
from phasekit.report import (
    cascade_results,
    load_results_json,
    pct,
    render_calibration_table,
    render_pair_table,
    render_report_text,
    render_strategy_table,
    render_table,
    ribbon_svg,
    write_reliability_csv,
    write_results_json,
)
from phasekit.metrics import CascadeReport, CascadeRun
from phasekit.workflow import PhaseTimeline, all_transition_pairs

GOLDEN = Path(__file__).parent / "golden"


class TestFormatting:
    def test_pct_two_decimals(self):
        assert pct(0.8744) == "87.44"
        assert pct(1.0) == "100.00"

    def test_pct_undefined_marker(self):
        assert pct(None) == "n/a"
        assert pct(float("nan")) == "n/a"


class TestTables:
    def test_render_table_aligns_columns(self):
        out = render_table(["Model", "Accuracy (%)"], [["baseline", "87.44"], ["x", "1.00"]], title="Accuracy")
        lines = out.splitlines()
        assert lines[0] == "Accuracy"
        assert lines[1].startswith("Model")
        assert lines[2].startswith("---")
        assert "87.44" in lines[3]

    def test_strategy_table_shape(self):
        out = render_strategy_table([
            ("baseline (argmax)", 0.8744, 0.87),
            ("transition-based", 0.8692, 0.86),
            ("confidence-based w/ calibration", 0.8802, 0.88),
        ])
        assert "87.44" in out and "86.92" in out and "88.02" in out
        assert out.splitlines()[0] == "Inference strategy comparison"

    def test_pair_table_includes_all_pairs_and_handles_undefined(self):
        accs = {pair.name: None for pair in all_transition_pairs()}
        out = render_pair_table(0.8744, accs)
        for pair in all_transition_pairs():
            assert pair.name in out
        assert out.count("n/a") == 6

    def test_calibration_table_two_rows(self):
        report = CalibrationReport(0.576, 0.402, 0.215, 0.031, Temperature(2.5))
        out = render_calibration_table(report)
        lines = out.splitlines()
        assert any(l.startswith("baseline") and "0.576" in l and "0.215" in l for l in lines)
        assert any(l.startswith("calibrated") and "0.402" in l and "0.031" in l for l in lines)


class TestRenderReportText:
    RESULTS = {
        "video.b.cascade.count": 0,
        "video.a.x.cascade.count": 1,
        "video.a.x.cascade.0.start": 3,
        "video.a.x.cascade.0.end": 9,
        "video.a.x.cascade.0.state": 2,
        "calibration.nll_before": 0.576,
        "calibration.nll_after": 0.402,
        "calibration.ece_before": 0.215,
        "calibration.ece_after": 0.031,
        "calibration.temperature": 2.5,
        "pair.trans_1_2.accuracy": 0.9,
        "accuracy.pooled": 0.8,
        "accuracy.video_mean": None,
        "strategy.baseline.accuracy.pooled": 0.85,
        "strategy.baseline.accuracy.video_mean": 0.84,
    }

    def test_blocks_in_family_order_and_cascades_in_id_order(self):
        text = render_report_text(self.RESULTS)
        heads = [block.splitlines()[0] for block in text.split("\n\n")]
        assert heads == [
            "Inference strategy comparison", "Evaluation", "2-class model accuracy on in-pair frames",
            "Confidence calibration", "cascades for a.x:", "cascades for b:",
        ]
        lines = text.splitlines()
        assert any(line.startswith("accuracy (per-video mean %)") and line.endswith(" n/a") for line in lines)
        assert ["3", "9", "2", "6"] in [line.split() for line in lines]
        assert text.endswith("cascades for b:\nNo cascade runs detected.\n")

    def test_each_family_renders_as_its_table_helper(self):
        pairs = {"trans_1_2": 0.9}
        cal = CalibrationReport(0.576, 0.402, 0.215, 0.031, Temperature(2.5))
        blocks = render_report_text(self.RESULTS).split("\n\n")
        assert blocks[0] + "\n" == render_strategy_table([("baseline (argmax)", 0.85, 0.84)])
        assert blocks[2] + "\n" == render_pair_table(0.85, pairs)
        assert blocks[3] + "\n" == render_calibration_table(cal)

    def test_pairs_without_baseline_strategy_are_the_evaluated_predictions(self):
        """An evaluate results file holds its prediction's in-pair accuracies,
        and no 2-class model's."""
        results = {k: v for k, v in self.RESULTS.items() if not k.startswith("strategy.")}
        block = render_report_text(results).split("\n\n")[1] + "\n"
        assert block == render_pair_table(None, {"trans_1_2": 0.9})
        assert block.splitlines()[0] == "Prediction accuracy on in-pair frames"
        assert "baseline" not in block and "2-class" not in block
        assert ["trans_1_2", "90.00"] in [line.split() for line in block.splitlines()]

    @pytest.mark.parametrize("key, value, message", [
        ("video.a.x.cascade.0.end", None, "no value for 'video.a.x.cascade.0.end'"),
        ("video.a.x.cascade.0.start", 3.0, "'video.a.x.cascade.0.start' must be a non-negative integer, got 3.0"),
        ("video.a.x.cascade.count", -1, "'video.a.x.cascade.count' must be a non-negative integer, got -1"),
    ])
    def test_bad_cascade_family_rejected(self, key, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            render_report_text({**self.RESULTS, key: value})


class TestResultsJson:
    def test_round_trip_and_sorted_keys(self, tmp_path):
        path = tmp_path / "results.json"
        write_results_json({"b.key": 2.5, "a.key": None}, path)
        raw = path.read_text()
        assert raw.index('"a.key"') < raw.index('"b.key"')
        assert load_results_json(path) == {"b.key": 2.5, "a.key": None}
        assert json.loads(raw)["a.key"] is None

    @pytest.mark.parametrize("content", [
        b'{"a": "0.5"}', b'{"a": true}', b'{"a": [1]}', b'{"a": {"b": 1}}', b'{"a": NaN}', b'{"a": 1e400}',
        b'{"a": 1' + b'0' * 400 + b'}', b'{"a": 1' + b'0' * 5000 + b'}', b'[1, 2]', b'"x"', b'{"a": 1',
        b'', b'{"a": "\xff"}',
    ])
    def test_rejects_all_but_a_flat_object_of_finite_numbers(self, tmp_path, content):
        path = tmp_path / "results.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ")):
            load_results_json(path)

    def test_eval_results_keys(self):
        preds = {"a": PhaseTimeline("a", [1, 2])}
        gts = {"a": PhaseTimeline("a", [1, 1])}
        flat = evaluate_predictions(preds, gts)
        assert flat["accuracy.pooled"] == 0.5
        assert flat["pair.trans_1_2.accuracy"] == 0.5
        assert flat["pair.trans_3_4.accuracy"] is None
        assert flat["phase.2.precision"] == 0.0 and flat["phase.2.recall"] is None
        assert len(flat) == 2 + 1 + 3 * 7 + 6

    def test_cascade_results_keys(self):
        report = CascadeReport((CascadeRun(3, 9, 2),))
        flat = cascade_results(report, prefix="strategy.transition")
        assert flat["strategy.transition.cascade.count"] == 1
        assert flat["strategy.transition.cascade.0.start"] == 3


class TestReliabilityCsv:
    def test_line_count_and_nan_marker(self, tmp_path):
        rng = np.random.default_rng(0)
        z = rng.normal(scale=4, size=(60, 7))
        y = rng.integers(1, 8, size=60)
        bins = reliability_bins(z, y, num_bins=12)
        path = tmp_path / "bins.csv"
        write_reliability_csv(bins, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 13
        assert lines[0] == "bin_lo,bin_hi,count,mean_confidence,accuracy"
        empty = [l for l in lines[1:] if l.split(",")[2] == "0"]
        assert all("nan" in l for l in empty)

    def test_every_cell_is_a_plain_number(self, tmp_path):
        rng = np.random.default_rng(1)
        bins = reliability_bins(rng.normal(scale=4, size=(60, 7)), rng.integers(1, 8, size=60), num_bins=15)
        path = tmp_path / "bins.csv"
        write_reliability_csv(bins, path)
        rows = [[float(cell) for cell in line.split(",")] for line in path.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] + [rows[-1][1]] == np.linspace(0.0, 1.0, 16).tolist()
        assert path.read_text().splitlines()[2].startswith("0.06666666666666667,0.13333333333333333,")


RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="24" fill="(#[0-9a-f]{6})"/>\n')


def _frame_fills(svg: str, n: int) -> dict[int, list[tuple[str, int]]]:
    """{row y: [(fill, rect number) per frame]} of a ribbon's rects, checking
    that every line from the first rect to the closing tag is a rect and
    every frame of each row is covered by exactly one of them."""
    body = "<rect" + svg.partition("<rect")[2]
    assert body.endswith("/>\n</svg>\n")
    body = body.removesuffix("</svg>\n")
    assert RECT.sub("", body) == ""
    rows: dict[int, dict[int, tuple[str, int]]] = {}
    for number, (x, y, width, fill) in enumerate(RECT.findall(body)):
        start, offset = divmod(int(x) - 90, 3)
        size, rest = divmod(int(width), 3)
        assert offset == rest == 0 and size > 0
        cells = rows.setdefault(int(y), {})
        for frame in range(start, start + size):
            assert frame not in cells, (y, frame)
            cells[frame] = (fill, number)
    assert sorted(rows) == [4, 32]
    for cells in rows.values():
        assert sorted(cells) == list(range(n))
    return {y: [cells[i] for i in range(n)] for y, cells in rows.items()}


class TestRibbonSvg:
    def test_matches_golden_file(self):
        gt = PhaseTimeline("v", [1, 1, 2, 3, 7])
        pred = PhaseTimeline("v", [1, 2, 2, 3, 6])
        assert ribbon_svg(gt, pred) == (GOLDEN / "ribbon.svg").read_text()

    def test_rect_count_is_one_per_label_run(self):
        n = 37
        constant = PhaseTimeline("v", np.ones(n, dtype=int))
        alternating = PhaseTimeline("v", 1 + np.arange(n) % 2)
        rows = _frame_fills(ribbon_svg(constant, alternating), n)
        assert [len({rect for _, rect in frames}) for frames in rows.values()] == [1, n]

    @given(st.data())
    def test_runs_paint_the_frames_the_per_frame_ribbon_paints(self, data):
        n = data.draw(st.integers(1, 60))
        labels = st.lists(st.sampled_from(data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))),
                          min_size=n, max_size=n)
        gt, pred = PhaseTimeline("v", data.draw(labels)), PhaseTimeline("v", data.draw(labels))
        svg, expected = ribbon_svg(gt, pred), oracle_ribbon_svg(gt, pred)
        assert svg.partition("<rect")[0] == expected.partition("<rect")[0]
        rows = _frame_fills(svg, n)
        fills = {y: [fill for fill, _ in frames] for y, frames in rows.items()}
        assert fills == {y: [fill for fill, _ in frames] for y, frames in _frame_fills(expected, n).items()}
        for (_, frames), timeline in zip(sorted(rows.items()), (gt, pred)):
            same_rect = [a[1] == b[1] for a, b in zip(frames, frames[1:])]
            assert same_rect == (timeline.labels[1:] == timeline.labels[:-1]).tolist()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ribbon_svg(PhaseTimeline("v", [1]), PhaseTimeline("v", [1, 2]))
