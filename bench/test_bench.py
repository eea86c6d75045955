"""Tests of the benchmark itself. Run: python -m pytest bench

The smoke tests run every workload at a tiny size, untraced and traced,
and take about a minute on 2 cores.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from layers import MODULES, PER_LAYER, absent_metrics, install, parse_importtime
from run import END_TO_END
from spans import Span, SpanRecorder, self_times, untraced_time
from workloads import WHY

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_self_time_subtracts_children_only():
    spans = [
        Span("a", 0.0, 10.0, None, False),
        Span("b", 1.0, 4.0, 0, False),
        Span("c", 5.0, 9.0, 0, False),
        Span("d", 6.0, 7.0, 2, False),
        Span("e", 11.0, 11.5, None, False),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0, 0.5])
    glue = untraced_time(0.0, 12.0, spans)
    assert glue == pytest.approx(1.5)
    assert sum(self_times(spans)) + glue == pytest.approx(12.0)


def test_recorder_links_parents_and_marks_errors():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))

    def fail():
        raise ValueError("bad")

    inner = recorder.wrap("inner", lambda x: x + 1, count=lambda a, k, r: {"seen": r})
    failing = recorder.wrap("failing", fail)

    def body():
        inner(1)
        with pytest.raises(ValueError):
            failing()
        return inner(2)

    assert recorder.wrap("outer", body)() == 3
    spans = [Span(*s) for s in recorder.spans]
    assert [(s.name, s.parent, s.error) for s in spans] == [
        ("outer", None, False), ("inner", 0, False), ("failing", 0, True), ("inner", 0, False),
    ]
    assert all(s.start < s.end for s in spans)
    assert recorder.counters == {"seen": 5}


def test_importtime_counts_outermost_entries_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:       200 |        250 |   scipy",
        "import time:       300 |        300 |   scipy.stats",
        "import time:        10 |        660 | phasekit",
        "import time:        40 |         40 | phasekit.cli",
        "import time:         5 |          5 | json",
    ])
    assert parse_importtime(stderr) == pytest.approx({"import.phasekit_s": 700e-6, "import.scipy_s": 550e-6})


def test_install_wraps_reimported_names_and_reports_deleted_ones(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import phasekit.cli
    import phasekit.inference
    import phasekit.logits

    original = phasekit.logits.load_logits
    monkeypatch.delattr(phasekit.inference, "load_traces")
    for module, name in [(phasekit.logits, "load_logits"), (phasekit.cli, "load_logits"), (phasekit, "load_logits")]:
        monkeypatch.setattr(module, name, original)
    absent = install(SpanRecorder())
    assert absent == ["inference.load_traces"]
    assert absent_metrics(absent) == ["inference.trace_load_s"]
    assert phasekit.cli.load_logits is phasekit.logits.load_logits is phasekit.load_logits
    assert phasekit.cli.load_logits.__wrapped__ is original


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY


def _run(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["corpus", "replay", "smooth"])
def test_tiny_run_reports_every_metric_with_its_unit(workload):
    result = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--tiny", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())

    traced = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--tiny", "--trace", "1")
    assert traced["correct"] and traced["failed"] == 0
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {k: u for k, (u, _) in PER_LAYER.items()}
    assert (layers["attention.calls"] > 0) == (workload == "smooth")
    assert (layers["simulate.self_s"] > 0) == (workload != "replay")
    assert (layers["inference.sweep_s"] > 0) == (workload == "replay")
    assert all(layers[f"{m}.errors"] == 0 for m in MODULES)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
