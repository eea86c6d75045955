"""The benchmark's workloads: the CLI calls each one makes and the checks on its output.

Sizes are (validation videos, test videos, mean frames per video). ``TINY``
shrinks every workload for the benchmark's own smoke test.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

OVERCONFIDENCE = 2.5
TEMPERATURE_TOLERANCE = 0.05
PAIRS = [f"trans_{i}_{i + 1}" for i in range(1, 7)]
FULL = {"corpus": (10, 20, 1800), "replay": (8, 16, 1800), "smooth": (4, 8, 1800)}
TINY = {"corpus": (3, 1, 1200), "replay": (3, 1, 1200), "smooth": (1, 1, 600)}
# The reason for each workload, as BENCHMARK.json gives it.
WHY = {
    "corpus": "pipeline at 10+20 videos x 1800 frames: simulation and logit file writes dominate",
    "replay": "calibrate, infer and evaluate on a pre-made dataset: logit reads and inference, no simulator",
    "smooth": "non-monotone pipeline with attention smoothing: the only path through attention",
}


@dataclass(frozen=True)
class Workload:
    name: str
    size: tuple[int, int, int]
    seed: int

    def prepare(self, data: Path) -> list[list[str]]:
        """Untimed CLI calls that make this workload's input files under ``data``."""
        if self.name != "replay":
            return []
        val, test, frames = self.size
        return [
            ["simulate", "--videos", str(n), "--prefix", split, "--frames-mean", str(frames),
             "--overconfidence", str(OVERCONFIDENCE), "--seed", str(self.seed + i),
             "--out", str(data / split)]
            for i, (split, n) in enumerate((("val", val), ("test", test)))
        ]

    def calls(self, data: Path, out: Path) -> list[list[str]]:
        """The timed CLI calls, writing every artifact under ``out``."""
        val, test, frames = self.size
        if self.name != "replay":
            extra = ["--no-monotone", "--attention-smooth", "30"] if self.name == "smooth" else []
            return [["pipeline", "--val-videos", str(val), "--test-videos", str(test),
                     "--frames-mean", str(frames), "--overconfidence", str(OVERCONFIDENCE),
                     "--seed", str(self.seed), *extra, "--out", str(out)]]
        bank = str(data / "test" / "bank")
        return [
            ["calibrate", "--val", str(data / "val"), "--test", str(data / "test"),
             "--include-bank", "--out", str(out / "cal")],
            ["infer", "--strategy", "transition", "--bank", bank,
             "--trace", str(out / "transition" / "trace.csv"), "--out", str(out / "transition" / "timeline.csv")],
            ["infer", "--strategy", "confidence", "--base", str(data / "test" / "baseline.csv"), "--bank", bank,
             "--temperature", "auto", "--val", str(data / "val"), "--sweep",
             "--trace", str(out / "confidence" / "trace.csv"), "--out", str(out / "confidence" / "timeline.csv")],
            *(
                ["evaluate", "--pred", str(out / s / "timeline.csv"), "--gt", str(data / "test" / "gt.csv"),
                 "--trace", str(out / s / "trace.csv"), "--out", str(out / f"eval_{s}")]
                for s in ("transition", "confidence")
            ),
        ]

    def artifacts(self) -> list[str]:
        """Files every run must leave under its output directory."""
        _, test, _ = self.size
        tests = [f"test{i:02d}" for i in range(test)]
        calibration = ["report.json", "report.txt", "reliability_before.csv", "reliability_after.csv", "config.txt"]
        if self.name == "replay":
            files = [f"cal/{f}" for f in calibration]
            for s in ("transition", "confidence"):
                files += [f"{s}/timeline.csv", f"{s}/trace.csv", f"{s}/config.txt"]
                files += [f"eval_{s}/{f}" for f in ("results.json", "evaluation.txt", "config.txt")]
                files += [f"eval_{s}/ribbon_{v}.svg" for v in tests]
            return files
        files = ["config.txt"]
        for split in ("val", "test"):
            files += [f"{split}/{f}" for f in ("gt.csv", "baseline.csv", "config.txt")]
            files += [f"{split}/bank/{p}.csv" for p in PAIRS]
        files += [f"calibration/{f}" for f in calibration]
        strategies = ("transition", "confidence_uncalibrated", "confidence_calibrated")
        files += [f"inference/{s}.csv" for s in ("baseline", *strategies)]
        files += [f"inference/{s}_trace.csv" for s in strategies] + ["inference/config.txt"]
        files += [f"evaluation/{f}" for f in ("results.json", "strategies.txt", "report.txt", "config.txt")]
        files += [f"evaluation/ribbon_{s}_{v}.svg" for s in ("transition", "confidence_calibrated") for v in tests]
        return files

    def frames(self, data: Path, out: Path) -> int:
        """Frames in the workload's input: every row of its ground-truth timelines."""
        root = data if self.name == "replay" else out
        return sum(
            sum(1 for line in (root / split / "gt.csv").open(encoding="utf-8")
                if line.strip() and not line.startswith("#")) - 1
            for split in ("val", "test")
        )

    def temperature_report(self) -> str | None:
        """The report whose fitted temperature must recover OVERCONFIDENCE.

        None on smooth: attention smoothing breaks exact calibration, so
        only finiteness is checked there.
        """
        return {"corpus": "calibration/report.json", "replay": "cal/report.json"}.get(self.name)


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    return Workload(name, (TINY if tiny else FULL)[name], seed)


def check_output(workload: Workload, out: Path) -> str | None:
    """Why ``out`` fails the workload's output checks, or None when it passes."""
    missing = [f for f in workload.artifacts() if not (out / f).is_file()]
    if missing:
        return f"missing artifact {missing[0]} ({len(missing)} missing)"
    for path in sorted(out.rglob("*.json")):
        bad = [k for k, v in _numbers(json.loads(path.read_text(encoding="utf-8"))) if not math.isfinite(v)]
        if bad:
            return f"non-finite value for {bad[0]} in {path.relative_to(out)}"
    report = workload.temperature_report()
    if report is not None:
        fitted = json.loads((out / report).read_text(encoding="utf-8"))["calibration.temperature"]
        if not abs(fitted / OVERCONFIDENCE - 1.0) <= TEMPERATURE_TOLERANCE:
            return f"fitted temperature {fitted} is more than 5% from {OVERCONFIDENCE}"
    return None


def _numbers(value, key=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _numbers(v, k)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v, key)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield key, float(value)


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
