"""phasekit benchmark: times the CLI end to end on a workload and checks its output.

Usage (from the repository root):
    python3 bench/run.py --workload corpus|replay|smooth|all --seed N --seconds S --trace 0|1

Each run of a workload is a fresh child interpreter that imports
``phasekit.cli`` from ``src/`` and calls ``main`` for each of the
workload's CLI steps. Children run one at a time; with ``all`` the
workloads go round-robin in alternating order, so drift of the machine
spreads evenly over them.
With ``--trace 1`` one more run is made with spans around each layer's
public functions, and ``python -X importtime`` profiles the import.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (runs, and runs that failed a check), and
``metrics``, the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``). Lines before it give the same figures with
quartiles and sample counts, and diagnostics of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from layers import PER_LAYER, TIME_METRICS, absent_metrics, layer_metrics, median_importtime, parse_importtime
from spans import Span
from workloads import FULL, check_output, make, tree_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
# Gated end-to-end metrics. wall_s is printed too, but the seed changes how
# many frames a workload simulates or reads (by up to a fifth on smooth), so
# the rate, frames per second of wall time, is the figure that stays
# comparable across seeds.
END_TO_END = {"frames_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
UNITS = {"wall_s": "s", **END_TO_END}
DEADLINE_S = 170.0
IMPORT_PROFILES = 3
MIN_SETUPS = 3


class Runner:
    """Starts children one at a time and kills any still running at the deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def child(self, calls: list[list[str]], spans: Path | None = None) -> dict:
        """Run one child; return its result plus ``setup_s``, ``rss_mb`` and ``exit``."""
        self.count += 1
        job = self.work / f"job{self.count}.json"
        result = self.work / f"result{self.count}.json"
        job.write_text(json.dumps({"src": str(SRC), "calls": calls, "result": str(result),
                                   "spans": str(spans) if spans else None}), encoding="utf-8")
        with open(self.work / f"child{self.count}.log", "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(CHILD), str(job)], cwd=ROOT, env=child_env(),
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
            status, rusage = self._wait(proc)
        out = {"exit": status, "rss_mb": rusage.ru_maxrss / 1024.0}
        if status == 0 and result.is_file():
            out.update(json.loads(result.read_text(encoding="utf-8")))
            out["setup_s"] = out["import_done"] - spawned
        else:
            tail = (self.work / f"child{self.count}.log").read_text(errors="replace")[-2000:]
            print(f"child {self.count} exited with {status}:\n{tail}", file=sys.stderr)
        return out

    def profile_import(self) -> dict[str, float]:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import phasekit.cli"],
                              cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"import profile failed:\n{proc.stderr[-2000:]}")
        return parse_importtime(proc.stderr)

    def _wait(self, proc: subprocess.Popen):
        """Reap the child with its resource usage; kill it at the deadline or on interrupt."""
        try:
            while time.monotonic() < self.deadline:
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                time.sleep(0.005)
            else:
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, rusage


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def reference_loop_s() -> float:
    """A fixed pure-Python loop; its time tracks how fast the machine runs right now."""
    start = time.perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i % 7
    return time.perf_counter() - start


class Bench:
    """One workload's runs: inputs made once, then timed runs that must all agree."""

    def __init__(self, workload, runner: Runner, work: Path):
        self.workload = workload
        self.runner = runner
        self.data = work / f"{workload.name}-data"
        self.out = work / f"{workload.name}-out"
        self.runs: list[dict] = []
        self.traced: dict | None = None
        self.setups: list[float] = []
        self.digest: str | None = None

    def prepare(self) -> bool:
        """Make the inputs; this also warms the import path, so it is not timed."""
        calls = self.workload.prepare(self.data)
        made = self.runner.child(calls)
        if made.get("codes") != [0] * len(calls):
            print(f"{self.workload.name}: making inputs failed: {made}", file=sys.stderr)
            return False
        return True

    def setup(self) -> None:
        done = self.runner.child([])
        if "setup_s" in done:
            self.setups.append(done["setup_s"])

    def run(self, traced: Path | None = None) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        calls = self.workload.calls(self.data, self.out)
        ref = reference_loop_s()
        done = self.runner.child(calls, spans=traced)
        done["ref_loop_s"] = ref
        done["loadavg"] = os.getloadavg()[0]
        done["failure"] = self._failure(done, calls)
        if done["failure"] is None:
            done["frames"] = self.workload.frames(self.data, self.out)
        if traced is not None:
            self.traced = done
        else:
            self.runs.append(done)
            if "setup_s" in done:
                self.setups.append(done["setup_s"])
        print("diag " + json.dumps({"workload": self.workload.name, "traced": traced is not None,
                                     **{k: done.get(k) for k in ("wall_s", "frames", "setup_s", "rss_mb",
                                                                 "ref_loop_s", "loadavg", "failure")}}))
        return done

    def _failure(self, done: dict, calls: list) -> str | None:
        if done["exit"] != 0 or "codes" not in done:
            return f"child exited with {done['exit']}"
        if done["codes"] != [0] * len(calls):
            return f"CLI exit codes {done['codes']}"
        reason = check_output(self.workload, self.out)
        if reason:
            return reason
        digest = tree_digest(self.out)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return "artifact tree differs from the first run with the same seed"
        return None

    def end_to_end(self) -> dict[str, list[float]]:
        ok = [r for r in self.runs if r["failure"] is None]
        return {
            "wall_s": [r["wall_s"] for r in ok],
            "frames_per_s": [r["frames"] / r["wall_s"] for r in ok],
            "setup_s": self.setups,
            "peak_rss_mb": [r["rss_mb"] for r in ok],
        }

    def attempted(self) -> list[dict]:
        return self.runs + ([self.traced] if self.traced else [])

    def failed(self) -> int:
        return sum(r["failure"] is not None for r in self.attempted())


def measure(benches: list[Bench], runner: Runner, seconds: float) -> None:
    """Make timed runs until ``seconds`` per workload have passed.

    Each round runs every workload once, in reversed order on odd rounds.
    A further round starts only if it would end nearer to the target than
    stopping now would. At least two rounds run, so every workload is
    checked for identical output across two same-seed runs. Each run's
    child also times its own set-up; import-only children top the set-up
    samples up to ``MIN_SETUPS``.
    """
    start = time.monotonic()
    rounds = 0
    while True:
        for bench in benches if rounds % 2 == 0 else benches[::-1]:
            bench.run()
        rounds += 1
        elapsed = time.monotonic() - start
        per_round = elapsed / rounds
        if rounds >= 2 and (elapsed + per_round / 2 > seconds * len(benches)
                            or start + elapsed + per_round > runner.deadline):
            break
    for bench in benches:
        while len(bench.setups) < MIN_SETUPS:
            bench.setup()


def trace(bench: Bench, work: Path, imports: dict[str, float]) -> dict[str, float]:
    spans_path = work.parent / f"spans-{bench.workload.name}.json"
    done = bench.run(traced=spans_path)
    if not spans_path.is_file():
        return {name: 0.0 for name in PER_LAYER}
    recorded = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = [Span(*s) for s in recorded["spans"]]
    out = layer_metrics(spans, recorded["counters"], recorded["start"], recorded["end"])
    out.update(imports)
    walls = bench.end_to_end()["wall_s"]
    out["trace.overhead_frac"] = out["trace.wall_s"] / statistics.median(walls) - 1.0 if walls else 0.0
    accounted = sum(out[m] for m in (*TIME_METRICS, "cli.self_s")) / out["trace.wall_s"]
    out = {name: out[name] for name in PER_LAYER}
    print(f"{bench.workload.name}: layer self times plus cli.self_s = {accounted:.6f} of traced wall")
    if recorded["absent"]:
        print(f"{bench.workload.name}: absent functions {recorded['absent']}; "
              f"metrics {absent_metrics(recorded['absent'])} read 0")
    if recorded["uncounted"]:
        print(f"{bench.workload.name}: results of {recorded['uncounted']} could not be counted")
    if done["failure"] is None and abs(accounted - 1.0) > 0.05:
        done["failure"] = f"layer times account for {accounted:.3f} of the traced wall"
    return out


def summary(values: list[float]) -> dict:
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": version("numpy"), "scipy": version("scipy")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*FULL, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload (smoke test)")
    args = parser.parse_args(argv)
    if not (SRC / "phasekit" / "cli.py").is_file():
        print(f"error: {SRC / 'phasekit' / 'cli.py'} not found; run from a phasekit checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    names = list(FULL) if args.workload == "all" else [args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + DEADLINE_S)
    try:
        print("env " + json.dumps(environment()))
        benches = [Bench(make(name, args.seed, args.tiny), runner, work) for name in names]
        if not all(bench.prepare() for bench in benches):
            return 1
        measure(benches, runner, args.seconds)
        layers = {}
        if args.trace:
            imports = median_importtime([runner.profile_import() for _ in range(IMPORT_PROFILES)])
            layers = {b.workload.name: trace(b, work, imports) for b in benches}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for bench in benches:
        name = bench.workload.name
        prefix = "" if len(benches) == 1 else f"{name}."
        for metric, values in bench.end_to_end().items():
            s = summary(values)
            print(f"{name:7s} {metric:12s} {s['median']:12.6f} {UNITS[metric]:5s} "
                  f"q1 {s['q1']:.6f} q3 {s['q3']:.6f} n={s['n']}")
            if not args.trace and metric in END_TO_END:
                metrics[prefix + metric] = {"value": s["median"], "unit": END_TO_END[metric]}
        runs = len(bench.attempted())
        print(f"{name:7s} {'failed_frac':12s} {bench.failed() / runs:12.6f} 1     ({bench.failed()} of {runs} runs)")
        for run in bench.attempted():
            if run["failure"]:
                print(f"{name:7s} failed run: {run['failure']}")
        for metric, value in layers.get(name, {}).items():
            unit = PER_LAYER[metric][0]
            print(f"{name:7s} {metric:36s} {value:16.6f} {unit}")
            metrics[prefix + metric] = {"value": value, "unit": unit}
    attempted = sum(len(b.attempted()) for b in benches)
    failed = sum(b.failed() for b in benches)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
