"""One benchmark child: a fresh interpreter that imports phasekit.cli and runs CLI calls.

Usage: python bench/child.py JOB.json

JOB is a JSON object with
  "src":    the directory phasekit must be imported from,
  "calls":  argument lists, each passed to ``phasekit.cli.main`` in order,
            stopping at the first nonzero exit code,
  "result": where to write this child's timings,
  "spans":  (optional) run traced and write the spans here.

The result holds ``import_done`` (``time.monotonic()`` once phasekit.cli is
imported, so the parent can time set-up from its own spawn), ``wall_s``
(from the end of import until the last call returned) and ``codes``.
"""

import json
import sys
import time
from pathlib import Path


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    import phasekit.cli

    import_done = time.monotonic()
    if Path(phasekit.cli.__file__).resolve().parent.parent != Path(job["src"]).resolve():
        print(f"phasekit was imported from {phasekit.cli.__file__}, not {job['src']}", file=sys.stderr)
        return 3
    recorder = None
    absent = []
    if job.get("spans"):
        from layers import install
        from spans import SpanRecorder

        recorder = SpanRecorder()
        absent = install(recorder)
    start = time.perf_counter()
    codes = []
    for argv in job["calls"]:
        codes.append(phasekit.cli.main(argv))
        if codes[-1] != 0:
            break
    end = time.perf_counter()
    if recorder is not None:
        trace = {"start": start, "end": end, "spans": recorder.spans,
                 "counters": recorder.counters, "absent": absent, "uncounted": sorted(recorder.uncounted)}
        Path(job["spans"]).write_text(json.dumps(trace), encoding="utf-8")
    result = {"import_done": import_done, "wall_s": end - start, "codes": codes}
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
