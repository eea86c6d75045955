"""The job queue that parses input files, fits on what it parsed, simulates
videos and writes dataset files: this process and one forked child claim
zero-argument jobs from one pipe (see _shared). It imports only the
standard library.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from contextlib import contextmanager


class _ChildTraceback(Exception):
    """The formatted traceback of an exception raised in a forked child,
    chained as the cause of that exception when the parent re-raises it."""


class _Outcome:
    """What a call did: its value or the exception it raised, kept so that
    ``get`` can give it later, in the place a serial run has it, and in
    another process."""

    text = None  # the traceback of an error raised in a forked child

    def __init__(self, call):
        try:
            self.value, self.error = call(), None
        except Exception as exc:
            self.value, self.error = None, exc

    def get(self):
        """Return the call's value or raise its error."""
        if self.error is None:
            return self.value
        if self.text is None:
            raise self.error
        raise self.error from _ChildTraceback(self.text)


_CLAIMS = 256  # one byte a claim


def _claim(jobs, claims) -> dict:
    """Run the jobs of each claim this process reads from ``claims`` until it
    is empty, claim b being jobs b, b + _CLAIMS, ...: {index: its _Outcome}."""
    done = {}
    while claimed := claims.read(1):
        for i in range(claimed[0], len(jobs), _CLAIMS):
            done[i] = _Outcome(jobs[i])
    return done


def _one_cpu() -> bool:
    """Whether this process may run on one CPU only (unknown counts as more)."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) == 1


@contextmanager
def _shared(jobs):
    """Run the zero-argument ``jobs`` in this process and one forked child,
    which take claims (see _claim) from one queue in order, so a caller lists
    its largest jobs first. Yields a list that holds the results in job order
    once the block has exited.

    The child claims from the start; this process runs the block, then claims
    what is left, even when the block raised, and reaps the child. Every job
    runs once, in the process that claimed it, and a warning is issued in
    that process. In job order, each job's result is taken up to the first
    failed job, whose error is raised: the one a serial run raises. It replaces any
    exception of the block, chained to the child's traceback if the child
    raised it. The child's death is a ChildProcessError. The child ends with
    ``os._exit``, so it never flushes this process's buffers or runs its exit
    handlers. Where ``os.fork`` does not exist or this process has one CPU,
    every job runs first, inline, and the results are taken as above.
    """
    results = []
    if not hasattr(os, "fork") or _one_cpu():
        done = list(map(_Outcome, jobs))
        try:
            yield results
        finally:
            results.extend(outcome.get() for outcome in done)
        return
    queue, fill = os.pipe()  # each byte in the pipe is one claim, taken by one reader
    with open(queue, "rb", buffering=0) as claims:
        with open(fill, "wb") as pipe:
            pipe.write(bytes(range(min(len(jobs), _CLAIMS))))
        read_fd, write_fd = os.pipe()
        with open(read_fd, "rb") as sent:
            with open(write_fd, "wb") as pipe:
                pid = os.fork()
                if pid == 0:  # the child
                    status = 1
                    try:
                        theirs = _claim(jobs, claims)
                        for outcome in theirs.values():
                            if outcome.error is not None:
                                import traceback  # here, so that importing this module loads no module for it
                                outcome.text = "".join(traceback.format_exception(outcome.error))
                        pickle.dump(theirs, pipe, protocol=5)
                        pipe.close()
                        status = 0
                    finally:
                        os._exit(status)
            try:
                yield results
            finally:
                try:
                    done = _claim(jobs, claims)
                finally:
                    try:  # streamed, not read whole, so one copy of the child's results is held
                        theirs = pickle.load(sent)  # the child's own bytes, so this is safe
                    except Exception:  # a child that died sent at most part of them
                        theirs = None
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code < 0:
                    import signal
                    raise ChildProcessError(f"child process {pid} was killed by {signal.Signals(-code).name}")
                if code or theirs is None:
                    raise ChildProcessError(f"child process {pid} exited with status {code}")
                done.update(theirs)
                results.extend(done[i].get() for i in range(len(jobs)))


def _results(jobs) -> deque:
    """The results of the ``jobs`` (see _shared), in job order. Taking each
    from the left lets go of it, so memory is freed as it is used."""
    with _shared(list(jobs)) as results:
        pass
    return deque(results)

