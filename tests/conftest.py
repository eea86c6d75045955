import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("default", deadline=None, max_examples=60)
settings.load_profile("default")

from phasekit.logits import LogitSequence, TransitionLogitBank
from phasekit.workflow import PhaseTimeline, all_transition_pairs


def binary_rows(choices) -> np.ndarray:
    """K=2 logit rows whose argmax is column 0 (value 0) or column 1 (value 1)."""
    rows = np.zeros((len(choices), 2))
    for i, c in enumerate(choices):
        rows[i, c] = 3.0
    return rows


def bank_from_argmax(video_id: str, per_pair_argmax: dict, n_frames: int) -> TransitionLogitBank:
    """Build a bank whose binary argmax per pair follows ``per_pair_argmax``.

    Values are phase-label sequences; pairs not listed default to their low
    phase. Used to hand-construct inference scenarios.
    """
    by_pair = {}
    for pair in all_transition_pairs():
        labels = per_pair_argmax.get(pair.name)
        if labels is None:
            cols = [0] * n_frames
        else:
            cols = [0 if l == pair.low else 1 for l in labels]
        by_pair[pair] = LogitSequence(video_id, binary_rows(cols))
    return TransitionLogitBank({video_id: by_pair})


def proximity_bank(video_id: str, gt: PhaseTimeline, override: dict | None = None) -> TransitionLogitBank:
    """Bank that follows the ground truth (nearer endpoint off-pair), with
    optional per-pair constant overrides for adversarial scenarios."""
    override = override or {}
    per_pair = {}
    for pair in all_transition_pairs():
        if pair.name in override:
            labels = [override[pair.name]] * len(gt)
        else:
            labels = [min(max(int(p), pair.low), pair.high) for p in gt.labels]
        per_pair[pair.name] = labels
    return bank_from_argmax(video_id, per_pair, len(gt))


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, still running or
    exited but not reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({f'pid {pid}, now reaped' if pid else 'still running'})")


@pytest.fixture
def cascade_scenario():
    """Ground truth climbing 1..7 with trans_2_3 pinned at phase 2, which
    locks the buffer majority at 2 and starves every later model."""
    from phasekit.workflow import PhaseTimeline

    gt = PhaseTimeline("cascade", np.repeat(np.arange(1, 8), 50))
    bank = proximity_bank("cascade", gt, override={"trans_2_3": 2})
    return gt, bank
