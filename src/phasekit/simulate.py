"""Synthetic seven-phase workflow generator: ground-truth timelines plus
baseline and transition-model logit streams with controllable accuracy and
miscalibration.

The baseline generator uses a Gaussian class-contest construction: for a frame
with true phase y it draws a feature x = m*e_y + eps (eps standard normal) and
emits logits z = m*x + log(prior). Under that generative story softmax(z) is
the exact posterior of y given x, so the logits are NLL-optimal at temperature
1; multiplying them by an overconfidence factor T* makes T* the recoverable
true temperature. The margin m is solved numerically so that the argmax
accuracy P(m + e_y > max of K-1 rival normals) hits the requested target.

Boundary jitter moves errors toward phase changes: frames within the jitter
window of a change get a doubled error rate (capped so the sequence-level
target is preserved) and interior frames absorb the slack. Each group keeps
its own empirical label prior so the exact-calibration property survives the
split.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.hermite_e import hermegauss

from .attention import scaled_dot_attention
from .logits import LogitSequence, TransitionLogitBank, save_bank, save_logits, softmax
from .workflow import (
    NUM_PHASES,
    PhaseTimeline,
    all_transition_pairs,
    save_timelines,
    segment_boundaries,
)

# Margin used when a group is noiseless (accuracy target exactly 1): large
# enough that the argmax never flips, small enough that confidences stay
# strictly below 1 in float64.
_NOISELESS_MARGIN = 4.0

DEFAULT_PAIR_ACCURACY = (0.9604, 0.9519, 0.9471, 0.9785, 0.9348, 0.8347)

# Probabilists' Gauss-Hermite rule (Abramowitz & Stegun 25.4.46), weights
# normalised so that sum(w * f(u)) approximates E[f(u)] for u ~ N(0, 1).
_GH_NODES, _GH_WEIGHTS = hermegauss(96)
_GH_RULE = tuple(zip(_GH_NODES.tolist(), (_GH_WEIGHTS / math.sqrt(2.0 * math.pi)).tolist()))


@dataclass(frozen=True)
class WorkflowSpec:
    """Dwell-time model for the seven-phase workflow at 1 fps.

    ``dwell_mean`` (cast to float) and ``dwell_min`` (cast to int) are shared
    by all seven phases. The default mode is monotone: phases 1..7 once each,
    in order.
    """

    dwell_mean: float = 257.0
    dwell_min: int = 60
    monotone: bool = True

    def __post_init__(self):
        object.__setattr__(self, "dwell_mean", float(self.dwell_mean))
        object.__setattr__(self, "dwell_min", int(self.dwell_min))
        if not math.isfinite(self.dwell_mean):
            raise ValueError(f"dwell_mean must be finite, got {self.dwell_mean}")
        if self.dwell_min < 1:
            raise ValueError("dwell_min must be >= 1")
        if self.dwell_mean < self.dwell_min:
            raise ValueError("dwell_mean must be >= dwell_min")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise and miscalibration knobs for the synthetic logit streams."""

    base_accuracy_target: float = 0.85
    pairwise_accuracy_target: tuple[float, ...] = DEFAULT_PAIR_ACCURACY
    overconfidence: float = 2.5
    boundary_jitter: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if not (1.0 / NUM_PHASES < self.base_accuracy_target <= 1.0):
            raise ValueError(
                f"base_accuracy_target must lie in (1/{NUM_PHASES}, 1], got {self.base_accuracy_target}"
            )
        pairs = self.pairwise_accuracy_target
        if isinstance(pairs, (int, float)):
            pairs = (float(pairs),) * (NUM_PHASES - 1)
        pairs = tuple(float(p) for p in pairs)
        if len(pairs) != NUM_PHASES - 1:
            raise ValueError(f"pairwise_accuracy_target needs {NUM_PHASES - 1} entries")
        for i, p in enumerate(pairs):
            if not (0.5 < p <= 1.0):
                raise ValueError(f"pairwise target {i} must lie in (0.5, 1], got {p}")
        object.__setattr__(self, "pairwise_accuracy_target", pairs)
        if not (math.isfinite(self.overconfidence) and self.overconfidence >= 1.0):
            raise ValueError(f"overconfidence must be finite and >= 1, got {self.overconfidence}")
        if self.boundary_jitter < 0:
            raise ValueError("boundary_jitter must be >= 0")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@functools.lru_cache(maxsize=1024)
def _margin_for_accuracy(target: float, num_classes: int) -> float:
    """Solve P(m + e0 > max of K-1 iid standard normals) = target for m.

    Memoized: a corpus asks for a few dozen distinct (target, K) pairs many
    times over, and each K > 2 solve is a 38-step bisection in Python."""
    rivals = num_classes - 1
    if rivals == 1:
        return math.sqrt(2.0) * statistics.NormalDist().inv_cdf(target)

    def accuracy(m: float) -> float:
        # E[Phi(m + u)^(K-1)] with Phi(x) = erfc(-x / sqrt 2) / 2
        return sum(w * (0.5 * math.erfc(-(m + u) / math.sqrt(2.0))) ** rivals for u, w in _GH_RULE)

    lo, hi = 0.0, 16.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if accuracy(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _dwell(spec: WorkflowSpec, rng: np.random.Generator) -> int:
    """One phase dwell: dwell_min plus a shifted-geometric tail with the
    configured mean."""
    mean, mn = spec.dwell_mean, spec.dwell_min
    if mean <= mn:
        return mn
    return mn + int(rng.geometric(1.0 / (1.0 + mean - mn))) - 1


def generate_ground_truth(spec: WorkflowSpec, seed, video_id: str = "sim") -> PhaseTimeline:
    """Draw a ground-truth timeline.

    Monotone mode visits phases 1..7 once, in order. Non-monotone mode may
    step back one phase after a dwell (15% chance away from the endpoints)
    and ends when a dwell at phase 7 completes. The same seed always yields
    the identical timeline.
    """
    rng = np.random.default_rng(seed)
    if spec.monotone:
        lengths = [_dwell(spec, rng) for _ in range(NUM_PHASES)]
        labels = np.repeat(np.arange(1, NUM_PHASES + 1), lengths)
        return PhaseTimeline(video_id, labels)
    chunks = []
    phase = 1
    while True:
        chunks.append(np.full(_dwell(spec, rng), phase, dtype=np.int64))
        if phase == NUM_PHASES:
            break
        if phase > 1 and rng.random() < 0.15:
            phase -= 1
        else:
            phase += 1
    return PhaseTimeline(video_id, np.concatenate(chunks))


def boundary_mask(gt: PhaseTimeline, jitter: int) -> np.ndarray:
    """Frames within ``jitter`` of a phase change (the window straddles the
    change point: frames b-jitter .. b+jitter-1 for a change at frame b)."""
    n = len(gt)
    mask = np.zeros(n, dtype=bool)
    if jitter <= 0:
        return mask
    for b, _, _ in segment_boundaries(gt):
        mask[max(0, b - jitter):min(n, b + jitter)] = True
    return mask


def _group_error_rates(e_target: float, n_total: int, n_boundary: int) -> tuple[float, float]:
    """Split a sequence-level error rate into (interior, boundary) rates.

    Boundary frames get double the target rate, capped so interior frames can
    absorb the remainder; the mixture always equals the target.
    """
    n_interior = n_total - n_boundary
    if n_boundary == 0 or e_target == 0.0:
        return e_target, e_target
    e_max = (NUM_PHASES - 1) / NUM_PHASES
    e_bd = min(2.0 * e_target, n_total * e_target / n_boundary, e_max)
    if n_interior == 0:
        return 0.0, e_target
    e_in = (n_total * e_target - n_boundary * e_bd) / n_interior
    return max(e_in, 0.0), e_bd


def _smoothed_prior(labels: np.ndarray, num_classes: int) -> np.ndarray:
    counts = np.bincount(labels - 1, minlength=num_classes).astype(np.float64) + 0.5
    return counts / counts.sum()


def _contest_logits(
    labels: np.ndarray,
    accuracy: float,
    num_classes: int,
    rng: np.random.Generator,
    with_prior: bool = True,
) -> np.ndarray:
    """Gaussian class-contest logits for one frame group (see module docstring)."""
    n = labels.size
    onehot = np.eye(num_classes)[labels - 1]
    if accuracy >= 1.0:
        return _NOISELESS_MARGIN ** 2 * onehot
    m = _margin_for_accuracy(round(accuracy, 12), num_classes)
    x = m * onehot + rng.standard_normal((n, num_classes))
    z = m * x
    if with_prior:
        z = z + np.log(_smoothed_prior(labels, num_classes))
    return z


def generate_baseline_logits(gt: PhaseTimeline, noise: NoiseSpec) -> LogitSequence:
    """K=7 logits whose argmax accuracy converges to the configured target,
    calibrated at T=1 and then multiplied by the overconfidence factor.

    Errors concentrate within ``boundary_jitter`` frames of phase changes;
    each group (interior/boundary) keeps its own label prior so the scaled
    logits stay recoverable by a temperature fit.
    """
    rng = np.random.default_rng([noise.rng_seed, 1])
    labels = gt.labels
    n = labels.size
    mask = boundary_mask(gt, noise.boundary_jitter)
    e_in, e_bd = _group_error_rates(1.0 - noise.base_accuracy_target, n, int(mask.sum()))
    z = np.empty((n, NUM_PHASES), dtype=np.float64)
    for group_mask, err in ((~mask, e_in), (mask, e_bd)):
        if not group_mask.any():
            continue
        z[group_mask] = _contest_logits(labels[group_mask], 1.0 - err, NUM_PHASES, rng)
    z *= noise.overconfidence
    return LogitSequence(gt.video_id, z, labels=labels)


def generate_transition_bank(gt: PhaseTimeline, noise: NoiseSpec) -> TransitionLogitBank:
    """2-class logits per neighboring pair.

    On frames whose ground truth lies in the pair, the binary argmax matches
    it with exactly the pair's accuracy target. On all other frames the
    argmax deterministically points at the nearer endpoint of the pair.
    """
    rng = np.random.default_rng([noise.rng_seed, 2])
    labels = gt.labels
    n = labels.size
    by_pair = {}
    for pair, target in zip(all_transition_pairs(), noise.pairwise_accuracy_target):
        in_pair = (labels == pair.low) | (labels == pair.high)
        # column index of the frame's target class: ground truth in-pair,
        # nearer endpoint off-pair
        col = np.where(labels >= pair.high, 1, 0)
        z = _NOISELESS_MARGIN ** 2 * np.eye(2)[col]
        if target < 1.0 and in_pair.any():
            z[in_pair] = _contest_logits(col[in_pair] + 1, target, 2, rng, with_prior=False)
        by_pair[pair] = LogitSequence(gt.video_id, z, labels=labels)
    return TransitionLogitBank({gt.video_id: by_pair})


def attention_smooth(seq: LogitSequence, window: int) -> LogitSequence:
    """Structured-logit mode: re-express each frame through the attention
    kernel over a trailing window of logit rows.

    Each row becomes the attention output of its own logits (query) against
    the window's logits (keys and values). This temporally smooths the stream;
    it is a diagnostic mode and intentionally breaks the exact-calibration
    property of the raw generator.

    There are two paths, and both are bit-identical to one
    ``scaled_dot_attention`` call per frame. The first ``window - 1`` frames
    have short windows and make exactly that call. All later frames have
    full windows and are computed together over a copy-free sliding window
    view: scores and outputs are stacked matmuls, and the row softmax is the
    kernel's own ``softmax``.

    No two rows' dot product exceeds the larger of their squared norms, and
    every window holds its own frame, so the scores overflow (up to
    rounding) just when some row's squared norm does; that raises
    ValueError before any score is computed.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    z = seq.logits
    n, k = z.shape
    with np.errstate(over="ignore"):
        if not np.isfinite(np.square(z).sum(axis=1)).all():
            raise ValueError(f"attention scores overflow in video {seq.video_id!r}: its logits reach "
                             f"{np.abs(z).max():.3g}, whose squares pass the float64 range")
    out = np.empty_like(z)
    for t in range(min(n, window - 1)):
        out[t] = scaled_dot_attention(z[t:t + 1], z[:t + 1], z[:t + 1])[0]
    if n >= window:
        win = sliding_window_view(z, window, axis=0)  # (n - window + 1, K, window)
        scores = (z[window - 1:, None, :] @ win)[:, 0, :] / math.sqrt(k)
        weights = softmax(scores)
        out[window - 1:] = (weights[:, None, :] @ win.transpose(0, 2, 1))[:, 0, :]
    return LogitSequence(seq.video_id, out, labels=seq.labels)


def derive_video_seed(master_seed: int, index: int) -> int:
    """Stable per-video child seed from a master seed."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class SimulatedVideo:
    ground_truth: PhaseTimeline
    baseline: LogitSequence
    bank: TransitionLogitBank


def simulate_video(
    workflow: WorkflowSpec,
    noise: NoiseSpec,
    video_id: str,
    index: int = 0,
    smoothing_window: int = 0,
) -> SimulatedVideo:
    """Generate one video's ground truth, baseline logits, and bank.

    The per-video seed is derived from noise.rng_seed and ``index`` so that
    multiple videos are independent yet reproducible.
    """
    child = derive_video_seed(noise.rng_seed, index)
    child_noise = replace(noise, rng_seed=child)
    gt = generate_ground_truth(workflow, [child, 0], video_id=video_id)
    baseline = generate_baseline_logits(gt, child_noise)
    if smoothing_window > 0:
        baseline = attention_smooth(baseline, smoothing_window)
    bank = generate_transition_bank(gt, child_noise)
    return SimulatedVideo(gt, baseline, bank)


def simulate_videos(
    num_videos: int,
    workflow: WorkflowSpec,
    noise: NoiseSpec,
    id_prefix: str = "video",
    smoothing_window: int = 0,
) -> list[SimulatedVideo]:
    """Simulate videos ``<id_prefix>00``, ``<id_prefix>01``, ... in memory."""
    if num_videos < 1:
        raise ValueError("num_videos must be >= 1")
    return [
        simulate_video(workflow, noise, f"{id_prefix}{i:02d}", index=i, smoothing_window=smoothing_window)
        for i in range(num_videos)
    ]


def save_dataset(videos: list[SimulatedVideo], out_dir) -> None:
    """Write simulated videos as a dataset directory: ``gt.csv`` (timelines),
    ``baseline.csv`` (K=7 logits) and ``bank/trans_<i>_<i+1>.csv``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_timelines([v.ground_truth for v in videos], out_dir / "gt.csv")
    save_logits([v.baseline for v in videos], out_dir / "baseline.csv")
    save_bank(TransitionLogitBank.merge([v.bank for v in videos]), out_dir / "bank")


def generate_dataset(
    out_dir,
    num_videos: int,
    workflow: WorkflowSpec,
    noise: NoiseSpec,
    id_prefix: str = "video",
    smoothing_window: int = 0,
) -> list[SimulatedVideo]:
    """Simulate ``num_videos`` videos and write them as a dataset directory
    (see save_dataset). Nothing is written unless every video simulates.
    Returns the written videos, in file order.
    """
    videos = simulate_videos(num_videos, workflow, noise, id_prefix, smoothing_window)
    save_dataset(videos, out_dir)
    return videos
