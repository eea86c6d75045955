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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .attention import scaled_dot_attention
from .fork import _results
from .logits import LogitSequence, TransitionLogitBank, bank_layout, save_logits, softmax
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


# The probabilists' Gauss-Hermite rule of 96 nodes (Abramowitz & Stegun
# 25.4.46) as (node, weight) pairs in ascending node order, weights normalised
# so that sum(w * f(u)) approximates E[f(u)] for u ~ N(0, 1). It is data: the
# 48 positive nodes and their weights are the repr of numpy's hermegauss(96),
# weights divided by sqrt(2 pi), and the negative half mirrors them exactly,
# as hermegauss symmetrises its own. So no process builds the rule or makes a
# LAPACK call, and its bits do not depend on the numpy at hand.
_GH_NODES = (
    0.1599035480351621, 0.4797530272721122, 0.7997298022200148, 1.1199192255308021, 1.4404073883134991,
    1.7612814260056506, 2.082629834989802, 2.4045428034012715, 2.7271125598734236, 3.050433744354203,
    3.374603805617098, 3.6997234306995206, 4.025897012255864, 4.353233160742004, 4.6818452694924995,
    5.011852142162335, 5.343378693747909, 5.676556738563255, 6.011525881239924, 6.348434530191148,
    6.687441057230372, 7.0287151324257815, 7.3724392701639925, 7.718810631277005, 8.068043137632507,
    8.420369970742689, 8.776046546046572, 9.135354081480578, 9.498603915558515, 9.866142780555059,
    10.23835930672317, 10.615692133275449, 10.998640145991569, 11.387775573595228, 11.783760994609707,
    12.187371799424481, 12.599526434338053, 13.021328034672976, 13.454123227963489, 13.899587739349906,
    14.359855604375674, 14.837722983890602, 15.336987796461976, 15.863057027087041, 16.424140084408315,
    17.033929049475887, 17.719008048061845, 18.549008962484557,
)
_GH_WEIGHTS = (
    0.12596662157577185, 0.11374796211265745, 0.09274127533110009, 0.06825741431897206, 0.045334861632414604,
    0.027160033930641536, 0.014669121149733375, 0.007137774056197171, 0.003126530649363787,
    0.0012317003204237987, 0.0004359469338436625, 0.00013846233153272063, 3.9411082217868695e-05,
    1.0037951571563156e-05, 2.2839709912385427e-06, 4.633996277892734e-07, 8.366758910238345e-08,
    1.3412852546444989e-08, 1.9044697436851118e-09, 2.3885495136294677e-10, 2.6381563523338893e-11,
    2.5576425430021274e-12, 2.1685651916482644e-13, 1.6016029944695353e-14, 1.0257920845523481e-15,
    5.669570176081598e-17, 2.6893964933142535e-18, 1.0882536241221193e-19, 3.7309581702805294e-21,
    1.0754921419892883e-22, 2.5843274261892357e-24, 5.1262071745377037e-26, 8.30059160199036e-28,
    1.083227473490503e-29, 1.1224816337266545e-31, 9.07709505167934e-34, 5.611880983044807e-36,
    2.588164235426799e-38, 8.642250199792758e-41, 2.0135579608787567e-43, 3.1239542947499478e-46,
    3.0371580643523696e-49, 1.7051467545730293e-52, 4.927481091514544e-56, 6.168750025244182e-60,
    2.5211953582873406e-64, 1.9638544529325144e-69, 7.420995175863828e-76,
)
_GAUSS_HERMITE_RULE = tuple(zip((*(-u for u in reversed(_GH_NODES)), *_GH_NODES), (*reversed(_GH_WEIGHTS), *_GH_WEIGHTS)))


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
        from statistics import NormalDist

        return math.sqrt(2.0) * NormalDist().inv_cdf(target)

    def accuracy(m: float) -> float:
        # E[Phi(m + u)^(K-1)] with Phi(x) = erfc(-x / sqrt 2) / 2
        return sum(w * (0.5 * math.erfc(-(m + u) / math.sqrt(2.0))) ** rivals for u, w in _GAUSS_HERMITE_RULE)

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
    accuracy = round(accuracy, 12)  # the margin's memo key; a target that rounds to 1 is noiseless
    if accuracy >= 1.0:
        return _NOISELESS_MARGIN ** 2 * onehot
    m = _margin_for_accuracy(accuracy, num_classes)
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
    with np.errstate(over="ignore"):
        z *= noise.overconfidence
    if not np.isfinite(z).all():
        raise ValueError(f"overconfidence {noise.overconfidence!r} overflows the logits of video {gt.video_id!r}")
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


def simulate_videos(workflow: WorkflowSpec, splits, smoothing_window: int = 0) -> list[list[SimulatedVideo]]:
    """Simulate the videos of ``splits``, each an (id prefix, video count,
    noise), in memory: one list per split, in split order, of its videos
    ``<id prefix>00``, ``<id prefix>01``, ..., with the indices
    simulate_video derives their seeds from. The job queue takes one job per
    video; since each video has its own seed, it may run in any process. The
    queue raises the first failed video's error. What the jobs import on
    first use, numpy's generators and the K=2 margin solve's normal quantile,
    is imported first, before the queue forks, so the forked child inherits
    it and imports nothing."""
    import numpy.random  # noqa: F401 (for the jobs, not here)
    from statistics import NormalDist  # noqa: F401
    simulated = _results(functools.partial(simulate_video, workflow, noise, f"{prefix}{i:02d}", i, smoothing_window)
                         for prefix, count, noise in splits for i in range(count))
    return [[simulated.popleft() for _ in range(count)] for _, count, _ in splits]


def dataset_writes(videos: list[SimulatedVideo], out_dir) -> list:
    """The files of a dataset directory, one zero-argument writer each:
    ``baseline.csv`` (K=7 logits), ``bank/trans_<i>_<i+1>.csv`` in pair order,
    then ``gt.csv`` (timelines). The directories are made now; the writers may
    then run in any order, in any process."""
    out_dir = Path(out_dir)
    bank_dir = out_dir / "bank"
    bank_dir.mkdir(parents=True, exist_ok=True)
    bank = TransitionLogitBank.merge([v.bank for v in videos])
    return [
        functools.partial(save_logits, [v.baseline for v in videos], out_dir / "baseline.csv"),
        *(functools.partial(save_logits, seqs, path) for seqs, path in bank_layout(bank, bank_dir)),
        functools.partial(save_timelines, [v.ground_truth for v in videos], out_dir / "gt.csv"),
    ]


def generate_dataset(
    out_dir,
    num_videos: int,
    workflow: WorkflowSpec,
    noise: NoiseSpec,
    id_prefix: str = "video",
    smoothing_window: int = 0,
) -> list[SimulatedVideo]:
    """Simulate ``num_videos`` videos and write them as a dataset directory
    (see dataset_writes) through the job queue, which raises the first
    failed write's error in file order. Nothing is written unless every
    video simulates. Returns the written videos, in file order.
    """
    if num_videos < 1:
        raise ValueError("num_videos must be >= 1")
    [videos] = simulate_videos(workflow, [(id_prefix, num_videos, noise)], smoothing_window)
    _results(dataset_writes(videos, out_dir))
    return videos
