"""Temperature-scaling calibration: NLL and ECE metrics, reliability bins,
and a one-dimensional temperature fit.

A single scalar T > 0 rescales logits before the softmax; T is fitted by
minimizing NLL on a validation split and then applied unchanged to held-out
data. The fit is a golden-section search on log T, which is cheap, has no
gradient plumbing, and is cross-checked in the tests by an exhaustive grid
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .logits import LogitSequence, _shifted_exp, argmax_confidence_rows, positive_temperature

_INV_PHI = (math.sqrt(5) - 1) / 2
_INV_PHI_SQ = (3 - math.sqrt(5)) / 2

DEFAULT_NUM_BINS = 15
TEMPERATURE_SEARCH_RANGE = (0.01, 100.0)
# bracket width of the golden-section search on log T
TEMPERATURE_LOG_TOL = 1e-4


@dataclass(frozen=True)
class Temperature:
    """A positive scalar temperature, and whether its fit stopped on a search bound."""

    value: float
    at_bound: bool = False

    def __post_init__(self):
        object.__setattr__(self, "value", positive_temperature(self.value))

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class CalibrationReport:
    """Held-out NLL/ECE before (T=1) and after applying the fitted temperature,
    and the held-out reliability_bins they came from, before and after."""

    nll_before: float
    nll_after: float
    ece_before: float
    ece_after: float
    fitted: Temperature
    reliability: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        for name in ("nll_before", "nll_after", "ece_before", "ece_after"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        for name in ("ece_before", "ece_after"):
            if getattr(self, name) > 1:
                raise ValueError(f"{name} must be <= 1")


def _pieces(logits, labels=None) -> list[tuple[np.ndarray, np.ndarray, slice]]:
    """Calibration inputs as ``(z, y, rows)`` pieces in the given order,
    without concatenating them: an (n_i, K) float array, its 1-based int
    labels, and the rows the piece takes in the concatenated set.

    Accepts exactly two shapes: a labeled LogitSequence, or a list or tuple
    of them, with ``labels`` None; or an (n, K) logit array with a matching
    label array. Every piece must have the same K.
    """
    if isinstance(logits, LogitSequence):
        logits = [logits]
    if isinstance(logits, (list, tuple)) and logits and isinstance(logits[0], LogitSequence):
        if labels is not None:
            raise ValueError("labeled sequences carry their own labels; pass labels=None")
        for s in logits:
            if s.labels is None:
                raise ValueError(f"sequence {s.video_id!r} carries no labels")
        arrays = [(s.logits, s.labels) for s in logits]
    else:
        if labels is None:
            raise ValueError("labels are required with plain logit arrays")
        arrays = [(np.asarray(logits, dtype=np.float64), np.asarray(labels, dtype=np.int64))]
    pieces, start = [], 0
    for z, y in arrays:
        if z.ndim != 2:
            raise ValueError("logits must form an (n, K) array")
        k = arrays[0][0].shape[1]
        if z.shape[1] != k:
            raise ValueError(f"logits of K={k} and K={z.shape[1]} cannot be pooled")
        if y.shape != (z.shape[0],):
            raise ValueError(f"label count {y.shape} does not match frame count {z.shape[0]}")
        if y.min() < 1 or y.max() > k:
            raise ValueError(f"labels must lie in [1, {k}]")
        pieces.append((z, y, slice(start, start + len(y))))
        start += len(y)
    return pieces


def _nll_at(pieces):
    """The mean NLL of the ``pieces`` (see _pieces) as a function of the
    temperature, for many probes of one set. The true-class logits are
    gathered once. Each probe scales one piece at a time, through softmax's
    kernel (see logits._shifted_exp), into a buffer the size of the largest
    piece, and writes its per-row terms into one (n,) vector, whose mean is
    the value: the bits of the concatenated set, since every step before the
    mean is row-wise."""
    k = pieces[0][0].shape[1]
    true = np.empty(pieces[-1][2].stop)
    terms = np.empty_like(true)
    for z, y, rows in pieces:
        true[rows] = z[np.arange(len(y)), y - 1]
    size = max(len(y) for _, y, _ in pieces)
    # from K = 8 numpy sums a contiguous row in pairwise blocks, so there the buffer takes the concatenation's
    # layout; below, both give the same bits, and the column-major max and sum down the K columns are faster
    column_major = k < 8 or all(z.flags.f_contiguous for z, _, _ in pieces)
    v = np.empty((size, k), order="F" if column_major else "C")

    def value_at(t: float) -> float:
        # a scaled logit of inf gives inf or NaN, raised below
        with np.errstate(over="ignore", invalid="ignore"):
            for z, _, rows in pieces:
                e, m = _shifted_exp(z, t, out=v[:len(z)])
                lse = (m + np.log(e.sum(axis=1, keepdims=True)))[:, 0]
                np.subtract(lse, true[rows] / t, out=terms[rows])
            value = float(terms.mean())
        if not math.isfinite(value):
            raise ValueError(f"NLL is not finite at temperature {t!r}: the scaled logits overflow")
        return value

    return value_at


def reliability_bins(
    logits, labels=None, temperature=1.0, num_bins: int = DEFAULT_NUM_BINS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bin predictions by top-label confidence into ``num_bins`` equal-width
    bins over [0, 1]: ``(counts, mean_confidence, accuracy)``, one entry per
    bin.

    ``counts`` sums to the number of predictions; ``mean_confidence`` and
    ``accuracy`` are NaN for empty bins. A confidence exactly on a bin edge
    belongs to the higher bin, except 1.0 which belongs to the top bin.
    """
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    pieces = _pieces(logits, labels)
    t = positive_temperature(temperature)
    # each piece's confidences and hits go into one (n,) vector each, as if concatenated
    conf, hits = np.empty((2, pieces[-1][2].stop))
    for z, y, rows in pieces:
        pred, conf[rows] = argmax_confidence_rows(z, t)
        hits[rows] = pred == y
    # floor(conf * B) puts edge values in the higher bin; clamp keeps 1.0 on top
    b = np.minimum((conf * num_bins).astype(np.int64), num_bins - 1)
    counts = np.bincount(b, minlength=num_bins)
    conf_sum = np.bincount(b, weights=conf, minlength=num_bins)
    hit_sum = np.bincount(b, weights=hits, minlength=num_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_conf = np.where(counts > 0, conf_sum / np.maximum(counts, 1), np.nan)
        acc = np.where(counts > 0, hit_sum / np.maximum(counts, 1), np.nan)
    return counts, mean_conf, acc


def ece(logits, labels=None, temperature=1.0, num_bins: int = DEFAULT_NUM_BINS) -> float:
    """Expected calibration error over equal-width top-label confidence bins:
    the count-weighted mean absolute gap between accuracy and confidence."""
    return _binned_ece(reliability_bins(logits, labels, temperature, num_bins))


def _binned_ece(bins: tuple[np.ndarray, np.ndarray, np.ndarray]) -> float:
    """The ECE of reliability_bins' (counts, mean_confidence, accuracy)."""
    counts, mean_conf, acc = bins
    mask = counts > 0
    weights = counts[mask] / int(counts.sum())
    return float(np.sum(weights * np.abs(acc[mask] - mean_conf[mask])))


def golden_section_minimize(fn, lo: float, hi: float, tol: float) -> float:
    """Minimize a unimodal scalar function on [lo, hi] to bracket width tol.

    Reuses one function evaluation per iteration; returns the midpoint of the
    final bracket.
    """
    a, b = (lo, hi) if lo <= hi else (hi, lo)
    h = b - a
    if h <= tol:
        return (a + b) / 2
    steps = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI_SQ * h
    d = a + _INV_PHI * h
    yc = fn(c)
    yd = fn(d)
    for _ in range(steps - 1):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI_SQ * h
            yc = fn(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = fn(d)
    return (a + d) / 2 if yc < yd else (c + b) / 2


def fit_temperature(logits, labels=None) -> Temperature:
    """Fit the scalar temperature minimizing NLL on the given set.

    Golden-section search on log T over TEMPERATURE_SEARCH_RANGE. The result
    never has a worse NLL than T=1 on the fitting set. When the minimum sits on
    a search bound (degenerate sets where NLL is monotone in T, e.g. every
    prediction wrong), the bound is returned with ``at_bound`` set, unless T=1
    is better. Raises ValueError when the scaled logits overflow at any probe.
    """
    nll_at = _nll_at(_pieces(logits, labels))
    lo, hi = TEMPERATURE_SEARCH_RANGE
    log_lo, log_hi = math.log(lo), math.log(hi)
    best_log = golden_section_minimize(lambda log_t: nll_at(math.exp(log_t)), log_lo, log_hi, TEMPERATURE_LOG_TOL)
    fitted = math.exp(best_log)
    if min(best_log - log_lo, log_hi - best_log) < 3 * TEMPERATURE_LOG_TOL:
        fitted = lo if best_log - log_lo < log_hi - best_log else hi
    if nll_at(1.0) < nll_at(fitted):
        fitted = 1.0
    return Temperature(fitted, at_bound=fitted in TEMPERATURE_SEARCH_RANGE)


def held_out_report(fitted: Temperature, test, num_bins: int = DEFAULT_NUM_BINS) -> CalibrationReport:
    """NLL/ECE on the held-out ``test`` split (labeled sequences of one K) at
    T=1 and at ``fitted``, with the reliability bins behind each ECE."""
    # the objective's buffers go with the map, before the binning passes allocate
    nll_before, nll_after = map(_nll_at(_pieces(test)), (1.0, fitted.value))
    bins = tuple(reliability_bins(test, None, t, num_bins) for t in (1.0, fitted.value))
    return CalibrationReport(nll_before, nll_after, *map(_binned_ece, bins), fitted, reliability=bins)


def calibrate_report(val, test, num_bins: int = DEFAULT_NUM_BINS) -> CalibrationReport:
    """Fit T on the validation split and report on the test split (see
    held_out_report), naming the split of an error."""
    try:
        fitted = fit_temperature(val)
    except ValueError as exc:
        raise ValueError(f"validation split: {exc}") from None
    try:
        return held_out_report(fitted, test, num_bins)
    except ValueError as exc:
        raise ValueError(f"test split: {exc}") from None
