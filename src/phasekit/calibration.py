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

from .logits import LogitSequence, argmax_confidence_rows, positive_temperature

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


def as_arrays(logits, labels=None) -> tuple[np.ndarray, np.ndarray]:
    """Normalize calibration inputs to a (n, K) float array and a 1-based int
    label array.

    Accepts exactly two shapes: a labeled LogitSequence, or a list or tuple
    of them concatenated in the given order, with ``labels`` None; or an
    (n, K) logit array with a matching label array.
    """
    if isinstance(logits, LogitSequence):
        logits = [logits]
    if isinstance(logits, (list, tuple)) and logits and isinstance(logits[0], LogitSequence):
        if labels is not None:
            raise ValueError("labeled sequences carry their own labels; pass labels=None")
        for s in logits:
            if s.labels is None:
                raise ValueError(f"sequence {s.video_id!r} carries no labels")
        z = np.concatenate([s.logits for s in logits], axis=0)
        y = np.concatenate([s.labels for s in logits])
    else:
        if labels is None:
            raise ValueError("labels are required with plain logit arrays")
        z = np.asarray(logits, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
    if z.ndim != 2:
        raise ValueError("logits must form an (n, K) array")
    if y.shape != (z.shape[0],):
        raise ValueError(f"label count {y.shape} does not match frame count {z.shape[0]}")
    if y.min() < 1 or y.max() > z.shape[1]:
        raise ValueError(f"labels must lie in [1, {z.shape[1]}]")
    return z, y


def _nll_at(z: np.ndarray, y: np.ndarray):
    """The mean NLL of (z, y) as a function of the temperature, for many
    probes of one set: the true-class logits are gathered once, and every
    probe reuses one (n, K) buffer and one (n, 1) buffer."""
    true = z[np.arange(z.shape[0]), y - 1]
    v = np.empty_like(z)
    m = np.empty_like(z[:, :1])

    def value_at(t: float) -> float:
        # v - m may overflow to -inf, whose exp is the right limit 0; a scaled logit of inf gives inf or NaN, raised below
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(z, t, out=v)
            np.max(v, axis=1, keepdims=True, out=m)
            np.subtract(v, m, out=v)
            lse = (m + np.log(np.exp(v, out=v).sum(axis=1, keepdims=True)))[:, 0]
            value = float((lse - true / t).mean())
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
    z, y = as_arrays(logits, labels)
    pred, conf = argmax_confidence_rows(z, positive_temperature(temperature))
    # floor(conf * B) puts edge values in the higher bin; clamp keeps 1.0 on top
    b = np.minimum((conf * num_bins).astype(np.int64), num_bins - 1)
    counts = np.bincount(b, minlength=num_bins)
    conf_sum = np.bincount(b, weights=conf, minlength=num_bins)
    hit_sum = np.bincount(b, weights=(pred == y).astype(np.float64), minlength=num_bins)
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
    z, y = as_arrays(logits, labels)
    lo, hi = TEMPERATURE_SEARCH_RANGE
    log_lo, log_hi = math.log(lo), math.log(hi)

    nll_at = _nll_at(z, y)
    best_log = golden_section_minimize(lambda log_t: nll_at(math.exp(log_t)), log_lo, log_hi, TEMPERATURE_LOG_TOL)
    fitted = math.exp(best_log)
    if min(best_log - log_lo, log_hi - best_log) < 3 * TEMPERATURE_LOG_TOL:
        fitted = lo if best_log - log_lo < log_hi - best_log else hi
    if nll_at(1.0) < nll_at(fitted):
        fitted = 1.0
    return Temperature(fitted, at_bound=fitted in TEMPERATURE_SEARCH_RANGE)


def calibrate_report(val, test, num_bins: int = DEFAULT_NUM_BINS, test_name: str = "test split",
                     fitted: Temperature | None = None) -> CalibrationReport:
    """Fit T on the validation split, evaluate NLL/ECE on the test split.

    ``val`` and ``test`` are each a labeled LogitSequence or a list or tuple
    of them (see as_arrays). A ``fitted`` temperature, when given, is used as
    it is and ``val`` is not read. An NLL that overflows raises a ValueError
    naming its split, ``validation split`` or ``test_name``.
    """
    if fitted is None:
        try:
            fitted = fit_temperature(val)
        except ValueError as exc:
            raise ValueError(f"validation split: {exc}") from None
    try:
        test_z, test_y = as_arrays(test)
        # the objective's buffers go with the map, before the binning passes allocate
        nll_before, nll_after = map(_nll_at(test_z, test_y), (1.0, fitted.value))
    except ValueError as exc:
        raise ValueError(f"{test_name}: {exc}") from None
    bins = tuple(reliability_bins(test_z, test_y, t, num_bins) for t in (1.0, fitted.value))
    return CalibrationReport(nll_before, nll_after, *map(_binned_ece, bins), fitted, reliability=bins)
