"""Independent reference implementations used to verify the package.

Everything here deliberately avoids the code paths under test: NLL goes
through scipy's logsumexp, the temperature oracle is an exhaustive geometric
grid, majority voting uses collections.Counter, and the simulator's margin
solve uses adaptive quadrature inside brentq.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import logsumexp
from scipy.stats import norm


def oracle_nll(logits: np.ndarray, labels: np.ndarray, temperature: float) -> float:
    z = np.asarray(logits, dtype=np.float64) / temperature
    lse = logsumexp(z, axis=1)
    true = z[np.arange(z.shape[0]), np.asarray(labels) - 1]
    return float(np.mean(lse - true))


def grid_search_temperature(
    logits: np.ndarray,
    labels: np.ndarray,
    lo: float = 0.01,
    hi: float = 100.0,
    step: float = 1.001,
) -> float:
    """Exhaustive geometric-grid NLL minimizer over [lo, hi]."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    count = int(math.floor(math.log(hi / lo) / math.log(step))) + 1
    grid = lo * step ** np.arange(count)
    # row max subtracted once; exact for NLL and keeps exp() in range
    zs = z - z.max(axis=1, keepdims=True)
    zs_true = zs[np.arange(z.shape[0]), y - 1]
    best_t, best_v = None, np.inf
    for i in range(0, len(grid), 64):
        ts = grid[i:i + 64]
        v = zs[None, :, :] / ts[:, None, None]
        lse = np.log(np.exp(v).sum(axis=2))
        vals = (lse - zs_true[None, :] / ts[:, None]).mean(axis=1)
        j = int(np.argmin(vals))
        if vals[j] < best_v:
            best_v, best_t = float(vals[j]), float(ts[j])
    return best_t


def oracle_softmax(z, temperature: float = 1.0) -> list[float]:
    vals = [v / temperature for v in z]
    peak = max(vals)
    exps = [math.exp(v - peak) for v in vals]
    total = sum(exps)
    return [e / total for e in exps]


def oracle_majority(labels) -> int:
    counts = Counter(labels)
    top = max(counts.values())
    return min(label for label, c in counts.items() if c == top)


def oracle_ece(confidences, correct, num_bins: int) -> float:
    """Direct binned ECE: floor(conf * B) with 1.0 clamped to the top bin."""
    confidences = list(confidences)
    correct = list(correct)
    bins: dict[int, list[int]] = {}
    for i, c in enumerate(confidences):
        b = min(int(c * num_bins), num_bins - 1)
        bins.setdefault(b, []).append(i)
    total = len(confidences)
    out = 0.0
    for idx in bins.values():
        conf = sum(confidences[i] for i in idx) / len(idx)
        acc = sum(1 for i in idx if correct[i]) / len(idx)
        out += len(idx) / total * abs(acc - conf)
    return out


def oracle_margin(target: float, num_classes: int) -> float:
    """Solve P(m + e0 > max of K-1 iid standard normals) = target for m."""
    rivals = num_classes - 1
    if rivals == 1:
        return math.sqrt(2.0) * float(norm.ppf(target))

    def accuracy(m: float) -> float:
        val, _ = quad(lambda u: norm.pdf(u) * norm.cdf(m + u) ** rivals, -10.0, 10.0)
        return val

    return float(brentq(lambda m: accuracy(m) - target, 0.0, 16.0, xtol=1e-10))
