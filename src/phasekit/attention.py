"""Minimal scaled-dot-product and multi-head attention kernels.

Scores are QK^T / sqrt(d) with d the shared query/key width; no output
projection, residuals, or layer norm. The kernel exists for numeric
verification and to drive the simulator's smoothing mode, not for training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logits import softmax


@dataclass(frozen=True)
class AttentionWeights:
    """Projection matrices for one head; each maps d_in to the head width."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    def __post_init__(self):
        for name in ("w_q", "w_k", "w_v"):
            arr = _check_matrix(name, getattr(self, name)).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.w_q.shape != self.w_k.shape:
            raise ValueError("w_q and w_k must share a shape")
        if self.w_v.shape[0] != self.w_q.shape[0]:
            raise ValueError("w_v input width must match w_q/w_k")


def _check_matrix(name: str, arr) -> np.ndarray:
    m = np.asarray(arr, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def scaled_dot_attention(queries, keys, values, return_weights: bool = False):
    """softmax(Q K^T / sqrt(d)) V for Q (n, d), K (m, d), V (m, d_v).

    Each softmax row is a probability vector, so every output row is a convex
    combination of V's rows. Set ``return_weights`` to also get the (n, m)
    attention matrix.
    """
    q = _check_matrix("queries", queries)
    k = _check_matrix("keys", keys)
    v = _check_matrix("values", values)
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"query width {q.shape[1]} does not match key width {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"key count {k.shape[0]} does not match value count {v.shape[0]}")
    scores = q @ k.T / math.sqrt(q.shape[1])
    weights = softmax(scores)
    out = weights @ v
    if return_weights:
        return out, weights
    return out


def multi_head_attention(x, heads) -> np.ndarray:
    """Project x through each head, attend, and concatenate head outputs.

    x is (n, d_in) and every head maps d_in to its own widths; the result is
    (n, sum of the heads' value widths). With one head this is exactly
    scaled_dot_attention on the projected inputs.
    """
    xm = _check_matrix("x", x)
    heads = list(heads)
    if not heads:
        raise ValueError("multi-head attention needs at least one head")
    outputs = []
    for i, head in enumerate(heads):
        if head.w_q.shape[0] != xm.shape[1]:
            raise ValueError(f"head {i} input width {head.w_q.shape[0]} does not match x width {xm.shape[1]}")
        outputs.append(scaled_dot_attention(xm @ head.w_q, xm @ head.w_k, xm @ head.w_v))
    return np.concatenate(outputs, axis=1)
