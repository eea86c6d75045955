"""Brute-force oracles for the attention kernel, behind acceptance
criterion 7.

The oracles here use explicit scalar loops on purpose; they share no code
with the array implementations they verify.
"""

from __future__ import annotations

import math

import numpy as np

from .attention import AttentionWeights, multi_head_attention, scaled_dot_attention


def attention_oracle(queries, keys, values) -> np.ndarray:
    """Scalar-loop scaled-dot-product attention."""
    q = np.asarray(queries, dtype=np.float64)
    k = np.asarray(keys, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    n, d = q.shape
    m = k.shape[0]
    dv = v.shape[1]
    out = np.zeros((n, dv))
    for i in range(n):
        scores = []
        for j in range(m):
            s = 0.0
            for a in range(d):
                s += q[i, a] * k[j, a]
            scores.append(s / math.sqrt(d))
        peak = max(scores)
        exps = [math.exp(s - peak) for s in scores]
        total = sum(exps)
        for j in range(m):
            w = exps[j] / total
            for b in range(dv):
                out[i, b] += w * v[j, b]
    return out


def multi_head_oracle(x, heads) -> np.ndarray:
    """Scalar-loop multi-head attention: project, attend, concatenate."""
    x = np.asarray(x, dtype=np.float64)
    columns = []
    for head in heads:
        q = x @ head.w_q
        k = x @ head.w_k
        v = x @ head.w_v
        columns.append(attention_oracle(q, k, v))
    return np.concatenate(columns, axis=1)


def check_attention_against_oracle(
    num_instances: int = 50, max_size: int = 16, seed: int = 12345
) -> tuple[float, float]:
    """Random-instance comparison; returns (max attention diff, max row-sum gap)."""
    rng = np.random.default_rng(seed)
    worst_diff = 0.0
    worst_rowsum = 0.0
    for _ in range(num_instances):
        n, m, d, dv = rng.integers(1, max_size + 1, size=4)
        q = rng.normal(scale=2.0, size=(n, d))
        k = rng.normal(scale=2.0, size=(m, d))
        v = rng.normal(scale=2.0, size=(m, dv))
        got, weights = scaled_dot_attention(q, k, v, return_weights=True)
        worst_diff = max(worst_diff, float(np.abs(got - attention_oracle(q, k, v)).max()))
        worst_rowsum = max(worst_rowsum, float(np.abs(weights.sum(axis=1) - 1.0).max()))

        h = int(rng.integers(1, 4))
        d_in = int(rng.integers(1, max_size + 1))
        d_h = int(rng.integers(1, max_size + 1))
        x = rng.normal(size=(n, d_in))
        heads = [
            AttentionWeights(
                rng.normal(size=(d_in, d_h)),
                rng.normal(size=(d_in, d_h)),
                rng.normal(size=(d_in, d_h)),
            )
            for _ in range(h)
        ]
        got_mh = multi_head_attention(x, heads)
        worst_diff = max(worst_diff, float(np.abs(got_mh - multi_head_oracle(x, heads)).max()))
    return worst_diff, worst_rowsum
