"""Built-in numeric verification: brute-force oracles for the attention
kernel plus anchor checks for softmax, ECE, and the 1-D minimizer.

The oracles here use explicit scalar loops on purpose; they share no code
with the array implementations they verify.
"""

from __future__ import annotations

import math

import numpy as np

from .attention import AttentionWeights, HeadConfig, multi_head_attention, scaled_dot_attention
from .calibration import ece, golden_section_minimize
from .logits import softmax


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
        got_mh = multi_head_attention(x, heads, HeadConfig(h, d_in, d_h))
        worst_diff = max(worst_diff, float(np.abs(got_mh - multi_head_oracle(x, heads)).max()))
    return worst_diff, worst_rowsum


def run_selftest() -> bool:
    """Run all built-in checks, printing one line each; True when all pass."""
    failures = []

    def check(name: str, ok: bool, detail: str = ""):
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail and not ok else ""))
        if not ok:
            failures.append(name)

    diff, rowsum = check_attention_against_oracle()
    check("attention matches scalar-loop oracle (50 instances)", diff < 1e-10, f"max diff {diff:.3e}")
    check("attention rows sum to 1", rowsum < 1e-12, f"max gap {rowsum:.3e}")

    p = softmax([2.0, 0.0])
    expected = math.exp(2) / (math.exp(2) + 1)
    check("softmax([2,0]) anchor", abs(p[0] - expected) < 1e-12)
    p2 = softmax([2.0, 0.0], temperature=2.0)
    check("softmax temperature halves the gap", abs(p2[0] - math.exp(1) / (math.exp(1) + 1)) < 1e-12)
    rng = np.random.default_rng(7)
    z = rng.normal(size=(20, 7))
    shift = softmax(z + 123.456, 1.7)
    check("softmax shift invariance", float(np.abs(shift - softmax(z, 1.7)).max()) < 1e-12)

    # Four predictions in one bin, confidence 0.8 each, two correct.
    a = math.log(4.0)
    logits = np.array([[a, 0.0]] * 4)
    labels = np.array([1, 1, 2, 2])
    check("ECE hand-binned anchor 0.3", abs(ece(logits, labels, num_bins=15) - 0.3) < 1e-9)

    best = golden_section_minimize(lambda x: (x - 2.0) ** 2, -5.0, 9.0, 1e-7)
    check("golden-section finds a quadratic minimum", abs(best - 2.0) < 1e-6)

    if not failures:
        print("all self-test checks passed")
    return not failures
