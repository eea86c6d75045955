import numpy as np
import pytest

from phasekit.attention import (
    AttentionWeights,
    multi_head_attention,
    scaled_dot_attention,
)
from phasekit.selfcheck import attention_oracle, multi_head_oracle


def random_heads(rng, h, d_in, d_h):
    return [
        AttentionWeights(
            rng.normal(size=(d_in, d_h)),
            rng.normal(size=(d_in, d_h)),
            rng.normal(size=(d_in, d_h)),
        )
        for _ in range(h)
    ]


class TestScaledDotAttention:
    def test_single_key_returns_value_row_exactly(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(5, 3))
        k = rng.normal(size=(1, 3))
        v = rng.normal(size=(1, 4))
        out = scaled_dot_attention(q, k, v)
        assert np.array_equal(out, np.repeat(v, 5, axis=0))

    def test_two_by_two_hand_case(self):
        q = k = np.eye(2)
        v = np.eye(2)
        out = scaled_dot_attention(q, k, v)
        assert np.allclose(out, attention_oracle(q, k, v), atol=1e-14)
        # row 0 mixes V rows with weights softmax([1/sqrt(2), 0])
        w = np.exp(1 / np.sqrt(2)) / (np.exp(1 / np.sqrt(2)) + 1)
        assert out[0, 0] == pytest.approx(w, abs=1e-12)
        assert out[0, 1] == pytest.approx(1 - w, abs=1e-12)

    def test_key_value_permutation_invariance(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(4, 6))
        k = rng.normal(size=(9, 6))
        v = rng.normal(size=(9, 3))
        perm = rng.permutation(9)
        base = scaled_dot_attention(q, k, v)
        shuffled = scaled_dot_attention(q, k[perm], v[perm])
        assert np.allclose(base, shuffled, atol=1e-12)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n, m, d, dv = rng.integers(1, 17, size=4)
            q = rng.normal(scale=2, size=(n, d))
            k = rng.normal(scale=2, size=(m, d))
            v = rng.normal(scale=2, size=(m, dv))
            out = scaled_dot_attention(q, k, v)
            assert np.abs(out - attention_oracle(q, k, v)).max() < 1e-10

    def test_weight_rows_are_probabilities(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(7, 5))
        k = rng.normal(size=(11, 5))
        v = rng.normal(size=(11, 2))
        _, weights = scaled_dot_attention(q, k, v, return_weights=True)
        assert np.all(weights >= 0)
        assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-12

    def test_output_in_convex_hull_of_values(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(6, 3))
        k = rng.normal(size=(8, 3))
        v = rng.normal(size=(8, 4))
        out = scaled_dot_attention(q, k, v)
        assert np.all(out <= v.max(axis=0) + 1e-12)
        assert np.all(out >= v.min(axis=0) - 1e-12)

    def test_scores_divided_by_sqrt_of_key_width(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(3, 9))
        k = rng.normal(size=(4, 9))
        v = rng.normal(size=(4, 2))
        _, weights = scaled_dot_attention(q, k, v, return_weights=True)
        scores = q @ k.T / np.sqrt(9)
        manual = np.exp(scores - scores.max(axis=1, keepdims=True))
        manual /= manual.sum(axis=1, keepdims=True)
        assert np.allclose(weights, manual, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            scaled_dot_attention(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="count"):
            scaled_dot_attention(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((5, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            scaled_dot_attention(np.array([[np.nan, 1.0]]), np.zeros((1, 2)), np.zeros((1, 2)))


class TestMultiHeadAttention:
    def test_single_head_reduces_to_scaled_dot(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 4))
        heads = random_heads(rng, 1, 4, 3)
        got = multi_head_attention(x, heads)
        expected = scaled_dot_attention(x @ heads[0].w_q, x @ heads[0].w_k, x @ heads[0].w_v)
        assert np.array_equal(got, expected)

    def test_zero_input_gives_zero_output(self):
        rng = np.random.default_rng(7)
        heads = random_heads(rng, 2, 4, 3)
        out = multi_head_attention(np.zeros((6, 4)), heads)
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_matches_oracle_h2_8x8(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(8, 8))
        heads = random_heads(rng, 2, 8, 8)
        got = multi_head_attention(x, heads)
        assert np.abs(got - multi_head_oracle(x, heads)).max() < 1e-10

    def test_output_width_is_heads_times_head_dim(self):
        rng = np.random.default_rng(9)
        out = multi_head_attention(rng.normal(size=(4, 5)), random_heads(rng, 3, 5, 2))
        assert out.shape == (4, 3 * 2)

    def test_unequal_head_widths_match_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 5))
        # (query/key width, value width) per head; the last two differ
        widths = [(2, 2), (4, 1), (1, 3)]
        heads = [
            AttentionWeights(rng.normal(size=(5, d_qk)), rng.normal(size=(5, d_qk)), rng.normal(size=(5, d_v)))
            for d_qk, d_v in widths
        ]
        got = multi_head_attention(x, heads)
        assert got.shape == (6, 2 + 1 + 3)
        assert np.abs(got - multi_head_oracle(x, heads)).max() < 1e-10

    def test_no_heads_rejected(self):
        with pytest.raises(ValueError, match="at least one head"):
            multi_head_attention(np.zeros((2, 4)), [])

    def test_head_shape_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="^head 0 input width 4 does not match x width 5$"):
            multi_head_attention(np.zeros((2, 5)), random_heads(rng, 1, 4, 3))


class TestWeightValidation:
    def test_mismatched_qk_shapes_rejected(self):
        with pytest.raises(ValueError):
            AttentionWeights(np.zeros((3, 2)), np.zeros((3, 4)), np.zeros((3, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            AttentionWeights(np.array([[np.inf]]), np.zeros((1, 1)), np.zeros((1, 1)))
