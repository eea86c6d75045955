import math
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grid_search_temperature, oracle_ece, oracle_nll, oracle_nll_arrays
from phasekit import calibration
from phasekit.calibration import (
    CalibrationReport,
    Temperature,
    calibrate_report,
    ece,
    fit_temperature,
    golden_section_minimize,
    nll,
    reliability_bins,
)
from phasekit.logits import LogitSequence, argmax_confidence_rows
from phasekit.simulate import NoiseSpec, WorkflowSpec, generate_baseline_logits, generate_ground_truth


def calibrated_sample(n_frames=4000, t_star=1.0, accuracy=0.85, seed=5):
    """Synthetic logits that are NLL-optimal at T=1 before the t_star scale."""
    spec = WorkflowSpec(dwell_mean=n_frames / 7, dwell_min=max(1, n_frames // 28))
    gt = generate_ground_truth(spec, seed)
    noise = NoiseSpec(
        base_accuracy_target=accuracy,
        overconfidence=t_star,
        boundary_jitter=0,
        rng_seed=seed,
    )
    seq = generate_baseline_logits(gt, noise)
    return seq.logits, gt.labels


class TestTemperature:
    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan, math.inf])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            Temperature(bad)

    def test_float_conversion(self):
        assert float(Temperature(2.5)) == 2.5


class TestNll:
    def test_perfect_prediction_limit(self):
        labels = np.array([1, 2, 3])
        z = 50.0 * np.eye(7)[labels - 1]
        assert nll(z, labels) < 1e-12

    def test_all_zero_logits_is_log_k(self):
        z = np.zeros((10, 7))
        labels = np.arange(10) % 7 + 1
        for t in (0.5, 1.0, 3.0):
            assert nll(z, labels, t) == pytest.approx(math.log(7), abs=1e-12)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(2)
        z = rng.normal(scale=4, size=(200, 5))
        y = rng.integers(1, 6, size=200)
        for t in (0.3, 1.0, 2.7):
            assert nll(z, y, t) == pytest.approx(oracle_nll(z, y, t), abs=1e-10)

    @given(st.floats(min_value=-50, max_value=50))
    def test_row_shift_invariance(self, c):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(50, 7))
        y = rng.integers(1, 8, size=50)
        assert nll(z + c, y) == pytest.approx(nll(z, y), abs=1e-10)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="label count"):
            nll(np.zeros((3, 7)), np.array([1, 2]))

    @pytest.mark.parametrize("row, label", [
        ([1e308, -1e308, 0, 0, 0, 0, 0], 1),  # inf - inf: nan
        ([1e308, 0, 0, 0, 0, 0, 0], 2),  # the true class is infinitely unlikely
    ])
    def test_overflow_names_temperature(self, row, label):
        with pytest.raises(ValueError, match=r"NLL is not finite at temperature 0\.001"):
            nll(np.array([row]), np.array([label]), 1e-3)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            nll(np.zeros((2, 7)), np.array([1, 8]))

    def test_accepts_sequences_and_timelines(self):
        seq = LogitSequence("v", np.zeros((3, 7)), labels=[1, 2, 3])
        assert nll(seq) == pytest.approx(math.log(7))

    def test_plain_array_needs_labels(self):
        with pytest.raises(ValueError, match="labels are required"):
            nll(np.zeros((3, 7)))

    def test_sequences_carry_their_own_labels(self):
        seq = LogitSequence("v", np.zeros((3, 7)), labels=[1, 2, 3])
        with pytest.raises(ValueError, match="labels=None"):
            nll(seq, np.array([1, 2, 3]))
        with pytest.raises(ValueError, match="sequence 'u' carries no labels"):
            nll([seq, LogitSequence("u", np.zeros((2, 7)))])


@st.composite
def nll_sets(draw):
    """(z, y) with K in 2..7 whose cells mix ordinary logits with values
    whose scaled NLL overflows at some temperatures of the search range."""
    k = draw(st.integers(2, 7))
    n = draw(st.integers(1, 12))
    cell = st.one_of(st.floats(-60, 60), st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, 1e308, -1e308]))
    z = np.array(draw(st.lists(st.lists(cell, min_size=k, max_size=k), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(1, k), min_size=n, max_size=n)))
    return z, y


def _outcome(fn, *args) -> str:
    """repr of ``fn(*args)`` (exact for a float), or of the ValueError it raises."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="temperature fit hit the search bound")
        try:
            return repr(fn(*args))
        except ValueError as exc:
            return repr(exc)


def allocating_nll():
    """Make the fit probe ``oracle_nll_arrays`` in place of the buffered objective."""
    return mock.patch.object(calibration, "_nll_at", lambda z, y: partial(oracle_nll_arrays, z, y))


class TestNllBuffers:
    """The objective that reuses its buffers over probes gives the bits of
    the one that allocates at each probe."""

    @given(nll_sets(), st.lists(st.floats(0.01, 100), min_size=1, max_size=6))
    def test_objective_values_match_bit_for_bit(self, data, temperatures):
        z, y = data
        nll_at = calibration._nll_at(z, y)
        for t in temperatures:
            assert _outcome(nll_at, t) == _outcome(oracle_nll_arrays, z, y, t)

    @settings(max_examples=30)
    @given(nll_sets())
    def test_fitted_temperatures_match_bit_for_bit(self, data):
        z, y = data
        buffered = _outcome(fit_temperature, z, y)
        with allocating_nll():
            assert buffered == _outcome(fit_temperature, z, y)

    def test_fitted_temperature_of_a_simulated_set_matches(self):
        """4,000 rows: numpy's pairwise sums split them into blocks, which
        the drawn sets are too small to reach."""
        z, y = calibrated_sample(t_star=2.5)
        buffered = fit_temperature(z, y).value
        with allocating_nll():
            assert repr(buffered) == repr(fit_temperature(z, y).value)


class TestEce:
    def test_confident_and_correct_is_near_zero(self):
        labels = np.array([1, 2, 3, 4] * 5)
        z = 40.0 * np.eye(7)[labels - 1]
        assert ece(z, labels) < 1e-9

    def test_hand_binned_example(self):
        # four predictions, confidence 0.8 each, two correct -> |0.5 - 0.8|
        z = np.array([[math.log(4.0), 0.0]] * 4)
        labels = np.array([1, 1, 2, 2])
        assert ece(z, labels, num_bins=15) == pytest.approx(0.3, abs=1e-12)

    def test_confident_and_wrong_is_near_one(self):
        labels = np.full(20, 2)
        z = 40.0 * np.eye(7)[0] * np.ones((20, 1))
        assert ece(z, labels) > 0.999

    def test_single_bin_equals_accuracy_confidence_gap(self):
        rng = np.random.default_rng(4)
        z = rng.normal(scale=2, size=(300, 7))
        y = rng.integers(1, 8, size=300)
        pred, conf = argmax_confidence_rows(z, 1.0)
        expected = abs(float((pred == y).mean()) - float(conf.mean()))
        assert ece(z, y, num_bins=1) == pytest.approx(expected, abs=1e-12)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(8)
        z = rng.normal(scale=3, size=(500, 7))
        y = rng.integers(1, 8, size=500)
        pred, conf = argmax_confidence_rows(z, 1.4)
        expected = oracle_ece(conf, pred == y, 15)
        assert ece(z, y, temperature=1.4, num_bins=15) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_bounded_in_unit_interval(self, bins, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(scale=rng.uniform(0.1, 30), size=(50, 4))
        y = rng.integers(1, 5, size=50)
        assert 0.0 <= ece(z, y, num_bins=bins) <= 1.0


class TestReliabilityBins:
    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(123, 7))
        y = rng.integers(1, 8, size=123)
        counts, mean_conf, acc = reliability_bins(z, y, num_bins=15)
        assert counts.sum() == 123
        assert counts.shape == mean_conf.shape == acc.shape == (15,)

    def test_mean_confidence_inside_interval(self):
        rng = np.random.default_rng(7)
        z = rng.normal(scale=3, size=(400, 7))
        y = rng.integers(1, 8, size=400)
        counts, mean_conf, _ = reliability_bins(z, y, num_bins=10)
        edges = np.linspace(0.0, 1.0, 11)
        for i in range(10):
            if counts[i]:
                assert edges[i] <= mean_conf[i] <= edges[i + 1] + 1e-12

    def test_edge_confidence_goes_to_higher_bin(self):
        # two equal logits give confidence exactly 0.5
        counts, _, _ = reliability_bins(np.array([[1.0, 1.0]]), np.array([1]), num_bins=2)
        assert counts[0] == 0 and counts[1] == 1

    def test_full_confidence_stays_in_top_bin(self):
        # a 1000-logit gap rounds to confidence 1.0 in float64
        counts, _, _ = reliability_bins(np.array([[1000.0, 0.0]]), np.array([1]), num_bins=15)
        assert counts[-1] == 1


class TestGoldenSection:
    @given(
        st.floats(min_value=-20, max_value=20),
        st.floats(min_value=0.1, max_value=10),
    )
    @settings(max_examples=40)
    def test_quadratic_minimum(self, center, scale):
        got = golden_section_minimize(lambda x: scale * (x - center) ** 2, -25.0, 25.0, 1e-8)
        assert got == pytest.approx(center, abs=1e-6)


class TestFitTemperature:
    def test_identity_recovered(self):
        z, y = calibrated_sample(t_star=1.0)
        fitted = fit_temperature(z, y)
        assert fitted.value == pytest.approx(1.0, rel=0.01)

    def test_tripled_logits_recovered(self):
        z, y = calibrated_sample(t_star=1.0)
        fitted = fit_temperature(3.0 * z, y)
        assert fitted.value == pytest.approx(3.0, rel=0.01)

    def test_scaling_property(self):
        z, y = calibrated_sample(t_star=1.0, n_frames=3000)
        base = fit_temperature(z, y).value
        scaled = fit_temperature(7.0 * z, y).value
        assert scaled == pytest.approx(7.0 * base, rel=0.02)

    def test_matches_grid_oracle(self):
        z, y = calibrated_sample(t_star=2.5, n_frames=1500, seed=12)
        fitted = fit_temperature(z, y)
        oracle = grid_search_temperature(z, y)
        assert abs(fitted.value - oracle) < 2e-3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_never_worse_than_identity_on_fitting_set(self):
        rng = np.random.default_rng(13)
        for seed in range(5):
            r = np.random.default_rng(seed)
            z = r.normal(scale=r.uniform(0.5, 8), size=(200, 7))
            y = r.integers(1, 8, size=200)
            fitted = fit_temperature(z, y)
            assert nll(z, y, fitted.value) <= nll(z, y, 1.0) + 1e-12

    def test_degenerate_set_returns_upper_bound_with_warning(self):
        # every prediction confidently wrong: NLL decreases monotonically in T
        labels = np.full(50, 2)
        z = np.tile(10.0 * np.eye(7)[0], (50, 1))
        with pytest.warns(RuntimeWarning, match="bound"):
            fitted = fit_temperature(z, labels)
        assert fitted.value == 100.0


class TestCalibrateReport:
    def test_already_calibrated_input(self):
        z_val, y_val = calibrated_sample(t_star=1.0, seed=21)
        z_test, y_test = calibrated_sample(t_star=1.0, seed=22)
        report = calibrate_report(LogitSequence("val", z_val, y_val), LogitSequence("test", z_test, y_test))
        assert report.fitted.value == pytest.approx(1.0, rel=0.02)
        assert report.nll_after == pytest.approx(report.nll_before, rel=0.02)

    def test_overconfident_input_improves(self):
        z_val, y_val = calibrated_sample(t_star=2.5, seed=31)
        z_test, y_test = calibrated_sample(t_star=2.5, seed=32)
        report = calibrate_report(LogitSequence("val", z_val, y_val), LogitSequence("test", z_test, y_test))
        assert report.nll_after < report.nll_before
        assert report.ece_after < report.ece_before

    def test_tuple_of_sequences_matches_list(self):
        seqs = [
            LogitSequence(f"v{seed}", *calibrated_sample(n_frames=700, t_star=2.0, seed=seed))
            for seed in (41, 42)
        ]
        assert calibrate_report(tuple(seqs), tuple(seqs)) == calibrate_report(seqs, seqs)

    def test_overflowing_nll_rejected(self):
        val = LogitSequence("val", [[2.0, 0.0], [2.0, 0.0], [0.0, 2.0], [1.0, 0.0]], labels=[1, 2, 2, 1])
        test = LogitSequence("test", [[1e308, -1e308], [0.0, 0.0]], labels=[2, 1])
        with pytest.raises(ValueError, match=r"^test split: NLL is not finite at temperature 1\.0: the scaled logits overflow$"):
            calibrate_report(val, test)

    def test_overflowing_fit_rejected(self):
        """A probe of the fit whose NLL overflows raises instead of comparing NaN."""
        val = LogitSequence("val", [[1e308, -1e308], [0.0, 0.0]], labels=[1, 2])
        test = LogitSequence("test", [[2.0, 0.0], [0.0, 2.0]], labels=[1, 2])
        with pytest.raises(ValueError, match=r"^NLL is not finite at temperature [0-9.]+: the scaled logits overflow$"):
            fit_temperature(val)
        with pytest.raises(ValueError, match=r"^validation split: NLL is not finite at temperature [0-9.]+: "):
            calibrate_report(val, test)

    def test_report_invariants_enforced(self):
        with pytest.raises(ValueError):
            CalibrationReport(-0.1, 0.1, 0.1, 0.1, Temperature(1.0))
        with pytest.raises(ValueError):
            CalibrationReport(0.1, 0.1, 1.5, 0.1, Temperature(1.0))
        with pytest.raises(ValueError):
            CalibrationReport(math.nan, 1.0, math.nan, 0.1, Temperature(2.0))
        with pytest.raises(ValueError, match="finite"):
            CalibrationReport(0.1, math.inf, 0.1, 0.1, Temperature(2.0))
