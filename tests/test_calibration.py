import math
import tracemalloc
import warnings
from functools import partial
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grid_search_temperature, oracle_ece, oracle_nll, oracle_nll_arrays, oracle_reliability_arrays
from phasekit import calibration
from phasekit.calibration import (
    TEMPERATURE_SEARCH_RANGE,
    CalibrationReport,
    Temperature,
    calibrate_report,
    ece,
    fit_temperature,
    golden_section_minimize,
    held_out_report,
    reliability_bins,
)
from phasekit.logits import LogitSequence, argmax_confidence_rows, positive_temperature
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


def nll(logits, labels=None, temperature=1.0) -> float:
    """The mean NLL of the true class at ``temperature``: the objective the
    fit minimizes, on the inputs fit_temperature accepts."""
    return calibration._nll_at(calibration._pieces(logits, labels))(positive_temperature(temperature))


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
    """Row-major (z, y) with K in 2..9 whose cells mix ordinary logits with
    values whose scaled NLL overflows at some temperatures of the search
    range."""
    k = draw(st.integers(2, 9))
    n = draw(st.integers(1, 12))
    cell = st.one_of(st.floats(-60, 60), st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, 1e308, -1e308]))
    z = np.array(draw(st.lists(st.lists(cell, min_size=k, max_size=k), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(1, k), min_size=n, max_size=n)))
    return z, y


def _outcome(fn, *args) -> str:
    """repr of ``fn(*args)`` (exact for a float), or of the ValueError it raises."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return repr(exc)


def concatenated(pieces) -> tuple[np.ndarray, np.ndarray]:
    """The ``calibration._pieces`` ``pieces``, or labeled sequences, as one
    (n, K) array and one label array."""
    pieces = [(s.logits, s.labels) if isinstance(s, LogitSequence) else s[:2] for s in pieces]
    return np.concatenate([z for z, _ in pieces]), np.concatenate([y for _, y in pieces])


def allocating_nll():
    """Make the fit and the report probe ``oracle_nll_arrays`` on the
    concatenated pieces in place of the per-piece buffered objective."""
    return mock.patch.object(calibration, "_nll_at", lambda pieces: partial(oracle_nll_arrays, *concatenated(pieces)))


class TestNllBuffers:
    """The objective that reuses its buffers over probes gives the bits of
    the one that allocates at each probe: on the row-major input as given,
    and on a column-major copy too while K <= 7, below numpy's pairwise
    blocks."""

    @given(nll_sets(), st.lists(st.floats(0.01, 100), min_size=1, max_size=6))
    def test_objective_values_match_bit_for_bit(self, data, temperatures):
        z, y = data
        nll_at = calibration._nll_at(calibration._pieces(z, y))
        for t in temperatures:
            assert _outcome(nll_at, t) == _outcome(oracle_nll_arrays, z, y, t)
            if z.shape[1] < 8:
                assert _outcome(nll_at, t) == _outcome(oracle_nll_arrays, np.asfortranarray(z), y, t)

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


@st.composite
def sequence_sets(draw, overflowing: bool = True):
    """2-5 labeled sequences of unequal lengths and one K in 2..9, all
    row-major (as simulated) or all column-major (as loaded from a file). A
    small set draws its cells, mixing ordinary logits with extreme ones
    (which overflow the scaled NLL at some temperatures when
    ``overflowing``); a large set, of 4,000 rows or more so that numpy's
    pairwise sums split them into blocks, draws them from a seeded
    generator."""
    k = draw(st.integers(2, 9))
    large = draw(st.booleans())
    lengths = draw(st.lists(st.integers(1, 3000 if large else 12), min_size=2, max_size=5, unique=True)
                   .filter(lambda sizes: not large or sum(sizes) >= 4000))
    if large:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = draw(st.floats(0.1, 30))
        data = [(rng.normal(scale=scale, size=(n, k)), rng.integers(1, k + 1, size=n)) for n in lengths]
    else:
        extreme = [0.0, -0.0, 5e-324, 1e300, -1e300, *([1e308, -1e308] if overflowing else [])]
        cell = st.one_of(st.floats(-60, 60), st.sampled_from(extreme))
        row = st.lists(cell, min_size=k, max_size=k)
        data = [(draw(st.lists(row, min_size=n, max_size=n)), draw(st.lists(st.integers(1, k), min_size=n, max_size=n)))
                for n in lengths]
    order = draw(st.sampled_from("CF"))
    return [LogitSequence(f"v{i}", np.asarray(z, order=order), labels=y) for i, (z, y) in enumerate(data)]


class TestSequenceSets:
    """Each statistic, computed one sequence at a time, gives the bits of the
    concatenating oracle."""

    @given(sequence_sets(), st.lists(st.floats(0.01, 100), min_size=1, max_size=4))
    def test_objective_matches_the_concatenation(self, seqs, temperatures):
        nll_at = calibration._nll_at(calibration._pieces(seqs))
        z, y = concatenated(seqs)
        for t in temperatures:
            assert _outcome(nll_at, t) == _outcome(oracle_nll_arrays, z, y, t)

    @settings(max_examples=30)
    @given(sequence_sets())
    def test_fitted_temperature_matches_the_concatenation(self, seqs):
        got = _outcome(fit_temperature, seqs)
        with allocating_nll():
            assert got == _outcome(fit_temperature, seqs)

    @given(sequence_sets(overflowing=False), st.floats(0.01, 100), st.integers(1, 40))
    def test_reliability_bins_match_the_concatenation(self, seqs, t, num_bins):
        want = oracle_reliability_arrays(*concatenated(seqs), t, num_bins)
        for got, oracle in zip(reliability_bins(seqs, temperature=t, num_bins=num_bins), want, strict=True):
            assert np.array_equal(got, oracle, equal_nan=True)
        assert ece(seqs, temperature=t, num_bins=num_bins) == calibration._binned_ece(want)

    @settings(max_examples=30)
    @given(sequence_sets(overflowing=False), sequence_sets(overflowing=False))
    def test_report_matches_the_concatenation(self, val, test):
        got = calibrate_report(val, test, num_bins=10)
        with allocating_nll():
            assert repr(got) == repr(calibrate_report(val, test, num_bins=10))
        for bins, t in zip(got.reliability, (1.0, got.fitted.value), strict=True):
            for a, b in zip(bins, oracle_reliability_arrays(*concatenated(test), t, 10), strict=True):
                assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("order", "CF")
    @pytest.mark.parametrize("k", [7, 8, 11])
    def test_objective_keeps_the_concatenations_layout(self, k, order):
        """From K = 8 numpy sums a contiguous row in pairwise blocks, so the
        bits follow the layout of the concatenated set, which drawn sets
        seldom tell apart: many seeded sets of one layout each."""
        rng = np.random.default_rng(k)
        for _ in range(60):
            seqs = [LogitSequence(f"v{i}", np.asarray(rng.normal(scale=5, size=(n, k)), order=order),
                                  labels=rng.integers(1, k + 1, size=n)) for i, n in enumerate(rng.integers(1, 300, size=3))]
            z, y = concatenated(seqs)
            t = float(rng.uniform(0.3, 5))
            assert calibration._nll_at(calibration._pieces(seqs))(t) == oracle_nll_arrays(z, y, t)
            assert calibration._nll_at(calibration._pieces(z, y))(t) == oracle_nll_arrays(z, y, t)

    @pytest.mark.parametrize("call, prefix", [
        (fit_temperature, ""),
        (ece, ""),
        (lambda seqs: calibrate_report(seqs, seqs[:1]), "validation split: "),
        (lambda seqs: calibrate_report(seqs[:1], seqs), "test split: "),
    ], ids=["fit_temperature", "ece", "calibrate_report_val", "calibrate_report_test"])
    def test_mixed_class_counts_rejected_naming_both(self, call, prefix):
        seqs = [LogitSequence("a", np.zeros((3, 7)), labels=[1, 2, 3]), LogitSequence("b", np.zeros((2, 2)), labels=[1, 2])]
        with pytest.raises(ValueError, match=f"^{prefix}logits of K=7 and K=2 cannot be pooled$"):
            call(seqs)

    def test_no_working_copy_of_the_whole_set(self):
        """Over 16 x 1800-frame sequences, the fit and the report each peak
        below the size of one (n, K) float64 array of the set."""
        rng = np.random.default_rng(3)
        seqs = [LogitSequence(f"v{i:02d}", rng.normal(scale=3, size=(1800, 7)), labels=rng.integers(1, 8, size=1800))
                for i in range(16)]
        for call in (partial(fit_temperature, seqs), partial(calibrate_report, seqs[:8], seqs)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 1800 * 7 * 8, (call.func.__name__, peak)


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

    def test_never_worse_than_identity_on_fitting_set(self):
        rng = np.random.default_rng(13)
        for seed in range(5):
            r = np.random.default_rng(seed)
            z = r.normal(scale=r.uniform(0.5, 8), size=(200, 7))
            y = r.integers(1, 8, size=200)
            fitted = fit_temperature(z, y)
            assert nll(z, y, fitted.value) <= nll(z, y, 1.0) + 1e-12

    def test_degenerate_set_returns_upper_bound_flagged(self):
        # every prediction confidently wrong: NLL decreases monotonically in T
        labels = np.full(50, 2)
        z = np.tile(10.0 * np.eye(7)[0], (50, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted = fit_temperature(z, labels)
        assert fitted == Temperature(100.0, at_bound=True)

    def test_interior_fit_is_not_flagged(self):
        z, y = calibrated_sample(t_star=2.5, n_frames=500)
        assert not fit_temperature(z, y).at_bound

    @settings(max_examples=60)
    @given(st.integers(2, 7).flatmap(lambda k: st.lists(
        st.tuples(st.lists(st.floats(-50, 50), min_size=k, max_size=k), st.integers(1, k)), min_size=1, max_size=12)))
    def test_at_bound_is_set_exactly_on_a_search_bound_without_a_warning(self, rows):
        """Small sets often fit on a bound (one correct frame drives T to the
        low one); the flag says so, and no warning is issued."""
        z, y = np.array([row for row, _ in rows]), np.array([label for _, label in rows])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted = fit_temperature(z, y)
        assert fitted.at_bound == (fitted.value in TEMPERATURE_SEARCH_RANGE)


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

    def test_report_carries_its_reliability_bins(self):
        """The report's ECEs reduce the test split's reliability bins at T=1
        and at the fitted T, and it carries those bins, outside its equality."""
        val = LogitSequence("val", *calibrated_sample(n_frames=700, t_star=2.0, seed=51))
        test = LogitSequence("test", *calibrated_sample(n_frames=700, t_star=2.0, seed=52))
        report = calibrate_report(val, test, num_bins=12)
        temperatures = (1.0, report.fitted.value)
        for got, t in zip(report.reliability, temperatures, strict=True):
            for a, b in zip(got, reliability_bins(test, temperature=t, num_bins=12), strict=True):
                assert np.array_equal(a, b, equal_nan=True)
        assert (report.ece_before, report.ece_after) == tuple(ece(test, temperature=t, num_bins=12) for t in temperatures)
        assert report == CalibrationReport(report.nll_before, report.nll_after, report.ece_before, report.ece_after,
                                           report.fitted)
        assert "reliability" not in repr(report)

    @settings(max_examples=30)
    @given(st.sampled_from([2, 7]), st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 20))
    def test_held_out_report_at_the_fit_is_calibrate_report(self, k, seed, on_bound, num_bins):
        """calibrate_report is held_out_report at fit_temperature(val): every
        field, and the reliability arrays bit for bit, for a fit inside the
        search range or on its bound (a validation split confidently wrong
        on every frame, whose NLL falls all the way to the upper bound)."""
        rng = np.random.default_rng(seed)

        def split(name):
            return [LogitSequence(f"{name}{i}", rng.normal(scale=rng.uniform(0.5, 8), size=(n, k)),
                                  labels=rng.integers(1, k + 1, size=n)) for i, n in enumerate(rng.integers(1, 400, 3))]

        val = [LogitSequence("val", np.tile(10.0 * np.eye(k)[0], (50, 1)), labels=np.full(50, 2))] if on_bound else split("v")
        test = split("t")
        fitted = fit_temperature(val)
        assert fitted.at_bound or not on_bound
        got, want = held_out_report(fitted, test, num_bins), calibrate_report(val, test, num_bins)
        assert got == want and repr(got) == repr(want)
        for a, b in zip(chain(*got.reliability), chain(*want.reliability), strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

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
