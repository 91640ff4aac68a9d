import tracemalloc

import numpy as np
import pytest
from scipy import stats

from looptomo import (
    BinningConfig,
    ConfigError,
    DataError,
    LoopParams,
    OutcomeMatrix,
    ProbeEnsemble,
    TimeTagHistogram,
    assemble_outcome_matrix,
    bin_probabilities,
    coherent_bin_probs,
    histogram_from_bin_counts,
    integrate_histogram,
    outcome_probabilities,
    poisson_binomial_bruteforce,
    simulate_bin_clicks,
)

from joint_sample import one_draw_per_bin

DEVICE = LoopParams(0.89613, 0.9064, 0.4912, 10)
CFG = BinningConfig(n_detector_bins=10)


class TestIntegrateHistogram:
    def test_all_zero(self):
        hist = TimeTagHistogram(np.zeros(150_000, dtype=int), 10.0, 1000.0)
        np.testing.assert_array_equal(integrate_histogram(hist, CFG), np.zeros(10))

    def test_single_spike_in_window_three(self):
        counts = np.zeros(150_000, dtype=int)
        # window 3 is centered at t0 + 2*156 ns = 313 ns -> raw bin 31300/10
        counts[31_300] = 77  # 313 ns = t0 + 2 periods
        hist = TimeTagHistogram(counts, 10.0, 1000.0)
        out = integrate_histogram(hist, CFG)
        assert out[2] == 77
        assert out.sum() == 77

    def test_counts_outside_windows_are_dropped(self):
        counts = np.zeros(150_000, dtype=int)
        counts[5_000] = 13  # 50 ns: between window 1 and 2
        hist = TimeTagHistogram(counts, 10.0, 1000.0)
        assert integrate_histogram(hist, CFG).sum() == 0

    def test_simulator_round_trip_is_exact(self):
        totals = simulate_bin_clicks(DEVICE, 25.0, 50_000, seed=9)
        hist = histogram_from_bin_counts(totals, CFG)
        np.testing.assert_array_equal(integrate_histogram(hist, CFG), totals)

    def test_simulator_file_round_trip_is_exact(self, tmp_path):
        # same integers, same division, through the on-disk format
        from looptomo import fileio

        totals = simulate_bin_clicks(DEVICE, 9.0, 30_000, seed=12)
        hist = histogram_from_bin_counts(totals, CFG)
        fileio.save_histogram_csv(hist, tmp_path / "h.csv")
        back = fileio.load_histogram(tmp_path / "h.csv")
        counts = integrate_histogram(back, CFG)
        np.testing.assert_array_equal(counts, totals)
        np.testing.assert_array_equal(
            bin_probabilities(counts, 30_000), totals / 30_000
        )

    def test_window_outside_span_rejected(self):
        hist = TimeTagHistogram(np.zeros(1000, dtype=int), 10.0, 1000.0)
        with pytest.raises(ConfigError):
            integrate_histogram(hist, CFG)  # 10 windows need ~1.4e5 bins

    def test_overlapping_windows_rejected(self):
        # 2 ns windows 1 ns apart
        with pytest.raises(ConfigError):
            BinningConfig(n_detector_bins=3, window_width_ns=2.0, bin_period_ns=1.0)


class TestBinningConfig:
    @pytest.mark.parametrize("field", ["window_width_ns", "bin_period_ns"])
    @pytest.mark.parametrize("value", [0.0, -156.0, np.nan, np.inf])
    def test_width_and_period_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be finite and > 0"):
            BinningConfig(n_detector_bins=3, **{field: value})

    def test_touching_windows_are_accepted(self):
        cfg = BinningConfig(n_detector_bins=3, window_width_ns=2.0, bin_period_ns=2.0)
        totals = np.array([3, 5, 7])
        hist = histogram_from_bin_counts(totals, cfg)
        np.testing.assert_array_equal(integrate_histogram(hist, cfg), totals)


class TestBinProbabilities:
    def test_zero_counts(self):
        np.testing.assert_array_equal(bin_probabilities([0, 0, 0], 100), [0, 0, 0])

    def test_half_rate(self):
        np.testing.assert_array_equal(bin_probabilities([225_000], 450_000), [0.5])

    def test_counts_above_pulses_rejected(self):
        with pytest.raises(DataError):
            bin_probabilities([11], 10)

    def test_simulator_rates_within_5_sigma(self):
        n = 200_000
        p_hat = bin_probabilities(simulate_bin_clicks(DEVICE, 100.0, n, seed=17), n)
        c = coherent_bin_probs(DEVICE, 100.0)
        sigma = np.sqrt(np.maximum(c * (1 - c) / n, 1e-300))
        assert np.all(np.abs(p_hat - c) < 5 * sigma)


class TestOutcomeProbabilities:
    def test_all_silent(self):
        out = outcome_probabilities(np.zeros(10))
        assert out[0] == pytest.approx(1.0, abs=1e-14)

    def test_equal_rates_binomial(self):
        out = outcome_probabilities([0.5] * 10)
        np.testing.assert_allclose(out, stats.binom.pmf(np.arange(11), 10, 0.5),
                                   atol=1e-12)

    def test_bright_probe_matches_bruteforce(self):
        p = coherent_bin_probs(DEVICE, 400.0)
        out = outcome_probabilities(p)
        for n in range(11):
            assert abs(out[n] - poisson_binomial_bruteforce(p, n)) < 1e-10


class TestAssembleOutcomeMatrix:
    def test_single_vacuum_run(self):
        hist = histogram_from_bin_counts(np.zeros(10, dtype=int), CFG)
        matrix = assemble_outcome_matrix([(hist, 1000)], CFG)
        assert matrix.values.shape == (1, 11)
        assert matrix.values[0, 0] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("row", [[np.nan] * 3, [np.nan, 0.5, 0.5]])
    def test_nan_outcome_rows_rejected(self, row):
        with pytest.raises(DataError):
            OutcomeMatrix(np.array([[1.0, 0.0, 0.0], row]), np.array([10, 10]))

    def test_empty_run_list_rejected(self):
        with pytest.raises(ConfigError):
            assemble_outcome_matrix([], CFG)

    def test_ensemble_length_mismatch_rejected(self):
        hist = histogram_from_bin_counts(np.zeros(10, dtype=int), CFG)
        ens = ProbeEnsemble.from_means([0.0, 1.0], truncation_dim=20)
        with pytest.raises(ConfigError):
            assemble_outcome_matrix([(hist, 100)], CFG, ens)

    @staticmethod
    def _assembly_peak(n_runs):
        """tracemalloc peak of assembling n_runs paper-sized raw histograms
        (140,601 bins) that a generator makes only when they are taken."""
        totals = np.arange(10) * 1000

        def runs():
            for _ in range(n_runs):
                yield histogram_from_bin_counts(totals, CFG), 450_000

        tracemalloc.start()
        try:
            matrix = assemble_outcome_matrix(runs(), CFG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix.values.shape == (n_runs, 11)
        return peak

    def test_generator_runs_are_held_one_at_a_time(self):
        one = histogram_from_bin_counts(np.zeros(10, dtype=int), CFG).counts.nbytes
        few, many = self._assembly_peak(5), self._assembly_peak(40)
        assert many <= few + 0.1 * one
        assert many <= 5 * one

    def test_run_count_is_checked_after_the_last_run(self):
        hist = histogram_from_bin_counts(np.zeros(10, dtype=int), CFG)
        ens = ProbeEnsemble.from_means([0.0, 1.0], truncation_dim=20)
        taken = []

        def runs(n):
            for k in range(n):
                taken.append(k)
                yield hist, 100

        assert assemble_outcome_matrix(runs(2), CFG, ens).values.shape == (2, 11)
        for n in (1, 3):
            taken.clear()
            with pytest.raises(ConfigError, match=f"^{n} runs but ensemble "
                               "defines 2 probes$"):
                assemble_outcome_matrix(runs(n), CFG, ens)
            assert taken == list(range(n))

    def test_simulated_ensemble_rows_normalized(self):
        runs = []
        for k, mu in enumerate([0.0, 1.0, 9.0, 100.0]):
            totals = simulate_bin_clicks(DEVICE, mu, 30_000, seed=100 + k)
            runs.append((histogram_from_bin_counts(totals, CFG), 30_000))
        matrix = assemble_outcome_matrix(runs, CFG)
        assert matrix.values.shape == (4, 11)
        assert np.abs(matrix.values.sum(axis=1) - 1.0).max() < 1e-10

    def test_occupancy_transform_consistent_with_joint_sample(self):
        # Poisson binomial of the marginals equals the occupied-bin
        # histogram only under independence; exercised here against the
        # simulator's joint sample with a chi-square at the 1% level.
        n = 150_000
        bins, outcomes = one_draw_per_bin(DEVICE, 4.0, n, seed=55)
        transform = outcome_probabilities(bin_probabilities(bins, n))
        observed = outcomes.astype(float)
        expected = transform * n
        keep = expected > 5.0
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        _, pvalue = stats.chisquare(obs, exp * obs.sum() / exp.sum())
        assert pvalue > 0.01


class TestHistogramSynthesis:
    def test_default_geometry_matches_defaults(self):
        hist = histogram_from_bin_counts(np.arange(10), CFG)
        assert hist.t0_ps == 1000.0
        assert hist.span_ps >= 9 * 156_000 + 1000

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError):
            TimeTagHistogram(np.array([1, -2]), 10.0)

    def test_wrong_totals_length(self):
        with pytest.raises(ConfigError):
            histogram_from_bin_counts(np.zeros(3, dtype=int), CFG)

    @pytest.mark.parametrize("width", [0.0, -10.0, np.nan, np.inf])
    def test_bad_bin_width_rejected(self, width):
        with pytest.raises(ConfigError):
            histogram_from_bin_counts(np.zeros(10, dtype=int), CFG, bin_width_ps=width)
