import tracemalloc

import numpy as np
import pytest
from scipy import stats

from looptomo import detector_model

from looptomo import (
    ConfigError,
    LoopParams,
    POVMSet,
    build_model_povm,
    coherent_bin_probs,
    per_photon_bin_probs,
    poisson_binomial_bruteforce,
    poisson_binomial_pmf,
    poisson_binomial_rows,
    simulate_bin_clicks,
    simulate_bin_totals,
)
from looptomo.detector_model import (
    fock_bin_prob_rows,
    fock_sum_bin_prob,
    model_povm_rows,
)

from joint_sample import one_draw_per_bin

DEVICE = LoopParams(
    reflectivity=0.89613,
    loop_efficiency=0.9064,
    det_efficiency=0.4912,
    n_bins=10,
)


class TestPerPhotonBinProbs:
    def test_first_bin_is_direct_reflection(self):
        q = per_photon_bin_probs(DEVICE)
        assert q[0] == pytest.approx(0.89613 * 0.4912, abs=1e-15)
        assert q[0] == pytest.approx(0.44018, abs=1e-5)

    def test_zero_detector_efficiency(self):
        p = LoopParams(0.9, 0.9, 0.0, 8)
        assert np.all(per_photon_bin_probs(p) == 0.0)

    def test_half_reflectivity_hand_values(self):
        p = LoopParams(0.5, 1.0, 1.0, 6)
        q = per_photon_bin_probs(p)
        assert q[0] == pytest.approx(0.5, abs=1e-15)
        for j in range(2, 7):
            assert q[j - 1] == pytest.approx(0.5 ** (j - 1) * 0.5, rel=1e-14)

    def test_exact_geometric_decay(self):
        q = per_photon_bin_probs(DEVICE)
        ratio = DEVICE.reflectivity * DEVICE.loop_efficiency
        np.testing.assert_allclose(q[2:] / q[1:-1], ratio, rtol=1e-13)


def _fock_click(j, i):
    """Click probability of bin j (1-based) for i photons."""
    return fock_bin_prob_rows(DEVICE, np.array([i]))[0, j - 1]


class TestFockBinProbRows:
    def test_zero_photons_never_click(self):
        for j in range(1, 11):
            assert _fock_click(j, 0) == 0.0

    def test_single_photon_first_bin(self):
        assert _fock_click(1, 1) == pytest.approx(0.89613 * 0.4912, rel=1e-14)

    def test_matches_direct_formula_transcription(self):
        # independent evaluation of both branches
        r, el, ed = 0.89613, 0.9064, 0.4912
        j, i = 3, 10
        qj = (1 - r) ** 2 * ed / r * (r * el) ** (j - 1)
        expected = 1.0 - (1.0 - qj) ** i
        assert _fock_click(j, i) == pytest.approx(expected, abs=1e-14)

    def test_monotone_in_photon_number(self):
        rows = fock_bin_prob_rows(DEVICE, np.arange(0, 200, 7))
        for j in (1, 4, 10):
            assert np.all(np.diff(rows[:, j - 1]) >= 0)


class TestCoherentBinProbs:
    def test_vacuum(self):
        assert coherent_bin_probs(DEVICE, 0.0)[0] == 0.0

    def test_unit_mean_first_bin(self):
        q1 = 0.89613 * 0.4912
        expected = 1.0 - np.exp(-q1)
        analytic = coherent_bin_probs(DEVICE, 1.0)[0]
        assert analytic == pytest.approx(expected, rel=1e-14)
        # Fock-sum oracle with wide window
        oracle = fock_sum_bin_prob(DEVICE, 1.0, 1)
        assert abs(analytic - oracle) < 1e-10

    @pytest.mark.parametrize("mu", [0.1, 1.0, 10.0, 100.0, 4900.0])
    def test_poisson_mixture_shortcut(self, mu):
        analytic = coherent_bin_probs(DEVICE, mu)
        for j in (1, 2, 5, 10):
            oracle = fock_sum_bin_prob(DEVICE, mu, j)
            assert abs(analytic[j - 1] - oracle) < 1e-8


class TestPoissonBinomialBruteforce:
    def test_all_zero(self):
        assert poisson_binomial_bruteforce([0.0, 0.0, 0.0], 0) == 1.0

    def test_two_fair_coins(self):
        assert poisson_binomial_bruteforce([0.5, 0.5], 1) == pytest.approx(0.5)

    def test_hand_enumeration(self):
        # 0.1*0.2*0.7 + 0.1*0.8*0.3 + 0.9*0.2*0.3
        assert poisson_binomial_bruteforce([0.1, 0.2, 0.3], 2) == pytest.approx(
            0.092, abs=1e-15
        )

    def test_refuses_long_vectors(self):
        with pytest.raises(ValueError):
            poisson_binomial_bruteforce([0.5] * 21, 3)


class TestPoissonBinomialClosed:
    def test_matches_hand_enumeration(self):
        assert poisson_binomial_pmf([0.1, 0.2, 0.3])[2] == pytest.approx(
            0.092, abs=1e-12
        )

    def test_equal_probability_reduces_to_binomial(self):
        pmf = poisson_binomial_pmf([0.3] * 5)
        expected = stats.binom.pmf(np.arange(6), 5, 0.3)
        np.testing.assert_allclose(pmf, expected, atol=1e-12)

    def test_certain_bins(self):
        assert poisson_binomial_pmf([1.0] * 10)[10] == pytest.approx(1.0, abs=1e-12)

    def test_randomized_oracle_equivalence(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(300):
            length = int(rng.integers(1, 13))
            p = rng.random(length)
            pmf = poisson_binomial_pmf(p)
            n = int(rng.integers(0, length + 1))
            worst = max(worst, abs(pmf[n] - poisson_binomial_bruteforce(p, n)))
        assert worst < 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_binomial_pmf([0.5, 1.2])
        # two bins have no third success
        with pytest.raises(IndexError):
            poisson_binomial_pmf([0.5, 0.5])[3]

    def test_pmf_normalized(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.random(int(rng.integers(1, 120)))
            assert abs(poisson_binomial_pmf(p).sum() - 1.0) < 1e-10


class TestPoissonBinomialRows:
    def test_many_rows_match_single_rows_and_enumeration(self):
        # one recurrence for any row count; a row's pmf does not depend on
        # the rows batched with it
        rng = np.random.default_rng(11)
        for nb in range(13):
            pmat = rng.random((7, nb))
            pmfs = poisson_binomial_rows(pmat)
            assert pmfs.shape == (7, nb + 1)
            for r, p in enumerate(pmat):
                single = poisson_binomial_rows(p[None, :])[0]
                assert np.abs(pmfs[r] - single).max() < 1e-15
                brute = [poisson_binomial_bruteforce(p, n) for n in range(nb + 1)]
                assert np.abs(pmfs[r] - brute).max() < 1e-10

    @pytest.mark.parametrize("nb", [50, 119])
    @pytest.mark.parametrize("rows", [1, 64])
    def test_rows_are_distributions_at_large_bin_counts(self, nb, rows):
        rng = np.random.default_rng(nb + rows)
        pmat = rng.random((rows, nb)) ** rng.uniform(0.05, 20.0, (rows, 1))
        pmfs = poisson_binomial_rows(pmat)
        assert pmfs.min() >= 0.0
        assert np.abs(pmfs.sum(axis=1) - 1.0).max() < 1e-12


class TestFockOutcomeDistribution:
    def test_vacuum_input(self):
        dist = model_povm_rows(DEVICE, np.array([0]))[0]
        np.testing.assert_allclose(dist, np.eye(11)[0], atol=1e-14)

    def test_single_photon(self):
        q = per_photon_bin_probs(DEVICE)
        dist = model_povm_rows(DEVICE, np.array([1]))[0]
        assert dist[0] == pytest.approx(np.prod(1 - q), rel=1e-12)
        p1 = sum(q[j] * np.prod(np.delete(1 - q, j)) for j in range(10))
        assert dist[1] == pytest.approx(p1, rel=1e-12)
        for n in range(11):
            assert dist[n] == pytest.approx(
                poisson_binomial_bruteforce(q, n), abs=1e-12
            )

    def test_hundred_photons_vs_bruteforce(self):
        probs = fock_bin_prob_rows(DEVICE, np.array([100]))[0]
        dist = model_povm_rows(DEVICE, np.array([100]))[0]
        for n in range(11):
            assert abs(dist[n] - poisson_binomial_bruteforce(probs, n)) < 1e-10

    def test_normalization(self):
        for i in (0, 1, 17, 4900, 10**6):
            dist = model_povm_rows(DEVICE, np.array([i]))[0]
            assert abs(dist.sum() - 1.0) < 1e-10

    def test_mean_occupancy_nondecreasing_in_photon_number(self):
        grid = np.arange(11)
        means = [
            model_povm_rows(DEVICE, np.array([i]))[0] @ grid
            for i in range(0, 400, 13)
        ]
        assert np.all(np.diff(means) >= -1e-12)


class TestBuildModelPovm:
    def test_trivial_truncation(self):
        povm = build_model_povm(DEVICE, 0)
        assert povm.theta.shape == (1, 11)
        np.testing.assert_allclose(povm.theta[0], np.eye(11)[0], atol=1e-14)

    def test_rows_are_distributions(self):
        povm = build_model_povm(DEVICE, 2000)
        assert np.abs(povm.theta.sum(axis=1) - 1.0).max() < 1e-10
        assert povm.theta.min() >= 0.0

    def test_outcome_peaks_shift_to_higher_photon_numbers(self):
        povm = build_model_povm(DEVICE, 5328)
        peaks = [int(np.argmax(povm.theta[:, n])) for n in range(11)]
        assert all(b > a for a, b in zip(peaks[:-1], peaks[1:]))

    def test_many_outcome_slice_keeps_peak_ordering(self):
        povm = build_model_povm(DEVICE.with_bins(49), 20000)
        peaks = [int(np.argmax(povm.theta[:, n])) for n in range(1, 11)]
        assert all(b > a for a, b in zip(peaks[:-1], peaks[1:]))

    def test_rows_across_a_chunk_boundary_match_rows_alone(self):
        chunk = detector_model._POVM_CHUNK
        assert chunk % detector_model._ROW_BLOCK == 0
        params = DEVICE.with_bins(49)
        theta = build_model_povm(params, chunk + 10).theta
        for i in (0, chunk - 1, chunk, chunk + 10):
            np.testing.assert_array_equal(
                theta[i], model_povm_rows(params, np.array([i]))[0]
            )

    def test_peak_memory_near_the_povm_itself(self):
        # 10^5 rows at 50 outcomes: the extrapolation benchmark's POVM
        tracemalloc.start()
        try:
            povm = build_model_povm(DEVICE.with_bins(49), 99_999)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * povm.theta.nbytes


def test_povm_without_support_mask_flags_every_row():
    supported = POVMSet(np.array([[1.0, 0.0], [0.5, 0.5]])).supported
    np.testing.assert_array_equal(supported, [True, True])
    assert not supported.flags.writeable


@pytest.mark.parametrize("row", [[np.nan, np.nan], [np.nan, 1.0], [0.5, np.nan]])
def test_povm_with_nan_is_rejected(row):
    with pytest.raises(ConfigError):
        POVMSet(np.array([[1.0, 0.0], row]))


class TestSimulator:
    # segment edges, a two-chunk run and a run shorter than one segment
    @pytest.mark.parametrize("n_pulses", [1, 5, 1 << 15, (1 << 15) + 1,
                                          (1 << 20) + 3])
    def test_buffered_draws_match_one_draw_per_bin(self, n_pulses):
        totals = simulate_bin_clicks(DEVICE, 9.0, n_pulses, seed=17)
        bins, _ = one_draw_per_bin(DEVICE, 9.0, n_pulses, seed=17)
        assert totals.dtype == np.int64
        np.testing.assert_array_equal(totals, bins)

    def test_vacuum_is_silent(self):
        assert simulate_bin_clicks(DEVICE, 0.0, 5000, seed=0).sum() == 0

    def test_seed_determinism(self):
        a = simulate_bin_clicks(DEVICE, 25.0, 20000, seed=123)
        b = simulate_bin_clicks(DEVICE, 25.0, 20000, seed=123)
        np.testing.assert_array_equal(a, b)

    def test_marginals_within_5_sigma(self):
        n = 450_000  # 30 s at 15 kHz
        totals = simulate_bin_clicks(DEVICE, 25.0, n, seed=11)
        c = coherent_bin_probs(DEVICE, 25.0)
        sigma = np.sqrt(np.maximum(n * c * (1 - c), 1.0))
        assert np.all(np.abs(totals - n * c) < 5 * sigma)

    def test_totals_path_within_5_sigma(self):
        n = 450_000
        counts = simulate_bin_totals(DEVICE, 100.0, n, seed=5)
        c = coherent_bin_probs(DEVICE, 100.0)
        sigma = np.sqrt(np.maximum(n * c * (1 - c), 1.0))
        assert np.all(np.abs(counts - n * c) < 5 * sigma)

    def test_occupancy_histogram_matches_transform(self):
        # inter-bin independence holds by construction, so the sampled
        # occupied-bin histogram must match the Poisson binomial of the
        # analytic marginals (chi-square at the 1% level)
        n = 200_000
        _, outcomes = one_draw_per_bin(DEVICE, 3.0, n, seed=21)
        expected = poisson_binomial_pmf(coherent_bin_probs(DEVICE, 3.0)) * n
        observed = outcomes.astype(float)
        keep = expected > 5.0
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        _, pvalue = stats.chisquare(obs, exp * obs.sum() / exp.sum())
        assert pvalue > 0.01

    def test_dark_counts_on_vacuum(self):
        n = 2_000_000
        dark = 1e-4  # exaggerated so the test is fast and tight
        totals = simulate_bin_clicks(DEVICE, 0.0, n, seed=31, dark_prob=dark)
        rate = totals.sum() / (n * DEVICE.n_bins)
        assert rate == pytest.approx(dark, rel=0.2)

    def test_mean_occupancy_strictly_increasing(self):
        # above mu ~ 3e4 every bin saturates to 1.0 in double precision
        mus = np.geomspace(1e-2, 1e4, 40)
        occ = [coherent_bin_probs(DEVICE, m).sum() for m in mus]
        assert np.all(np.diff(occ) > 0)

    def test_invalid_pulse_count(self):
        with pytest.raises(ValueError):
            simulate_bin_clicks(DEVICE, 1.0, 0, seed=0)

    @pytest.mark.parametrize("dark", [-0.1, 1.0, np.nan])
    def test_invalid_dark_prob(self, dark):
        with pytest.raises(ValueError, match="dark_prob"):
            simulate_bin_clicks(DEVICE, 1.0, 10, seed=0, dark_prob=dark)
