import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from looptomo import (
    DataError,
    LoopParams,
    coherent_bin_probs,
    coherent_outcome_distribution,
    crosscheck_fock_path,
    estimate_mean_photon,
    estimation,
    per_photon_bin_probs,
    poisson_binomial_rows,
    simulate_bin_totals,
)
from looptomo.detector_model import fock_sum_bin_prob
from looptomo.ingest import bin_probabilities, outcome_probabilities

BRIGHT = LoopParams(0.89613, 0.9064, 0.4912, 119)
TEN = LoopParams(0.89613, 0.9064, 0.4912, 10)


class TestEstimateMeanPhoton:
    def test_no_clicks_means_vacuum(self):
        p = np.zeros(120)
        p[0] = 1.0
        est = estimate_mean_photon(p, BRIGHT)
        assert est == estimation.BrightStateEstimate(0.0, 0.0)

    def test_no_bootstrap_means_no_interval(self):
        p = coherent_outcome_distribution(BRIGHT, 5000.0)
        est = estimate_mean_photon(p, BRIGHT)
        assert est.bootstrap_interval is None
        assert est.n_bootstrap == 0
        q = per_photon_bin_probs(BRIGHT)
        assert est.residual == estimation._distances(
            np.array([math.log(est.mean_photon)]), p, q)[0]

    def test_noiseless_bright_state(self):
        p = coherent_outcome_distribution(BRIGHT, 71000.0)
        est = estimate_mean_photon(p, BRIGHT)
        assert abs(est.mean_photon / 71000.0 - 1.0) < 1e-3
        assert est.residual < 1e-9

    @pytest.mark.parametrize("mu", [1.0, 100.0, 10_000.0, 71_000.0])
    def test_round_trip_consistency(self, mu):
        p = coherent_outcome_distribution(BRIGHT, mu)
        est = estimate_mean_photon(p, BRIGHT)
        assert abs(est.mean_photon / mu - 1.0) < 1e-6

    def test_unnormalized_input_rejected(self):
        p = np.full(120, 0.5 / 119)
        with pytest.raises(DataError):
            estimate_mean_photon(p, BRIGHT)

    @pytest.mark.parametrize("nan_at", [0, 1, 119])
    def test_nan_input_rejected(self, nan_at):
        p = coherent_outcome_distribution(BRIGHT, 100.0)
        p[nan_at] = np.nan
        with pytest.raises(DataError):
            estimate_mean_photon(p, BRIGHT)

    def test_wrong_length_rejected(self):
        with pytest.raises(DataError):
            estimate_mean_photon(np.ones(11) / 11, BRIGHT)

    @pytest.mark.parametrize("saturated", [
        np.eye(11)[10], coherent_outcome_distribution(TEN, 1e7)
    ])
    def test_saturated_data_is_not_identified(self, saturated):
        # every pulse clicks every bin: the residual is zero for every large
        # mean, so the data bound the mean only from below
        with pytest.raises(DataError, match="not identified"):
            estimate_mean_photon(saturated, TEN)

    def test_two_state_mixture_aborts(self):
        mix = 0.5 * coherent_outcome_distribution(BRIGHT, 2.0)
        mix = mix + 0.5 * coherent_outcome_distribution(BRIGHT, 71_000.0)
        with pytest.raises(RuntimeError):
            estimate_mean_photon(mix, BRIGHT)

    def test_noisy_trials_with_bootstrap_coverage(self):
        # parametric bootstrap interval covers the truth in >= 90 of 100
        # seeded binomial-noise trials at the bright-state scale
        n_pulses = 15_000_000
        mu_true = 71_000.0
        hits = 0
        for k in range(100):
            counts = simulate_bin_totals(BRIGHT, mu_true, n_pulses, seed=1000 + k)
            p_hat = outcome_probabilities(bin_probabilities(counts, n_pulses))
            est = estimate_mean_photon(
                p_hat, BRIGHT, n_pulses=n_pulses, n_bootstrap=99, seed=k
            )
            assert abs(est.mean_photon / mu_true - 1.0) < 0.05
            lo, hi = est.bootstrap_interval
            hits += lo <= mu_true <= hi
        assert hits >= 90

    def test_bootstrap_requires_pulse_count(self):
        p = coherent_outcome_distribution(BRIGHT, 100.0)
        with pytest.raises(DataError):
            estimate_mean_photon(p, BRIGHT, n_bootstrap=10)

    def test_seeded_determinism(self):
        n_pulses = 10**6
        counts = simulate_bin_totals(BRIGHT, 5000.0, n_pulses, seed=4)
        p_hat = outcome_probabilities(bin_probabilities(counts, n_pulses))
        a = estimate_mean_photon(p_hat, BRIGHT, n_pulses=n_pulses, n_bootstrap=20,
                                 seed=9)
        b = estimate_mean_photon(p_hat, BRIGHT, n_pulses=n_pulses, n_bootstrap=20,
                                 seed=9)
        assert a.mean_photon == b.mean_photon
        assert a.bootstrap_interval == b.bootstrap_interval


def _scipy_estimates(p_rows, q, lg):
    """Per row: the pre-scan bracket, then scipy's golden section on the
    search's own distance evaluated as a one-row batch; (estimates, steps)."""
    res = estimation._pre_scan(p_rows, q, lg)
    out, steps = [], []
    for p, r in zip(p_rows, res):
        k = int(np.argmin(r))
        if k in (0, lg.size - 1):
            out.append(lg[k])
            continue
        opt = minimize_scalar(
            lambda x: estimation._distances(np.array([x]), p[None, :], q)[0],
            bracket=(lg[k - 1], lg[k], lg[k + 1]),
            method="golden",
            options=dict(xtol=1e-9),
        )
        out.append(opt.x)
        steps.append(opt.nit)
    return np.array(out), steps


class TestLockstepSearch:
    def test_bootstrap_draws_equal_scipy_golden(self):
        n_pulses = 10**6
        counts = simulate_bin_totals(BRIGHT, 5000.0, n_pulses, seed=4)
        p_hat = outcome_probabilities(bin_probabilities(counts, n_pulses))
        est = estimate_mean_photon(p_hat, BRIGHT, n_pulses=n_pulses,
                                   n_bootstrap=20, seed=9)
        # the bootstrap's draws, rebuilt from its seed and fitted rates
        mu = est.mean_photon
        rng = np.random.default_rng(np.random.SeedSequence([9]))
        counts = rng.binomial(n_pulses, coherent_bin_probs(BRIGHT, mu), (20, 119))
        p_boot = poisson_binomial_rows(counts / n_pulses)
        lg = np.linspace(math.log(mu / 4.0), math.log(mu * 4.0), 41)
        q = per_photon_bin_probs(BRIGHT)
        lockstep = estimation._estimate_rows(p_boot, q, lg)
        reference, _ = _scipy_estimates(p_boot, q, lg)
        assert np.array_equal(lockstep, reference)
        q_lo, q_hi = np.percentile(np.exp(lockstep), (2.5, 97.5))
        assert est.bootstrap_interval == (max(0.0, 2 * mu - q_hi), 2 * mu - q_lo)

    def test_rows_stopping_at_different_steps(self):
        # the stopping test is relative to |log mu|, so a mean near 1 needs
        # more steps than a bright one
        means = [1.5, 30.0, 5000.0, 71_000.0]
        p_rows = np.vstack([coherent_outcome_distribution(BRIGHT, m) for m in means])
        q = per_photon_bin_probs(BRIGHT)
        lg = np.linspace(math.log(1e-3), math.log(1e9), 121)
        lockstep = estimation._estimate_rows(p_rows, q, lg)
        reference, steps = _scipy_estimates(p_rows, q, lg)
        assert len(set(steps)) > 1
        assert np.array_equal(lockstep, reference)
        # the point estimate is the same search on a one-row batch
        for p, x in zip(p_rows, lockstep):
            assert estimate_mean_photon(p, BRIGHT).mean_photon == math.exp(x)

    def test_minimum_on_grid_edge_returns_grid_point(self):
        means = [5000.0 / 10, 5000.0, 5000.0 * 10]
        p_rows = np.vstack([coherent_outcome_distribution(BRIGHT, m) for m in means])
        q = per_photon_bin_probs(BRIGHT)
        lg = np.linspace(math.log(5000.0 / 4), math.log(5000.0 * 4), 41)
        lockstep = estimation._estimate_rows(p_rows, q, lg)
        reference, _ = _scipy_estimates(p_rows, q, lg)
        assert np.array_equal(lockstep, reference)
        assert lockstep[0] == lg[0] and lockstep[2] == lg[-1]
        assert abs(math.exp(lockstep[1]) / 5000.0 - 1.0) < 1e-6


class TestPathEquivalence:
    def test_vacuum(self):
        out = crosscheck_fock_path(0.0, TEN)
        np.testing.assert_array_equal(out, np.eye(11)[0])

    def test_marginal_mixture_is_exact(self):
        # the per-bin Poisson mixture identity holds to truncation error
        for mu in (1.0, 100.0, 4900.0):
            analytic = coherent_bin_probs(TEN, mu)
            for j in (1, 3, 10):
                window = fock_sum_bin_prob(TEN, mu, j)
                assert abs(analytic[j - 1] - window) < 1e-10

    def test_distributions_agree_to_independence_floor(self):
        # the joint distributions differ by the covariance the
        # independent-bin Fock rows ignore: second order in the per-bin
        # rates, far below the per-outcome scale at the bright config
        p_analytic = coherent_outcome_distribution(BRIGHT, 71_000.0)
        p_fock = crosscheck_fock_path(71_000.0, BRIGHT)
        assert np.abs(p_fock - p_analytic).max() < 5e-5
        assert abs(p_fock.sum() - 1.0) < 1e-8

    def test_moderate_scale_difference_is_second_order(self):
        p_analytic = coherent_outcome_distribution(TEN, 100.0)
        p_fock = crosscheck_fock_path(100.0, TEN)
        # dominated by q_1^2-scale covariance terms
        assert np.abs(p_fock - p_analytic).max() < 2e-2
        assert np.abs(p_fock - p_analytic).max() > 1e-5


class TestMonotonicity:
    def test_expected_occupancy_strictly_increasing(self):
        mus = np.geomspace(1e-2, 1e6, 50)
        occ = np.array([coherent_bin_probs(BRIGHT, m).sum() for m in mus])
        assert np.all(np.diff(occ) > 0)
