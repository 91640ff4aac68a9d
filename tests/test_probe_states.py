import math

import numpy as np
import pytest

from looptomo import (
    ConfigError,
    ProbeEnsemble,
    build_probe_matrix,
    poisson_pmf,
    poisson_row,
)
from looptomo.probe_states import _LN_FACTORIAL, ROW_COMPLETENESS_TOL

# mpmath oracle exp(i ln mu - mu - lgamma(i+1)) at 40 digits, mu = 4900
MPMATH_PMF_4900 = {
    4830: 0.003473283891341130850292,
    4900: 0.005699078510378216952239,
    4970: 0.003440361348159847862512,
}


class TestPoissonRow:
    def test_vacuum(self):
        np.testing.assert_array_equal(poisson_row(0.0, 5), [1, 0, 0, 0, 0, 0])

    def test_unit_mean(self):
        e = math.exp(-1.0)
        np.testing.assert_allclose(poisson_row(1.0, 2), [e, e, e / 2], rtol=1e-15)

    def test_high_mean_matches_frozen_oracle(self):
        row = poisson_row(4900.0, 5328)
        for i, expected in MPMATH_PMF_4900.items():
            assert abs(row[i] - expected) / expected < 1e-12

    def test_high_mean_against_live_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        mu = 4900
        row = poisson_row(float(mu), 5328)
        for i in range(4400, 5329, 61):
            exact = float(mp.exp(i * mp.log(mu) - mu - mp.loggamma(i + 1)))
            assert abs(row[i] - exact) / exact < 1e-12

    def test_no_subnormal_entries(self):
        row = poisson_row(4900.0, 5328)
        assert not np.any((row > 0) & (row < np.finfo(float).tiny))

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_row(-0.5, 4)

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError):
            poisson_row(1.0, -1)

    def test_log_space_matches_direct_where_direct_is_exact(self):
        # direct float evaluation e^-mu mu^i / i! is fine up to i ~ 150
        for mu in (0.5, 3.0, 12.0, 30.0):
            row = poisson_row(mu, 150)
            for i in range(151):
                direct = math.exp(-mu) * mu**i / math.factorial(i)
                if direct > 1e-300:
                    assert abs(row[i] - direct) <= 1e-12 * direct


class TestDefaultTruncation:
    @staticmethod
    def _truncation(max_mean):
        return ProbeEnsemble.from_means([max_mean], tail_sigmas=6.0).truncation_dim

    def test_vacuum(self):
        assert self._truncation(0.0) == 0

    # the 6-sigma minimum (5320 and 160) leaves 1.5e-9 and 1.3e-8 of these
    # rows beyond it; the default goes on until 1e-9 or less is left
    def test_largest_probe(self):
        assert self._truncation(4900.0) == 5326

    def test_round_number(self):
        assert self._truncation(100.0) == 166

    @pytest.mark.parametrize("means", [[0.0, 1.0], [0.0, 4.0, 25.0], [4900.0]])
    def test_default_keeps_every_row_complete(self, recwarn, means):
        ens = ProbeEnsemble.from_means(means)
        deficit = 1.0 - build_probe_matrix(ens).values.sum(axis=1)
        assert deficit.max() <= ROW_COMPLETENESS_TOL
        assert not recwarn.list
        # one photon less would not do
        shorter = ProbeEnsemble.from_means(means, ens.truncation_dim - 1)
        with pytest.warns(UserWarning):
            build_probe_matrix(shorter)

    def test_explicit_truncation_keeps_the_six_sigma_minimum(self):
        assert ProbeEnsemble.from_means([4900.0], 5320).truncation_dim == 5320
        with pytest.raises(ConfigError):
            ProbeEnsemble.from_means([4900.0], 5319)


class TestProbeEnsemble:
    def test_quadratic_means(self):
        ens = ProbeEnsemble.quadratic()
        assert len(ens) == 71
        assert ens.truncation_dim == 5328
        np.testing.assert_array_equal(ens.means, np.arange(71.0) ** 2)

    def test_truncation_bound_enforced(self):
        with pytest.raises(ConfigError):
            ProbeEnsemble.from_means([0.0, 100.0], truncation_dim=120)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ProbeEnsemble(means=(), truncation_dim=10)

    def test_negative_mean_rejected(self):
        # rejected before the default truncation is derived from the means
        with pytest.raises(ValueError):
            ProbeEnsemble.from_means([0.0, -1.0])


class TestBuildProbeMatrix:
    def test_single_vacuum_probe(self):
        ens = ProbeEnsemble.from_means([0.0], truncation_dim=8)
        mat = build_probe_matrix(ens)
        expected = np.zeros((1, 9))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(mat.values, expected)

    def test_two_probes_match_independent_pmf(self):
        ens = ProbeEnsemble.from_means([1.0, 2.0], truncation_dim=40)
        mat = build_probe_matrix(ens)
        for d, mu in enumerate((1.0, 2.0)):
            for i in range(41):
                exact = math.exp(-mu) * mu**i / math.factorial(i)
                assert abs(mat.values[d, i] - exact) <= 1e-13 * max(exact, 1e-300)

    def test_standard_ensemble_dimensions(self):
        mat = build_probe_matrix(ProbeEnsemble.quadratic())
        assert mat.values.shape == (71, 5329)
        # no subnormal entries: they would slow every product with F
        v = mat.values
        assert not np.any((v > 0) & (v < np.finfo(float).tiny))

    def test_row_completeness_within_1e9(self):
        # the 6-sigma rule with the 5328 override keeps every tail below 1e-9
        mat = build_probe_matrix(ProbeEnsemble.quadratic())
        assert (1.0 - mat.values.sum(axis=1)).max() <= 1e-9

    def test_marginal_truncation_warns(self):
        # at exactly 6 sigma a mid-range mean keeps more than 1e-9 in the tail
        ens = ProbeEnsemble.from_means([25.0], truncation_dim=55)
        with pytest.warns(UserWarning):
            build_probe_matrix(ens)

    def test_monotone_truncation(self):
        means = [0.0, 4.0, 9.0]
        sums = []
        for trunc in (40, 60, 90):
            ens = ProbeEnsemble.from_means(means, truncation_dim=trunc)
            sums.append(build_probe_matrix(ens).values.sum(axis=1))
        assert np.all(sums[1] >= sums[0]) and np.all(sums[2] >= sums[1])

    def test_entries_are_probabilities(self):
        mat = build_probe_matrix(ProbeEnsemble.from_means([3.0, 7.5], 60))
        assert mat.values.min() >= 0.0
        assert mat.values.max() <= 1.0
        assert np.all(mat.values.sum(axis=1) <= 1.0 + 1e-12)

    def test_values_are_frozen(self):
        mat = build_probe_matrix(ProbeEnsemble.from_means([1.0], 30))
        with pytest.raises(ValueError):
            mat.values[0, 0] = 2.0


def test_poisson_pmf_on_window():
    i = np.arange(70990, 71011)
    pm = poisson_pmf(i, 71000.0)
    assert pm.max() == pytest.approx(1.0 / math.sqrt(2 * math.pi * 71000.0), rel=1e-3)


def test_ln_factorial_table_is_gammaln_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    n = np.arange(_LN_FACTORIAL.size, dtype=float)
    assert _LN_FACTORIAL.tobytes() == special.gammaln(n + 1.0).tobytes()
