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


class TestTruncationRule:
    """One rule: a truncation is accepted iff it leaves every probe row
    complete to within ROW_COMPLETENESS_TOL, and the default is the smallest
    such truncation."""

    @pytest.mark.parametrize("max_mean, truncation", [
        (0.0, 0), (0.5, 9), (1.0, 11), (25.0, 60), (100.0, 166),
        (4900.0, 5326), (7.1e4, 72604), (1e6, 1006004),
    ])
    def test_default_truncation(self, max_mean, truncation):
        assert ProbeEnsemble.from_means([0.0, max_mean]).truncation_dim == truncation

    @pytest.mark.parametrize("means", [[0.0, 1.0], [0.0, 4.0, 25.0], [4900.0]])
    def test_default_keeps_every_row_complete(self, means):
        ens = ProbeEnsemble.from_means(means)
        deficit = 1.0 - build_probe_matrix(ens).values.sum(axis=1)
        assert deficit.max() <= ROW_COMPLETENESS_TOL
        # one photon less would lose more than the tolerance
        shorter = np.vstack([poisson_row(m, ens.truncation_dim - 1) for m in means])
        assert (1.0 - shorter.sum(axis=1)).max() > ROW_COMPLETENESS_TOL

    # 55 and 5320, 6 sigma above the mean, lose 6.6e-8 and 1.5e-9 of the row
    @pytest.mark.parametrize("mean, refused, accepted", [
        (25.0, [55, 59], [60]), (4900.0, [5320, 5325], [5326, 5328]),
    ])
    def test_explicit_truncation_keeps_every_row_complete(self, mean, refused,
                                                          accepted):
        minimum = accepted[0]
        for trunc in accepted:
            assert ProbeEnsemble.from_means([mean], trunc).truncation_dim == trunc
        for trunc in refused:
            with pytest.raises(ConfigError,
                               match=f"smallest complete truncation is {minimum}$"):
                ProbeEnsemble.from_means([mean], trunc)


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
        # the paper's truncation 5328 keeps every tail below 1e-9
        mat = build_probe_matrix(ProbeEnsemble.quadratic())
        assert (1.0 - mat.values.sum(axis=1)).max() <= 1e-9

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
