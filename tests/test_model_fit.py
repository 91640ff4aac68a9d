import numpy as np
import pytest
from scipy.optimize import least_squares

from looptomo import model_fit
from looptomo import (
    ConfigError,
    LoopParams,
    POVMSet,
    build_model_povm,
    default_starts,
    extrapolate_povm,
    fit_params,
)
from looptomo import detector_model
from looptomo.detector_model import model_povm_rows

DEVICE = LoopParams(0.89613, 0.9064, 0.4912, 10)
TRUE_X = np.array([0.89613, 0.9064, 0.4912])


class TestFitParams:
    def test_self_consistency_small_truncation(self):
        # fitting the model to its own output recovers the generator
        povm = build_model_povm(DEVICE, 600)
        result = fit_params(povm, 10)
        got = np.array(
            [
                result.params.reflectivity,
                result.params.loop_efficiency,
                result.params.det_efficiency,
            ]
        )
        np.testing.assert_allclose(got, TRUE_X, atol=1e-4)
        assert result.residual < 1e-6
        assert result.converged

    def test_single_start_fit(self):
        povm = build_model_povm(DEVICE, 300)
        start = LoopParams(0.8, 0.8, 0.6, 10)
        result = fit_params(povm, 10, starts=[start])
        got = np.array(
            [
                result.params.reflectivity,
                result.params.loop_efficiency,
                result.params.det_efficiency,
            ]
        )
        np.testing.assert_allclose(got, TRUE_X, atol=1e-4)

    def test_zero_efficiency_is_flagged_degenerate(self):
        # all outcome mass at n=0 leaves R and eta_loop unidentified
        degenerate = build_model_povm(LoopParams(0.9, 0.9, 0.0, 5), 50)
        result = fit_params(degenerate, 5, starts=[LoopParams(0.5, 0.5, 0.5, 5)])
        assert any("flat residual" in w for w in result.warnings)
        assert not result.converged
        assert result.uncertainties[0] == np.inf
        assert result.uncertainties[1] == np.inf

    def test_outcome_count_mismatch(self):
        povm = build_model_povm(DEVICE, 50)
        with pytest.raises(ConfigError):
            fit_params(povm, 7)

    def test_empty_starts_rejected(self):
        povm = build_model_povm(DEVICE, 50)
        with pytest.raises(ConfigError):
            fit_params(povm, 10, starts=[])

    def test_default_start_grid(self):
        starts = default_starts(10)
        assert len(starts) == 27
        values = {s.reflectivity for s in starts}
        assert values == {0.1, 0.545, 0.99}

    def test_identifiability_at_fitted_point(self):
        # +-1% single-parameter perturbations strictly increase the residual
        povm = build_model_povm(DEVICE, 5328)
        theta = povm.theta
        base = 0.0  # residual of the generator against itself
        for k in range(3):
            for sign in (1.0, -1.0):
                x = TRUE_X.copy()
                x[k] *= 1.0 + 0.01 * sign
                candidate = build_model_povm(
                    LoopParams(x[0], x[1], x[2], 10), 5328
                ).theta
                dist = np.linalg.norm(theta - candidate)
                assert dist > base + 1e-6

    def test_row_mask_restricts_fit(self):
        mask = np.zeros(201, dtype=bool)
        mask[:120] = True
        povm = POVMSet(build_model_povm(DEVICE, 200).theta, supported=mask)
        result = fit_params(povm, 10, starts=[LoopParams(0.8, 0.8, 0.6, 10)])
        got = np.array(
            [
                result.params.reflectivity,
                result.params.loop_efficiency,
                result.params.det_efficiency,
            ]
        )
        np.testing.assert_allclose(got, TRUE_X, atol=1e-3)

    def test_uncertainties_vanish_on_exact_data(self):
        povm = build_model_povm(DEVICE, 300)
        result = fit_params(povm, 10, starts=[LoopParams(0.85, 0.85, 0.55, 10)])
        assert all(u < 1e-3 or not np.isfinite(u) for u in result.uncertainties)

    def test_uncertainties_match_finite_difference_hessian(self):
        # reference: sigma^2 = diag(2 S/dof H^-1), H the central-difference
        # Hessian of the squared residual S at the fitted point
        rng = np.random.default_rng(300)
        exact = build_model_povm(DEVICE, 300).theta
        noisy = POVMSet(
            np.vstack([rng.multinomial(10**6, row) / 10**6 for row in exact])
        )
        result = fit_params(noisy, 10, starts=[LoopParams(0.8, 0.8, 0.6, 10)])
        rows = np.arange(301)

        def loss(v):
            d = model_povm_rows(LoopParams(*v, 10), rows) - noisy.theta
            return float((d * d).sum())

        x = np.array(
            [
                result.params.reflectivity,
                result.params.loop_efficiency,
                result.params.det_efficiency,
            ]
        )
        h = 1e-4
        e = np.eye(3) * h
        f0 = loss(x)
        hess = np.empty((3, 3))
        for a in range(3):
            hess[a, a] = (loss(x + e[a]) - 2 * f0 + loss(x - e[a])) / h**2
            for b in range(a + 1, 3):
                hess[a, b] = hess[b, a] = (
                    loss(x + e[a] + e[b])
                    - loss(x + e[a] - e[b])
                    - loss(x - e[a] + e[b])
                    + loss(x - e[a] - e[b])
                ) / (4 * h**2)
        dof = rows.size * 11 - 3
        ref = np.sqrt(np.diag(2.0 * f0 / dof * np.linalg.inv(hess)))
        assert result.converged
        np.testing.assert_allclose(result.uncertainties, ref, rtol=1e-2)

    def test_start_outside_bounds_is_clipped(self):
        povm = build_model_povm(DEVICE, 300)
        start = LoopParams(0.9995, 0.8, 0.6, 10)
        assert start.reflectivity > model_fit._PARAM_BOUNDS[1][0]
        result = fit_params(povm, 10, starts=[start])
        got = np.array(
            [
                result.params.reflectivity,
                result.params.loop_efficiency,
                result.params.det_efficiency,
            ]
        )
        np.testing.assert_allclose(got, TRUE_X, atol=1e-4)

    def test_evaluations_count_every_model_call(self, monkeypatch):
        calls = []

        def counted(params, photon_numbers):
            calls.append(1)
            return model_povm_rows(params, photon_numbers)

        monkeypatch.setattr(model_fit, "model_povm_rows", counted)
        povm = build_model_povm(DEVICE, 100)
        result = fit_params(povm, 10, starts=[LoopParams(0.8, 0.8, 0.6, 10)])
        assert result.n_evaluations == len(calls) > 0

    @pytest.mark.parametrize("masked", [False, True])
    def test_coarse_to_fine_matches_full_multistart(self, masked, monkeypatch):
        # reference: the full-row solve from every default start, lowest cost
        rng = np.random.default_rng(413)
        exact = build_model_povm(DEVICE, 400).theta
        noisy = POVMSet(
            np.vstack([rng.multinomial(10**6, row) / 10**6 for row in exact])
        )
        mask = np.ones(401, dtype=bool)
        if masked:
            mask[70::3] = False
            mask[200:260] = False
        rows = np.flatnonzero(mask)
        assert model_fit._search_positions(rows.size).size < rows.size

        def residuals(x):
            d = model_povm_rows(LoopParams(*x, 10), rows) - noisy.theta[rows]
            return d.ravel()

        ref = min(
            (
                least_squares(
                    residuals,
                    np.clip(
                        [s.reflectivity, s.loop_efficiency, s.det_efficiency],
                        *model_fit._PARAM_BOUNDS,
                    ),
                    bounds=model_fit._PARAM_BOUNDS,
                )
                for s in default_starts(10)
            ),
            key=lambda res: res.cost,
        )

        seen = []

        def recorded(params, photon_numbers):
            seen.append(np.asarray(photon_numbers))
            return model_povm_rows(params, photon_numbers)

        monkeypatch.setattr(model_fit, "model_povm_rows", recorded)
        result = fit_params(POVMSet(noisy.theta, supported=mask), 10)
        got = np.array(
            [
                result.params.reflectivity,
                result.params.loop_efficiency,
                result.params.det_efficiency,
            ]
        )
        np.testing.assert_allclose(got, ref.x, rtol=0, atol=1e-8)
        assert result.residual == pytest.approx(
            np.sqrt(2.0 * ref.cost), rel=1e-12
        )
        # every model call sees only fitted rows, most of them a strict subset
        assert all(np.isin(r, rows).all() for r in seen)
        assert min(r.size for r in seen) < rows.size


class TestExtrapolate:
    def test_delegates_to_forward_model(self):
        povm = extrapolate_povm(DEVICE, 11, 500)
        direct = build_model_povm(DEVICE, 500)
        np.testing.assert_array_equal(povm.theta, direct.theta)

    def test_rows_normalized_at_large_photon_number(self):
        povm = extrapolate_povm(DEVICE, 50, 3000)
        assert np.abs(povm.theta.sum(axis=1) - 1.0).max() < 1e-8
        assert povm.theta.shape == (3001, 50)

    def test_memory_guard(self):
        # 4 GB, refused before anything is allocated
        with pytest.raises(ConfigError, match="dense POVM needs"):
            extrapolate_povm(DEVICE, 50, 10**7)

    def test_chunking_is_invisible(self, monkeypatch):
        monkeypatch.setattr(detector_model, "_POVM_CHUNK", 123)
        params = DEVICE.with_bins(11)
        chunked = build_model_povm(params, 700).theta
        np.testing.assert_array_equal(chunked, model_povm_rows(params, np.arange(701)))

    def test_bad_outcome_count(self):
        with pytest.raises(ConfigError):
            extrapolate_povm(DEVICE, 0, 100)


class TestFitIdempotence:
    def test_fit_then_extrapolate_round_trip(self):
        povm = build_model_povm(DEVICE, 400)
        result = fit_params(povm, 10, starts=[LoopParams(0.9, 0.9, 0.5, 10)])
        rebuilt = extrapolate_povm(result.params, 11, 400)
        assert np.linalg.norm(rebuilt.theta - povm.theta) < 1e-6
