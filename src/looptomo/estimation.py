"""Mean-photon-number estimation for bright coherent states.

Given a measured outcome distribution and fitted loop parameters, the mean
photon number is the coherent amplitude whose model outcome distribution
is closest in Euclidean distance. The model distribution is evaluated
analytically: per-bin rates 1 - exp(-mu q_j), one row per candidate mean,
fed through ``detector_model.poisson_binomial_rows``. The explicit product
of a truncated Poisson row with the extrapolated Fock POVM is kept as a
cross-check path; its per-bin marginals match the analytic rates exactly,
while the distributions agree only up to the covariance the independent-bin
Fock rows ignore (second order in the bin rates). The resulting estimates
coincide far more tightly because that covariance term is symmetric about
the residual minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .detector_model import (
    LoopParams,
    coherent_bin_probs,
    coherent_outcome_distribution,
    model_povm_rows,
    per_photon_bin_probs,
    poisson_binomial_pmf,
    poisson_binomial_rows,
)
from .errors import CompetingBasinError, DataError
from .probe_states import poisson_pmf, poisson_window

DEFAULT_MU_BOUNDS = (1e-3, 1e9)


@dataclass(frozen=True)
class BrightStateEstimate:
    """Estimated mean photon number per pulse with labeled intervals."""

    mean_photon: float
    residual: float
    #: the bootstrap interval, or None when no bootstrap ran
    confidence_interval: tuple[float, float] | None
    method: str
    curvature_interval: tuple[float, float]
    bootstrap_interval: tuple[float, float] | None = None
    n_bootstrap: int = 0


def _distance(log_mu: float, p_obs: np.ndarray, params: LoopParams) -> float:
    """Euclidean distance from p_obs to the model at mean exp(log_mu)."""
    model = coherent_outcome_distribution(params, math.exp(log_mu))
    return float(np.linalg.norm(p_obs - model))


def crosscheck_fock_path(
    mean_photon: float,
    params: LoopParams,
    tail_sigmas: float = 8.0,
    chunk_rows: int = 100_000,
) -> np.ndarray:
    """Outcome distribution via explicit Poisson row times Fock POVM.

    The Poisson weights are restricted to ``probe_states.poisson_window``
    and the POVM rows are accumulated in chunks, so the memory footprint is
    bounded regardless of the mean.
    """
    if mean_photon < 0:
        raise ValueError(f"mean_photon must be >= 0, got {mean_photon}")
    if mean_photon == 0:
        out = np.zeros(params.n_outcomes)
        out[0] = 1.0
        return out
    lo, hi = poisson_window(mean_photon, tail_sigmas)
    acc = np.zeros(params.n_outcomes)
    for start in range(lo, hi + 1, chunk_rows):
        stop = min(start + chunk_rows - 1, hi)
        i = np.arange(start, stop + 1)
        weights = poisson_pmf(i, mean_photon)
        acc += weights @ model_povm_rows(params, i)
    return acc


def _pre_scan(p_obs, params, mu_bounds, grid_points):
    """Residuals on a log grid; abort when a second deep basin competes.

    The Euclidean distance between nearly-disjoint distributions carries
    shallow ripples (the model norm varies as its peak sweeps the outcome
    axis), so strict unimodality cannot be required; what is diagnosed is a
    second local minimum whose depth rivals the global one, which signals
    data incompatible with any single coherent state.
    """
    lg = np.linspace(math.log(mu_bounds[0]), math.log(mu_bounds[1]), grid_points)
    q = per_photon_bin_probs(params)
    rates = -np.expm1(-np.exp(lg)[:, None] * q[None, :])
    model = poisson_binomial_rows(rates)
    res = np.linalg.norm(model - p_obs[None, :], axis=1)
    k_best = int(np.argmin(res))
    depth_scale = float(res.max() - res[k_best])
    if depth_scale > 0:
        for k in range(1, res.size - 1):
            if res[k] < res[k - 1] and res[k] < res[k + 1]:
                near_best = abs(k - k_best) <= 1
                competitive = res[k] <= res[k_best] + 0.05 * depth_scale
                if not near_best and competitive:
                    raise CompetingBasinError(
                        "residual pre-scan found a second competitive basin; "
                        "input incompatible with a single coherent state"
                    )
    return lg, res


def _point_estimate(p_obs, params, mu_bounds, grid_points) -> float:
    """log of the distance-minimizing mean: grid bracket + golden section."""
    lg, res = _pre_scan(p_obs, params, mu_bounds, grid_points)
    k = int(np.argmin(res))
    if k == 0 or k == res.size - 1:
        return float(lg[k])

    opt = minimize_scalar(
        _distance,
        args=(p_obs, params),
        bracket=(lg[k - 1], lg[k], lg[k + 1]),
        method="golden",
        options=dict(xtol=1e-9),
    )
    return float(opt.x)


def estimate_mean_photon(
    p_outcomes,
    params: LoopParams,
    n_pulses: int | None = None,
    n_bootstrap: int = 0,
    seed: int = 0,
    mu_bounds: tuple[float, float] = DEFAULT_MU_BOUNDS,
    grid_points: int = 121,
) -> BrightStateEstimate:
    """Estimate the mean photon number behind an outcome distribution.

    Bracketing plus golden-section search over log(mu); the grid pre-scan
    locates the global basin and raises CompetingBasinError when a second
    basin competes with it (data inconsistent with any single coherent
    state).

    The curvature interval scales the quadratic approximation of the
    squared residual to its doubling point; it is reported on its own and
    is not a confidence interval (in seeded bright-state trials it held
    the true mean far less often than 95% of the time). When ``n_pulses``
    and ``n_bootstrap`` are given, a parametric bootstrap (binomial
    resampling of every bin at the fitted rates) provides a basic
    (reflected) interval, which is the reported confidence interval;
    without a bootstrap the confidence interval is None.
    """
    p_obs = np.asarray(p_outcomes, dtype=float)
    if p_obs.shape != (params.n_outcomes,):
        raise DataError(
            f"outcome distribution has {p_obs.size} entries, "
            f"expected {params.n_outcomes}"
        )
    # written so that NaN fails both checks
    if not p_obs.min() >= -1e-12:
        raise DataError("negative outcome probabilities")
    if not abs(p_obs.sum() - 1.0) <= 1e-6:
        raise DataError(f"outcome distribution sums to {p_obs.sum():.8f}, not 1")

    if p_obs[0] >= 1.0:
        # no clicks at all: the only consistent mean is zero
        return BrightStateEstimate(
            mean_photon=0.0,
            residual=0.0,
            confidence_interval=(0.0, 0.0),
            method="no-clicks",
            curvature_interval=(0.0, 0.0),
        )

    log_mu_hat = _point_estimate(p_obs, params, mu_bounds, grid_points)
    mu_hat = math.exp(log_mu_hat)
    residual = _distance(log_mu_hat, p_obs, params)

    # curvature of the squared residual in log(mu)
    h = 1e-3
    sq = lambda v: _distance(v, p_obs, params) ** 2
    second = (sq(log_mu_hat + h) - 2 * sq(log_mu_hat) + sq(log_mu_hat - h)) / h**2
    if second > 0:
        half_log = math.sqrt(2.0 * sq(log_mu_hat) / second)
    else:
        half_log = 0.0
    curvature_iv = (mu_hat * math.exp(-half_log), mu_hat * math.exp(half_log))

    bootstrap_iv = None
    method = "point"
    if n_bootstrap > 0:
        if n_pulses is None:
            raise DataError("bootstrap requires n_pulses")
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        rates = coherent_bin_probs(params, mu_hat)
        # re-estimates live near mu_hat; a narrow bracket is enough
        boot_bounds = (mu_hat / 4.0, mu_hat * 4.0)
        draws = np.empty(n_bootstrap)
        for b in range(n_bootstrap):
            p_hat = rng.binomial(n_pulses, rates) / n_pulses
            p_boot = poisson_binomial_pmf(p_hat)
            draws[b] = math.exp(
                _point_estimate(p_boot, params, boot_bounds, 41)
            )
        # basic (reflected) interval: recenters the transform-induced bias
        q_lo, q_hi = np.percentile(draws, (2.5, 97.5))
        bootstrap_iv = (
            float(max(0.0, 2.0 * mu_hat - q_hi)),
            float(2.0 * mu_hat - q_lo),
        )
        method = "bootstrap"

    return BrightStateEstimate(
        mean_photon=mu_hat,
        residual=residual,
        confidence_interval=bootstrap_iv,
        method=method,
        curvature_interval=curvature_iv,
        bootstrap_interval=bootstrap_iv,
        n_bootstrap=n_bootstrap,
    )

