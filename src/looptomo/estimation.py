"""Mean-photon-number estimation for bright coherent states.

Given a measured outcome distribution and fitted loop parameters, the mean
photon number is the coherent amplitude whose model outcome distribution
is closest in Euclidean distance. The model distribution is evaluated
analytically: per-bin rates 1 - exp(-mu q_j), one row per candidate mean,
fed through ``detector_model.poisson_binomial_rows``. The search is a grid
pre-scan in log(mu) followed by a golden section that runs every data row
in lockstep, one engine call per step for all rows still searching; the
point estimate is a batch of one row and the bootstrap a batch of all its
draws. The explicit product of a truncated Poisson row with the
extrapolated Fock POVM is kept as a cross-check path; its per-bin marginals
match the analytic rates exactly, while the distributions agree only up to
the covariance the independent-bin Fock rows ignore (second order in the
bin rates). The resulting estimates coincide far more tightly because that
covariance term is symmetric about the residual minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector_model import (
    LoopParams,
    coherent_bin_probs,
    model_povm_rows,
    per_photon_bin_probs,
    poisson_binomial_rows,
)
from .errors import CompetingBasinError, ConfigError, DataError
from .probe_states import poisson_pmf, poisson_window

DEFAULT_MU_BOUNDS = (1e-3, 1e9)
_GRID_POINTS = 121  # log-mu pre-scan points across DEFAULT_MU_BOUNDS
_FOCK_CHUNK = 100_000  # POVM rows per pass of crosscheck_fock_path

# golden-section constants, start, update order and stopping test of
# scipy.optimize.minimize_scalar(method="golden", options=dict(xtol=1e-9))
_GOLDEN_R = 0.61803399
_GOLDEN_C = 1.0 - _GOLDEN_R
_GOLDEN_XTOL = 1e-9
_GOLDEN_MAX_STEPS = 5000


@dataclass(frozen=True)
class BrightStateEstimate:
    """Estimated mean photon number per pulse and its residual distance.

    ``bootstrap_interval`` is the 95% basic bootstrap interval of
    ``n_bootstrap`` draws, or None when no bootstrap ran.
    """

    mean_photon: float
    residual: float
    bootstrap_interval: tuple[float, float] | None = None
    n_bootstrap: int = 0


def _model_rows(log_mu, q) -> np.ndarray:
    """Model outcome distributions at the means exp(log_mu), one row each."""
    return poisson_binomial_rows(-np.expm1(-np.exp(log_mu)[:, None] * q[None, :]))


def _distances(log_mu, p_rows, q) -> np.ndarray:
    """Euclidean distance from each row of p_rows to the model at exp(log_mu).

    log_mu has one entry per row of p_rows (or p_rows is one row shared by
    every entry). Each distance reduces its own contiguous row, so an
    entry's value does not depend on what else is in the batch.
    """
    return np.linalg.norm(p_rows - _model_rows(log_mu, q), axis=1)


def crosscheck_fock_path(mean_photon: float, params: LoopParams) -> np.ndarray:
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
    lo, hi = poisson_window(mean_photon)
    acc = np.zeros(params.n_outcomes)
    for start in range(lo, hi + 1, _FOCK_CHUNK):
        stop = min(start + _FOCK_CHUNK - 1, hi)
        i = np.arange(start, stop + 1)
        weights = poisson_pmf(i, mean_photon)
        acc += weights @ model_povm_rows(params, i)
    return acc


def _pre_scan(p_rows, q, lg) -> np.ndarray:
    """Residuals of every row of p_rows on the log grid lg, (rows, grid).

    Aborts when a second deep basin competes. The Euclidean distance
    between nearly-disjoint distributions carries shallow ripples (the model
    norm varies as its peak sweeps the outcome axis), so strict unimodality
    cannot be required; what is diagnosed is a second local minimum whose
    depth rivals the global one, which signals data incompatible with any
    single coherent state.
    """
    res = np.stack(
        [np.linalg.norm(p_rows - m, axis=1) for m in _model_rows(lg, q)], axis=1
    )
    k_best = np.argmin(res, axis=1)
    best = res.min(axis=1, keepdims=True)
    depth_scale = res.max(axis=1, keepdims=True) - best
    mid = res[:, 1:-1]
    local_min = (mid < res[:, :-2]) & (mid < res[:, 2:])
    far = np.abs(np.arange(1, lg.size - 1)[None, :] - k_best[:, None]) > 1
    competitive = mid <= best + 0.05 * depth_scale
    if np.any(local_min & far & competitive & (depth_scale > 0)):
        raise CompetingBasinError(
            "residual pre-scan found a second competitive basin; "
            "input incompatible with a single coherent state"
        )
    return res


def _golden_lockstep(dist, xa, xb, xc) -> np.ndarray:
    """Golden-section minima of brackets xa < xb < xc, all rows in lockstep.

    Reproduces scipy's golden section row by row: the same first two points,
    the same update order and the stopping test
    |x3 - x0| <= xtol (|x1| + |x2|), after which a row stays frozen.
    dist(x, idx) returns the distances of rows idx at the points x, so each
    step is one batched evaluation of the rows still searching.
    """
    x0, x3 = xa.copy(), xc.copy()
    wide_right = np.abs(xc - xb) > np.abs(xb - xa)
    x1 = np.where(wide_right, xb, xb - _GOLDEN_C * (xb - xa))
    x2 = np.where(wide_right, xb + _GOLDEN_C * (xc - xb), xb)
    every = np.arange(xa.size)
    f1, f2 = dist(x1, every), dist(x2, every)
    for _ in range(_GOLDEN_MAX_STEPS):
        idx = np.flatnonzero(
            ~(np.abs(x3 - x0) <= _GOLDEN_XTOL * (np.abs(x1) + np.abs(x2)))
        )
        if idx.size == 0:
            break
        a0, a1, a2, a3 = x0[idx], x1[idx], x2[idx], x3[idx]
        g1, g2 = f1[idx], f2[idx]
        right = g2 < g1
        new = np.where(
            right, _GOLDEN_R * a2 + _GOLDEN_C * a3, _GOLDEN_R * a1 + _GOLDEN_C * a0
        )
        f_new = dist(new, idx)
        x0[idx] = np.where(right, a1, a0)
        x1[idx] = np.where(right, a2, new)
        x2[idx] = np.where(right, new, a1)
        x3[idx] = np.where(right, a3, a2)
        f1[idx] = np.where(right, g2, f_new)
        f2[idx] = np.where(right, f_new, g1)
    return np.where(f1 < f2, x1, x2)


def _estimate_rows(p_rows, q, lg) -> np.ndarray:
    """log of the distance-minimising mean of every row of p_rows.

    The grid pre-scan on lg brackets each row's minimum; a minimum on a
    grid edge is returned as that grid point, and the interior ones are
    refined together by _golden_lockstep.
    """
    res = _pre_scan(p_rows, q, lg)
    k = np.argmin(res, axis=1)
    inner = np.flatnonzero((k > 0) & (k < lg.size - 1))
    k_in = k[inner]
    if np.any(res[inner, k_in + 1] <= res[inner, k_in]):
        # argmin is the first minimum, so only the right neighbour can tie
        raise DataError(
            "the mean photon number is not identified: the residual is flat "
            "at its minimum (saturated data bounds the mean only from below)"
        )
    out = lg[k]
    p_in = p_rows[inner]
    out[inner] = _golden_lockstep(
        lambda x, idx: _distances(x, p_in[idx], q),
        lg[k_in - 1], lg[k_in], lg[k_in + 1],
    )
    return out


def estimate_mean_photon(
    p_outcomes,
    params: LoopParams,
    n_pulses: int | None = None,
    n_bootstrap: int = 0,
    seed: int = 0,
) -> BrightStateEstimate:
    """Estimate the mean photon number behind an outcome distribution.

    Bracketing plus golden-section search over log(mu); the grid pre-scan
    locates the global basin and raises CompetingBasinError when a second
    basin competes with it (data inconsistent with any single coherent
    state), and DataError when the residual is flat at its minimum
    (saturated data, which bound the mean only from below).

    When ``n_pulses`` and ``n_bootstrap`` are given, a parametric bootstrap
    (binomial resampling of every bin at the fitted rates) provides a basic
    (reflected) 95% interval; without a bootstrap the interval is None.
    Data without a single click give the exact mean 0 and no bootstrap.
    """
    if n_bootstrap < 0:
        raise ConfigError(f"n_bootstrap must be >= 0, got {n_bootstrap}")
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
        return BrightStateEstimate(mean_photon=0.0, residual=0.0)

    q = per_photon_bin_probs(params)
    lo, hi = DEFAULT_MU_BOUNDS
    lg = np.linspace(math.log(lo), math.log(hi), _GRID_POINTS)
    log_mu_hat = float(_estimate_rows(p_obs[None, :], q, lg)[0])
    mu_hat = math.exp(log_mu_hat)
    residual = float(_distances(np.array([log_mu_hat]), p_obs, q)[0])

    bootstrap_iv = None
    if n_bootstrap > 0:
        if n_pulses is None:
            raise DataError("bootstrap requires n_pulses")
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        rates = coherent_bin_probs(params, mu_hat)
        counts = rng.binomial(n_pulses, rates, size=(n_bootstrap, rates.size))
        p_boot = poisson_binomial_rows(counts / n_pulses)
        # re-estimates live near mu_hat; a narrow bracket is enough
        lg_boot = np.linspace(math.log(mu_hat / 4.0), math.log(mu_hat * 4.0), 41)
        draws = np.exp(_estimate_rows(p_boot, q, lg_boot))
        # basic (reflected) interval: recenters the transform-induced bias
        q_lo, q_hi = np.percentile(draws, (2.5, 97.5))
        bootstrap_iv = (
            float(max(0.0, 2.0 * mu_hat - q_hi)),
            float(2.0 * mu_hat - q_lo),
        )

    return BrightStateEstimate(mu_hat, residual, bootstrap_iv, n_bootstrap)

