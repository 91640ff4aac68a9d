"""Output checks of the benchmark, computed apart from the program.

Everything here uses numpy and scipy only: the per-bin probabilities come
from the paper's formulas for q_j, Poisson-binomial rows from a
real-arithmetic recurrence (the program uses a discrete Fourier transform),
Poisson rows from scipy.stats, and artifacts are parsed by this module's own
readers. Every check raises CheckFailed with a message naming what is wrong.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.stats import binom, norm, poisson


class CheckFailed(Exception):
    """An artifact of the program disagrees with what the method defines."""


# -- independent model -------------------------------------------------------

def per_photon_bin_probs(r: float, eta_loop: float, eta_det: float,
                         n_bins: int) -> np.ndarray:
    """q_1 = R eta_det; q_j = (1-R)^2 eta_det / R (R eta_loop)^(j-1), j >= 2."""
    j = np.arange(1, n_bins + 1)
    q = (1.0 - r) ** 2 * eta_det / r * (r * eta_loop) ** (j - 1.0)
    q[0] = r * eta_det
    return q


def poisson_binomial_rows(p: np.ndarray) -> np.ndarray:
    """(rows, bins) success probabilities -> (rows, bins + 1) pmfs.

    Adds one bin at a time: pmf_new[k] = pmf[k] (1 - p_j) + pmf[k-1] p_j.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    rows, n_bins = p.shape
    pmf = np.zeros((rows, n_bins + 1))
    pmf[:, 0] = 1.0
    for j in range(n_bins):
        pj = p[:, j : j + 1]
        shifted = pmf[:, : j + 1] * pj
        pmf[:, : j + 1] *= 1.0 - pj
        pmf[:, 1 : j + 2] += shifted
    return pmf


def fock_click_probs(q: np.ndarray, photon_numbers) -> np.ndarray:
    """p_ij = 1 - (1 - q_j)^i for every photon number i."""
    i = np.asarray(photon_numbers, dtype=float)[:, None]
    return -np.expm1(i * np.log1p(-q[None, :]))


def model_povm(q: np.ndarray, photon_numbers) -> np.ndarray:
    return poisson_binomial_rows(fock_click_probs(q, photon_numbers))


def poisson_rows(means, truncation_dim: int) -> np.ndarray:
    n = np.arange(truncation_dim + 1)
    return np.vstack([poisson.pmf(n, m) if m > 0 else (n == 0).astype(float)
                      for m in means])


def objective(f_mat, p_mat, theta, epsilon) -> float:
    """||P - F Theta||_F + epsilon * sum of squared first differences."""
    d = np.diff(theta, axis=0)
    return float(np.linalg.norm(p_mat - f_mat @ theta) + epsilon * (d * d).sum())


# -- readers ------------------------------------------------------------------

def read_histogram_csv(path) -> tuple[float, float, np.ndarray]:
    """(bin_width_ps, t0_ps, raw counts) of a histogram CSV."""
    with open(path) as fh:
        if fh.readline().strip() != "bin_width_ps,t0_ps":
            raise CheckFailed(f"{path}: not a histogram CSV")
        width, t0 = (float(x) for x in fh.readline().split(","))
        counts = np.loadtxt(fh, dtype=np.int64, ndmin=1)
    return width, t0, counts


def window_totals(path, n_bins: int, period_ns: float,
                  window_ns: float = 2.0) -> np.ndarray:
    """Counts whose raw-bin centre lies in [c_j - w/2, c_j + w/2)."""
    width, t0, counts = read_histogram_csv(path)
    centres = (np.arange(counts.size) + 0.5) * width
    totals = np.empty(n_bins, dtype=np.int64)
    half = window_ns * 500.0
    for j in range(n_bins):
        c = t0 + j * period_ns * 1000.0
        inside = (centres >= c - half) & (centres < c + half)
        totals[j] = counts[inside].sum()
    return totals


def read_povm_csv(path) -> np.ndarray:
    """Theta of a POVM CSV (the support column is dropped)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "fock_index" or header[-1] != "supported":
            raise CheckFailed(f"{path}: not a POVM CSV")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not np.array_equal(table[:, 0], np.arange(table.shape[0])):
        raise CheckFailed(f"{path}: Fock indices are not 0..M in order")
    return table[:, 1:-1]


def read_rows(path, indices) -> np.ndarray:
    """Selected outcome rows of a POVM CSV, streamed; a trailing
    ``supported`` column is dropped."""
    wanted = {int(i): k for k, i in enumerate(indices)}
    out = [None] * len(wanted)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        n_out = sum(h.startswith("outcome_") for h in header)
        for line in fh:
            head, _, rest = line.partition(",")
            k = wanted.get(int(head))
            if k is not None:
                out[k] = [float(x) for x in rest.split(",")[:n_out]]
    missing = [i for i, k in wanted.items() if out[k] is None]
    if missing:
        raise CheckFailed(f"{path}: rows {missing[:5]} missing")
    return np.array(out)


def read_lcurve(path) -> np.ndarray:
    """(epsilon, residual, smoothness, objective) per row of an L-curve CSV."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


# -- checks -------------------------------------------------------------------

def check_bin_totals(totals, means, n_pulses: int, q, n_sigma: float = 5.0):
    """Each probe's per-bin totals within n_sigma binomial sigma of
    n (1 - exp(-mu q_j)).

    Judged by the exact binomial tails at the normal n_sigma level: near
    saturation sigma falls below one click, where the normal approximation
    would reject a single missed click."""
    k = np.asarray(totals)
    c = -np.expm1(-np.asarray(means, dtype=float)[:, None] * q[None, :])
    tail = np.minimum(binom.cdf(k, n_pulses, c), binom.sf(k - 1, n_pulses, c))
    bad = tail < norm.sf(n_sigma)
    if bad.any():
        d, j = np.argwhere(bad)[0]
        raise CheckFailed(
            f"probe {d} bin {j + 1}: {k[d, j]} clicks, expected "
            f"{n_pulses * c[d, j]:.1f}; binomial tail {tail[d, j]:.1e}"
        )


def check_simplex_rows(theta, tol: float = 1e-8):
    theta = np.asarray(theta)
    if theta.min() < 0.0:
        i, n = np.unravel_index(np.argmin(theta), theta.shape)
        raise CheckFailed(f"row {i} outcome {n} is negative ({theta[i, n]:.3e})")
    dev = np.abs(theta.sum(axis=1) - 1.0)
    if dev.max() > tol:
        raise CheckFailed(
            f"row {int(np.argmax(dev))} sums to 1 {dev.max():+.2e} off (>{tol:g})"
        )


def check_close(value: float, reference: float, rtol: float, what: str,
                atol: float = 0.0):
    gap = abs(value - reference)
    if not gap <= rtol * abs(reference) + atol:
        raise CheckFailed(
            f"{what}: {value!r} vs {reference!r}, relative "
            f"{gap / abs(reference):.2e} > {rtol:g} (+ {atol:g} absolute)"
        )


def check_not_above(value: float, bound: float, what: str):
    if not value <= bound:
        raise CheckFailed(f"{what}: {value!r} above {bound!r}")


def check_lcurve(curve, rtol: float = 1e-7):
    """Residual non-decreasing and smoothness non-increasing along epsilon."""
    curve = np.asarray(curve)
    eps, resid, smooth = curve[:, 0], curve[:, 1], curve[:, 2]
    if np.any(np.diff(eps) <= 0):
        raise CheckFailed("L-curve epsilons are not strictly increasing")
    for k in range(1, eps.size):
        if resid[k] < resid[k - 1] * (1.0 - rtol):
            raise CheckFailed(
                f"residual decreases from eps={eps[k - 1]:g} to {eps[k]:g}"
            )
        if smooth[k] > smooth[k - 1] * (1.0 + rtol):
            raise CheckFailed(
                f"smoothness increases from eps={eps[k - 1]:g} to {eps[k]:g}"
            )


def check_params(fitted, true, tol: float = 1e-4):
    err = np.abs(np.asarray(fitted) - np.asarray(true))
    if not err.max() < tol:
        raise CheckFailed(f"fit {list(fitted)} misses {list(true)} by {err.max():.2e}")


def check_extrapolated_rows(indices, rows, q, sum_tol: float = 1e-8,
                            entry_tol: float = 1e-10):
    """Rows sum to 1, equal the recurrence at q, and have mean outcome
    sum_j 1 - (1 - q_j)^i."""
    rows = np.asarray(rows)
    check_simplex_rows(rows, sum_tol)
    if rows.shape[1] != q.size + 1:
        raise CheckFailed(f"{rows.shape[1]} outcomes, expected {q.size + 1}")
    probs = fock_click_probs(q, indices)
    diff = np.abs(rows - poisson_binomial_rows(probs)).max(axis=1)
    if diff.max() > entry_tol:
        k = int(np.argmax(diff))
        raise CheckFailed(
            f"row {indices[k]} differs from the recurrence by {diff[k]:.2e}"
        )
    mean = rows @ np.arange(rows.shape[1])
    expected = probs.sum(axis=1)
    gap = np.abs(mean - expected)
    if gap.max() > entry_tol * rows.shape[1] ** 2:
        k = int(np.argmax(gap))
        raise CheckFailed(
            f"row {indices[k]} mean outcome {mean[k]!r}, expected {expected[k]!r}"
        )


def check_estimate(mean_photon: float, truth: float, rtol: float = 0.01):
    check_close(mean_photon, truth, rtol, "bright-state estimate")
