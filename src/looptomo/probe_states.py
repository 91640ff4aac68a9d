"""Coherent probe ensembles and their photon-number representation.

The probe set is a list of coherent states with known mean photon numbers.
Their photon-number statistics are Poissonian, so the ensemble is fully
described by a matrix of Poisson rows truncated at a common dimension, one
that leaves every row complete to within ROW_COMPLETENESS_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

#: Mass a probe row may lose to the ensemble's truncation.
ROW_COMPLETENESS_TOL = 1e-9

#: Smallest normal double; poisson_pmf returns 0 below it.
_TINY = np.finfo(float).tiny

#: Half-width of poisson_window in standard deviations.
_WINDOW_SIGMAS = 8.0

#: ln n! for n = 0..15, the doubles scipy.special.gammaln(n + 1) returns;
#: math.lgamma and log(factorial) each miss some of them by one ulp.
_LN_FACTORIAL = np.array([
    0.0, 0.0, 0.6931471805599453, 1.791759469228055, 3.1780538303479458,
    4.787491742782046, 6.579251212010101, 8.525161361065415, 10.60460290274525,
    12.801827480081469, 15.104412573075516, 17.502307845873887,
    19.987214495661885, 22.55216385312342, 25.191221182738683,
    27.899271383840894,
])


def _stirling_correction(n: np.ndarray) -> np.ndarray:
    """ln n! - [n ln n - n + 0.5 ln(2 pi n)] for integers n >= 1, to ~1e-16
    absolute."""
    n = np.asarray(n, dtype=float)
    out = np.empty_like(n)
    small = n < _LN_FACTORIAL.size
    ns = n[small]
    out[small] = (_LN_FACTORIAL[ns.astype(np.intp)]
                  - ((ns + 0.5) * np.log(ns) - ns + _LN_SQRT_2PI))
    nl = n[~small]
    nn = nl * nl
    # truncated Stirling series; next term < 1e-16 for n >= 16
    out[~small] = (
        1 / 12.0
        - (1 / 360.0 - (1 / 1260.0 - (1 / 1680.0 - 1 / (1188.0 * nn)) / nn) / nn) / nn
    ) / nl
    return out


def _poisson_deviance(x: np.ndarray, mu: float) -> np.ndarray:
    """x*ln(x/mu) + mu - x for x > 0, without cancellation near x = mu."""
    x = np.asarray(x, dtype=float)
    out = x * np.log(x / mu) + mu - x
    near = np.abs(x - mu) < 0.1 * (x + mu)
    if np.any(near):
        xn = x[near]
        v = (xn - mu) / (xn + mu)
        s = (xn - mu) * v
        ej = 2.0 * xn * v
        v2 = v * v
        for j in range(1, 13):  # |v| < 0.1 so terms shrink by 1e-2 per step
            ej = ej * v2
            s = s + ej / (2 * j + 1)
        out[near] = s
    return out


def poisson_pmf(counts: np.ndarray, mean_photon: float) -> np.ndarray:
    """Poisson probability mass at the given photon numbers.

    Evaluated through the saddle-point (deviance) form, which stays accurate
    to ~1e-14 relative near the mode even for means of order 1e5, where the
    plain ``exp(i ln mu - mu - lgamma(i+1))`` expression loses digits to
    cancellation between large terms.

    Masses below the smallest normal double are returned as exactly 0:
    subnormal operands slow every dense product with a probe matrix by a
    factor 2-3, and they carry no mass a row sum can see.
    """
    if mean_photon < 0:
        raise ValueError(f"mean_photon must be >= 0, got {mean_photon}")
    counts = np.asarray(counts)
    out = np.zeros(counts.shape, dtype=float)
    if mean_photon == 0.0:
        out[counts == 0] = 1.0
        return out
    zero = counts == 0
    out[zero] = math.exp(-mean_photon)
    pos = counts[~zero].astype(float)
    if pos.size:
        dev = _poisson_deviance(pos, mean_photon)
        out[~zero] = np.exp(-_stirling_correction(pos) - dev) / np.sqrt(
            2.0 * math.pi * pos
        )
    out[out < _TINY] = 0.0
    return out


def poisson_row(mean_photon: float, truncation_dim: int) -> np.ndarray:
    """Poisson pmf on photon numbers 0..truncation_dim as a dense row."""
    if truncation_dim < 0:
        raise ValueError(f"truncation_dim must be >= 0, got {truncation_dim}")
    return poisson_pmf(np.arange(truncation_dim + 1), mean_photon)


def poisson_window(mean_photon: float) -> tuple[int, int]:
    """Photon numbers [lo, hi] holding a Poisson row's mass: _WINDOW_SIGMAS
    standard deviations about the mean, padded by 32 so small means stay exact."""
    spread = _WINDOW_SIGMAS * math.sqrt(mean_photon)
    lo = max(0, math.floor(mean_photon - spread))
    return lo, math.ceil(mean_photon + spread) + 32


def _complete_truncation(mean_photon: float) -> int:
    """Smallest truncation whose Poisson row loses at most
    ROW_COMPLETENESS_TOL of its mass; the row's mass below its
    poisson_window is far smaller than that and is left out of the sum."""
    lo, hi = poisson_window(mean_photon)
    kept = np.cumsum(poisson_pmf(np.arange(lo, hi + 1), mean_photon))
    return lo + int(np.argmax(1.0 - kept <= ROW_COMPLETENESS_TOL))


@dataclass(frozen=True)
class ProbeEnsemble:
    """Coherent probes, given by their mean photon numbers in probe order,
    plus the shared truncation dimension.

    The truncation must leave every probe row complete to within
    ROW_COMPLETENESS_TOL: one below _complete_truncation of the largest
    mean is a ConfigError, and without one the ensemble takes that minimum.
    """

    means: np.ndarray
    truncation_dim: int | None = None

    def __post_init__(self):
        means = np.array(self.means, dtype=float)
        if means.ndim != 1 or means.size == 0:
            raise ConfigError("probe ensemble must contain at least one probe")
        bad = means[~(np.isfinite(means) & (means >= 0))]
        if bad.size:
            raise ValueError(f"mean_photon must be finite and >= 0, got {bad[0]}")
        means.flags.writeable = False
        object.__setattr__(self, "means", means)
        needed = _complete_truncation(float(means.max()))
        if self.truncation_dim is None:
            object.__setattr__(self, "truncation_dim", needed)
        elif self.truncation_dim < needed:
            raise ConfigError(
                f"truncation_dim {self.truncation_dim} loses more than "
                f"{ROW_COMPLETENESS_TOL:g} of a probe row; the smallest "
                f"complete truncation is {needed}"
            )

    def __len__(self) -> int:
        return self.means.size

    @classmethod
    def from_means(cls, means, truncation_dim: int | None = None) -> "ProbeEnsemble":
        """The ensemble of the given means; the same as the constructor."""
        return cls(means, truncation_dim)

    @classmethod
    def quadratic(
        cls, count: int = 71, truncation_dim: int | None = 5328
    ) -> "ProbeEnsemble":
        """Quadratically spaced means d^2 for d in [0, count).

        The default truncation 5328 reproduces the standard 71-probe set;
        pass ``truncation_dim=None`` for the default of the constructor.
        """
        return cls(np.arange(count, dtype=float) ** 2, truncation_dim)


@dataclass(frozen=True)
class ProbeMatrix:
    """Stacked Poisson rows of an ensemble, one probe per row.

    Carries the generating means so operations that re-derive the matrix
    under perturbed amplitudes (Monte-Carlo error bands) need no extra input.
    """

    values: np.ndarray
    mean_photons: np.ndarray
    truncation_dim: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        means = np.asarray(self.mean_photons, dtype=float)
        if values.ndim != 2 or values.shape != (means.size, self.truncation_dim + 1):
            raise ConfigError(
                f"probe matrix shape {values.shape} does not match "
                f"{means.size} probes x truncation {self.truncation_dim}"
            )
        values.flags.writeable = False
        means.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mean_photons", means)


def build_probe_matrix(ensemble: ProbeEnsemble) -> ProbeMatrix:
    """Evaluate the Poisson row of every probe at the ensemble truncation;
    the ensemble's truncation leaves each row complete to within
    ROW_COMPLETENESS_TOL."""
    means = ensemble.means
    trunc = ensemble.truncation_dim
    values = np.vstack([poisson_row(m, trunc) for m in means])
    return ProbeMatrix(values, means, trunc)
