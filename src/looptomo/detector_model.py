"""Physics of the fiber-loop click detector and the outcome transform.

An input pulse is split into a train of time-bins with geometrically
decaying intensity; a binary (click / no-click) detector watches every bin.
The detector outcome is the number of occupied bins, so a Fock input |i>
produces a Poisson binomial distribution over outcomes whose per-bin
success probabilities follow from three physical parameters: the
out-coupling reflectivity, the loop round-trip efficiency and the
detection efficiency.

This module provides the per-bin probabilities, the Poisson binomial
transform (one real-recurrence row engine, with enumeration as its
oracle), the POVMSet container with model POVM construction at arbitrary
truncation, and a stochastic pulse simulator used as the synthetic data
source.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .probe_states import poisson_pmf, poisson_window

#: Subset enumeration is refused above this many bins.
BRUTEFORCE_MAX_BINS = 20

_SIM_CHUNK = 1 << 20  # pulses per simulator chunk; fixed so seeds reproduce
_SIM_SEGMENT = 1 << 15  # uniform draws per simulator buffer fill
# rows per Poisson-binomial pass: its four (bins, block) buffers stay in cache
_ROW_BLOCK = 1024
# model POVM rows per pass of build_model_povm: a multiple of _ROW_BLOCK
# whose temporaries (at 50 outcomes, 3.3 MB each) are small next to theta
_POVM_CHUNK = 8 * _ROW_BLOCK


@dataclass(frozen=True)
class POVMSet:
    """Diagonal POVM elements theta[i, n] = p(outcome n | i photons).

    ``supported`` flags the rows the data determine; without one every row
    is flagged.
    """

    theta: np.ndarray
    supported: np.ndarray | None = None

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 2:
            raise ConfigError("POVM matrix must be two-dimensional")
        # written so that NaN fails every check
        if not (theta.min() >= -1e-12 and theta.max() <= 1.0 + 1e-12):
            raise ConfigError("POVM entries must lie in [0, 1]")
        dev = np.abs(theta.sum(axis=1) - 1.0).max()
        if not dev <= 1e-8:
            raise ConfigError(f"POVM rows must sum to 1 (worst deviation {dev:.2e})")
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        if self.supported is None:
            supported = np.ones(theta.shape[0], dtype=bool)
        else:
            supported = np.asarray(self.supported, dtype=bool)
        if supported.shape != (theta.shape[0],):
            raise ConfigError("support mask length must match POVM rows")
        supported.flags.writeable = False
        object.__setattr__(self, "supported", supported)

    @property
    def truncation_dim(self) -> int:
        return self.theta.shape[0] - 1

    @property
    def n_outcomes(self) -> int:
        return self.theta.shape[1]


@dataclass(frozen=True)
class LoopParams:
    """Physical model parameters of the loop detector.

    reflectivity
        Out-coupling reflectivity of the loop beam splitter, in (0, 1).
    loop_efficiency
        Transmission of one loop round trip, in [0, 1].
    det_efficiency
        Detection efficiency seen by every output pulse, in [0, 1].
    n_bins
        Number of time-bins kept before truncating the pulse train.
    bin_period_ns
        Round-trip time between bins. ``simulate`` and ``estimate
        --histogram`` place the detector windows this far apart.
    """

    reflectivity: float
    loop_efficiency: float
    det_efficiency: float
    n_bins: int
    bin_period_ns: float = 156.0

    def __post_init__(self):
        if not 0.0 < self.reflectivity < 1.0:
            raise ValueError(f"reflectivity must be in (0,1), got {self.reflectivity}")
        if not 0.0 <= self.loop_efficiency <= 1.0:
            raise ValueError(
                f"loop_efficiency must be in [0,1], got {self.loop_efficiency}"
            )
        if not 0.0 <= self.det_efficiency <= 1.0:
            raise ValueError(
                f"det_efficiency must be in [0,1], got {self.det_efficiency}"
            )
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {self.n_bins}")

    @property
    def n_outcomes(self) -> int:
        return self.n_bins + 1

    def with_bins(self, n_bins: int) -> "LoopParams":
        return LoopParams(
            self.reflectivity,
            self.loop_efficiency,
            self.det_efficiency,
            n_bins,
            self.bin_period_ns,
        )


def per_photon_bin_probs(params: LoopParams) -> np.ndarray:
    """Single-photon click probability of each bin.

    Bin 1 is the directly reflected pulse, q_1 = R * eta_det; later bins
    carry one in-coupling, j-1 round trips and one out-coupling, so
    q_j = (1-R)^2 eta_det / R * (R eta_loop)^(j-1) and successive bins
    decay by exactly R * eta_loop.
    """
    r = params.reflectivity
    q = np.empty(params.n_bins)
    q[0] = r * params.det_efficiency
    if params.n_bins > 1:
        base = (1.0 - r) ** 2 * params.det_efficiency / r
        j = np.arange(2, params.n_bins + 1)
        q[1:] = base * (r * params.loop_efficiency) ** (j - 1)
    return q


def coherent_bin_probs(params: LoopParams, mean_photon: float) -> np.ndarray:
    """Vector of 1 - exp(-mu q_j) over all bins."""
    if mean_photon < 0:
        raise ValueError(f"mean_photon must be >= 0, got {mean_photon}")
    return -np.expm1(-mean_photon * per_photon_bin_probs(params))


def _validate_probs(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("probability vector must be one-dimensional")
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("bin probabilities must lie in [0, 1]")
    return p


def poisson_binomial_bruteforce(p, n: int) -> float:
    """Exact subset-enumeration probability of n successes.

    Cost grows as the binomial coefficient, so inputs longer than
    BRUTEFORCE_MAX_BINS are refused. Kept as the independent oracle for
    the recurrence in poisson_binomial_rows.
    """
    p = _validate_probs(p)
    nb = p.size
    if nb > BRUTEFORCE_MAX_BINS:
        raise ValueError(
            f"enumeration over {nb} bins refused (limit {BRUTEFORCE_MAX_BINS})"
        )
    if not 0 <= n <= nb:
        raise ValueError(f"n={n} outside 0..{nb}")
    comp = 1.0 - p
    total = 0.0
    for subset in itertools.combinations(range(nb), n):
        term = 1.0
        chosen = set(subset)
        for j in range(nb):
            term *= p[j] if j in chosen else comp[j]
        total += term
    return total


def poisson_binomial_rows(pmat) -> np.ndarray:
    """Row-wise Poisson binomial: (rows, nb) probabilities -> (rows, nb+1) pmfs.

    Real recurrence, one bin at a time: adding bin j with probability p_j
    maps pmf[k] to (1 - p_j) pmf[k] + p_j pmf[k-1]. Every step is a convex
    combination of non-negative numbers, so the pmfs stay in [0, 1] without
    clipping. The passes run in place on outcome-major (nb+1, block)
    buffers, _ROW_BLOCK rows at a time, and treat every row elementwise, so
    a row computed in a batch is bit-identical to the same row computed
    alone.
    """
    pmat = np.asarray(pmat, dtype=float)
    rows, nb = pmat.shape
    out = np.empty((rows, nb + 1))
    for start in range(0, rows, _ROW_BLOCK):
        p = pmat[start : start + _ROW_BLOCK].T.copy()
        comp = 1.0 - p
        shifted = np.empty_like(p)
        pmf = np.zeros((nb + 1, p.shape[1]))
        pmf[0] = 1.0
        for j in range(nb):
            np.multiply(pmf[: j + 1], p[j], out=shifted[: j + 1])
            pmf[: j + 1] *= comp[j]
            pmf[1 : j + 2] += shifted[: j + 1]
        out[start : start + _ROW_BLOCK] = pmf.T
    return out


def poisson_binomial_pmf(p) -> np.ndarray:
    """Full Poisson binomial pmf over 0..len(p) successes."""
    return poisson_binomial_rows(_validate_probs(p)[None, :])[0]


def fock_bin_prob_rows(params: LoopParams, photon_numbers: np.ndarray) -> np.ndarray:
    """Matrix of bin click probabilities, one row per Fock photon number."""
    q = per_photon_bin_probs(params)
    i = np.asarray(photon_numbers, dtype=float)[:, None]
    return -np.expm1(i * np.log1p(-q[None, :]))


def model_povm_rows(
    params: LoopParams, photon_numbers: np.ndarray
) -> np.ndarray:
    """Model POVM rows for the given photon numbers, (len, n_bins+1)."""
    return poisson_binomial_rows(fock_bin_prob_rows(params, photon_numbers))


def build_model_povm(params: LoopParams, truncation_dim: int) -> POVMSet:
    """Model POVM on Fock states 0..truncation_dim.

    Rows are computed independently, _POVM_CHUNK at a time, and written
    into the one (truncation_dim + 1, n_outcomes) result: the transient
    memory is that of one chunk's click-probability matrix and transform,
    so the peak stays near the size of the POVM itself at any truncation.
    A row is bit-identical to model_povm_rows of that row alone.
    """
    if truncation_dim < 0:
        raise ValueError(f"truncation_dim must be >= 0, got {truncation_dim}")
    n_rows = truncation_dim + 1
    theta = np.empty((n_rows, params.n_outcomes))
    for start in range(0, n_rows, _POVM_CHUNK):
        stop = min(start + _POVM_CHUNK, n_rows)
        theta[start:stop] = model_povm_rows(params, np.arange(start, stop))
    return POVMSet(theta)


def _effective_click_probs(
    params: LoopParams, mean_photon: float, dark_prob: float
) -> np.ndarray:
    # written so that NaN fails
    if not 0 <= dark_prob < 1:
        raise ValueError(f"dark_prob must be in [0,1), got {dark_prob}")
    c = coherent_bin_probs(params, mean_photon)
    if dark_prob:
        c = 1.0 - (1.0 - c) * (1.0 - dark_prob)
    return c


def simulate_bin_clicks(
    params: LoopParams,
    mean_photon: float,
    n_pulses: int,
    seed: int,
    dark_prob: float = 0.0,
) -> np.ndarray:
    """Per-bin click totals (int64) of n_pulses simulated pulse trains.

    Every (pulse, bin) pair is an independent Bernoulli trial, drawn as a
    uniform below the bin's click probability. Chunking is fixed-size so a
    given seed reproduces the identical totals regardless of available
    memory.
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    c = _effective_click_probs(params, mean_photon, dark_prob)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    bin_counts = np.zeros(params.n_bins, dtype=np.int64)
    draws = np.empty(min(_SIM_SEGMENT, n_pulses))
    clicks = np.empty(draws.size, dtype=bool)
    done = 0
    while done < n_pulses:
        chunk = min(_SIM_CHUNK, n_pulses - done)
        for j in range(params.n_bins):
            # segments consume the stream in the order one chunk-long draw
            # would, so the totals do not depend on _SIM_SEGMENT
            for start in range(0, chunk, _SIM_SEGMENT):
                size = min(_SIM_SEGMENT, chunk - start)
                u, hit = draws[:size], clicks[:size]
                rng.random(out=u)
                np.less(u, c[j], out=hit)
                bin_counts[j] += np.count_nonzero(hit)
        done += chunk
    return bin_counts


def simulate_bin_totals(
    params: LoopParams,
    mean_photon: float,
    n_pulses: int,
    seed: int,
    dark_prob: float = 0.0,
) -> np.ndarray:
    """Per-bin click totals via one binomial draw per bin.

    The same distribution as simulate_bin_clicks, from a different stream,
    at a cost that does not grow with n_pulses (bright-state runs, very
    large pulse counts).
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    c = _effective_click_probs(params, mean_photon, dark_prob)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return rng.binomial(n_pulses, c).astype(np.int64)


def coherent_outcome_distribution(
    params: LoopParams, mean_photon: float
) -> np.ndarray:
    """Outcome distribution for a coherent input, via the analytic rates."""
    return poisson_binomial_pmf(coherent_bin_probs(params, mean_photon))


def fock_sum_bin_prob(params: LoopParams, mean_photon: float, bin_index: int) -> float:
    """Poisson-weighted Fock sum for bin ``bin_index`` (1-based); oracle for
    the analytic form.

    The sum runs over ``probe_states.poisson_window``.
    """
    if mean_photon == 0:
        return 0.0
    lo, hi = poisson_window(mean_photon)
    i = np.arange(lo, hi + 1)
    weights = poisson_pmf(i, mean_photon)
    q = per_photon_bin_probs(params)[bin_index - 1]
    return float(weights @ (-np.expm1(i * np.log1p(-q))))
