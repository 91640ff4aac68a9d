"""Raw time-tagger histograms to per-bin rates and outcome matrices.

Post-processing mirror of the lab pipeline: integrate the raw histogram
over the detector time-bin windows (discarding everything between them,
which filters dark counts and reflections), divide by the pulse count to
get per-bin firing probabilities, and transform those marginals into the
occupied-bin outcome distribution with the Poisson binomial closed form.

The marginal-to-outcome transform is exact only under inter-bin
independence; the simulator satisfies that by construction, so the
round trip is testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector_model import poisson_binomial_pmf
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class TimeTagHistogram:
    """Raw time-tagger histogram: counts per fixed-width bin.

    ``t0_ps`` is the center of the first detector window on the histogram
    time axis (which starts at zero).
    """

    counts: np.ndarray
    bin_width_ps: float
    t0_ps: float = 1000.0

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or counts.size == 0:
            raise ConfigError("histogram counts must be a non-empty vector")
        if np.any(counts < 0):
            raise DataError("histogram counts must be non-negative")
        # written so that NaN fails
        if not 0 < self.bin_width_ps < np.inf:
            raise ConfigError(
                f"bin_width_ps must be finite and > 0, got {self.bin_width_ps}"
            )
        if not np.isfinite(self.t0_ps):
            raise ConfigError(f"t0_ps must be finite, got {self.t0_ps}")
        counts = counts.astype(np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def span_ps(self) -> float:
        return self.counts.size * self.bin_width_ps


@dataclass(frozen=True)
class BinningConfig:
    """Placement of the detector time-bin windows on the histogram axis.

    Window j (1-based) is centered at t0 + (j-1) * bin_period. The width
    and the period are finite and > 0, and with two or more windows the
    period is at least the width, so windows do not overlap. Every reader
    and writer of window totals builds one of these first; whether the
    windows fit a histogram's span is checked when it is integrated.
    """

    n_detector_bins: int
    window_width_ns: float = 2.0
    bin_period_ns: float = 156.0

    def __post_init__(self):
        if self.n_detector_bins < 1:
            raise ConfigError("n_detector_bins must be >= 1")
        # written so that NaN fails
        if not 0 < self.window_width_ns < np.inf:
            raise ConfigError(
                f"window_width_ns must be finite and > 0, got {self.window_width_ns}"
            )
        if not 0 < self.bin_period_ns < np.inf:
            raise ConfigError(
                f"bin_period_ns must be finite and > 0, got {self.bin_period_ns}"
            )
        if self.n_detector_bins > 1 and self.bin_period_ns < self.window_width_ns:
            raise ConfigError(
                f"detector windows overlap: {self.window_width_ns} ns windows "
                f"{self.bin_period_ns} ns apart"
            )

    def offsets_ns(self) -> np.ndarray:
        return np.arange(self.n_detector_bins) * self.bin_period_ns

    def window_edges_ps(self, t0_ps: float) -> tuple[np.ndarray, np.ndarray]:
        centers = t0_ps + self.offsets_ns() * 1000.0
        half = self.window_width_ns * 500.0
        return centers - half, centers + half


def integrate_histogram(hist: TimeTagHistogram, cfg: BinningConfig) -> np.ndarray:
    """Total counts inside each detector window; everything else dropped.

    A raw bin belongs to a window when its center does. Windows outside the
    histogram span are configuration errors.
    """
    left, right = cfg.window_edges_ps(hist.t0_ps)
    if left[0] < -1e-9 or right[-1] > hist.span_ps + 1e-9:
        raise ConfigError(
            f"windows [{left[0]:.1f}, {right[-1]:.1f}] ps exceed the "
            f"histogram span {hist.span_ps:.1f} ps"
        )
    bw = hist.bin_width_ps
    # raw bin k has center (k + 0.5) * bw
    k_lo = np.ceil(left / bw - 0.5 - 1e-12).astype(int)
    k_hi = np.ceil(right / bw - 0.5 - 1e-12).astype(int)  # exclusive
    k_lo = np.clip(k_lo, 0, hist.counts.size)
    k_hi = np.clip(k_hi, 0, hist.counts.size)
    csum = np.concatenate([[0], np.cumsum(hist.counts)])
    return (csum[k_hi] - csum[k_lo]).astype(np.int64)


def bin_probabilities(bin_counts, n_pulses: int) -> np.ndarray:
    """Click probability per detector bin: counts / pulses."""
    counts = np.asarray(bin_counts, dtype=np.int64)
    if n_pulses < 1:
        raise ConfigError(f"n_pulses must be >= 1, got {n_pulses}")
    if np.any(counts < 0):
        raise DataError("negative bin counts")
    if np.any(counts > n_pulses):
        raise DataError(
            f"bin count {counts.max()} exceeds the number of pulses {n_pulses}"
        )
    return counts / n_pulses


def outcome_probabilities(bin_probs) -> np.ndarray:
    """Occupied-bin distribution from marginal bin probabilities.

    Valid as the true outcome distribution only when bins fire
    independently; cross-talk or conditional dead time would break this.
    """
    return poisson_binomial_pmf(bin_probs)


@dataclass(frozen=True)
class OutcomeMatrix:
    """Per-probe outcome distributions, one probe per row."""

    values: np.ndarray
    n_pulses: np.ndarray

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        pulses = np.asarray(self.n_pulses, dtype=np.int64)
        if values.shape[0] != pulses.size:
            raise ConfigError("one pulse count per outcome row required")
        # written so that NaN fails every check
        if not (values.min() >= 0.0 and values.max() <= 1.0 + 1e-12):
            raise DataError("outcome probabilities must lie in [0, 1]")
        dev = np.abs(values.sum(axis=1) - 1.0).max()
        if not dev <= 1e-10:
            raise DataError(f"outcome rows must sum to 1 (worst deviation {dev:.2e})")
        values.flags.writeable = False
        pulses.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n_pulses", pulses)

    @property
    def n_outcomes(self) -> int:
        return self.values.shape[1]


def assemble_outcome_matrix(runs, cfg: BinningConfig, ensemble=None) -> OutcomeMatrix:
    """Stack per-run outcome distributions in probe order.

    ``runs`` is an iterable of (TimeTagHistogram, n_pulses) pairs, consumed
    one pair at a time: each histogram is reduced to its window totals
    before the next is taken, so a generator that loads histograms lazily
    keeps one raw histogram in memory. When an ensemble is given its length
    must match the number of runs.
    """
    rows = []
    pulses = []
    for hist, n_pulses in runs:
        counts = integrate_histogram(hist, cfg)
        rows.append(outcome_probabilities(bin_probabilities(counts, n_pulses)))
        pulses.append(n_pulses)
    if not rows:
        raise ConfigError("no runs to assemble")
    if ensemble is not None and len(ensemble) != len(rows):
        raise ConfigError(
            f"{len(rows)} runs but ensemble defines {len(ensemble)} probes"
        )
    return OutcomeMatrix(np.vstack(rows), np.asarray(pulses))


def histogram_from_bin_counts(
    bin_counts, cfg: BinningConfig, bin_width_ps: float = 10.0
) -> TimeTagHistogram:
    """Synthesize a raw histogram holding the given per-window totals.

    Counts are placed at the central raw bin of each window, so
    integrate_histogram recovers them bit-exactly. t0 puts the left edge of
    the first window at the start of the histogram axis, and the histogram
    is the shortest that holds the last window and one more bin.
    """
    bin_counts = np.asarray(bin_counts, dtype=np.int64)
    if bin_counts.size != cfg.n_detector_bins:
        raise ConfigError(
            f"{bin_counts.size} totals for {cfg.n_detector_bins} windows"
        )
    # written so that NaN fails the check
    if not 0 < bin_width_ps < np.inf:
        raise ConfigError(f"bin_width_ps must be finite and > 0, got {bin_width_ps}")
    t0_ps = cfg.window_width_ns * 500.0
    _, right = cfg.window_edges_ps(t0_ps)
    counts = np.zeros(int(np.ceil(right[-1] / bin_width_ps)) + 1, dtype=np.int64)
    centers = t0_ps + cfg.offsets_ns() * 1000.0
    k = np.round(centers / bin_width_ps - 0.5).astype(int)
    counts[k] = bin_counts
    return TimeTagHistogram(counts, bin_width_ps, t0_ps)
