"""The simulator's draws, one chunk-long uniform draw per bin, with the joint
occupied-bin histogram that the package does not compute."""

import numpy as np

from looptomo import coherent_bin_probs, detector_model


def one_draw_per_bin(params, mean_photon, n_pulses, seed):
    """(bin_counts, outcome_counts) of the pulse trains simulate_bin_clicks
    draws for the same arguments and no dark counts: outcome_counts[n]
    counts the trains with n occupied bins."""
    c = coherent_bin_probs(params, mean_photon)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    bin_counts = np.zeros(params.n_bins, dtype=np.int64)
    outcome_counts = np.zeros(params.n_outcomes, dtype=np.int64)
    for done in range(0, n_pulses, detector_model._SIM_CHUNK):
        occupied = np.zeros(min(detector_model._SIM_CHUNK, n_pulses - done), int)
        for j in range(params.n_bins):
            clicks = rng.random(occupied.size) < c[j]
            bin_counts[j] += clicks.sum()
            occupied += clicks
        outcome_counts += np.bincount(occupied, minlength=params.n_outcomes)
    return bin_counts, outcome_counts
