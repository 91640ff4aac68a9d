import types

import looptomo

#: Every public name of the package. An export is added here on purpose,
#: together with the path (CLI stage, benchmark or oracle) that needs it.
PUBLIC_NAMES = [
    "BinningConfig",
    "BrightStateEstimate",
    "ClickSample",
    "CompetingBasinError",
    "ConfigError",
    "DataError",
    "FitResult",
    "LoopParams",
    "OutcomeMatrix",
    "POVMSet",
    "ProbeEnsemble",
    "ProbeMatrix",
    "ReconstructionReport",
    "SmoothingConfig",
    "SweepResult",
    "TimeTagHistogram",
    "UncertaintyBand",
    "assemble_outcome_matrix",
    "bin_probabilities",
    "build_model_povm",
    "build_probe_matrix",
    "coherent_bin_probs",
    "coherent_outcome_distribution",
    "crosscheck_fock_path",
    "dark_count_probability",
    "default_starts",
    "epsilon_sweep",
    "estimate_mean_photon",
    "extrapolate_povm",
    "fit_params",
    "histogram_from_bin_counts",
    "integrate_histogram",
    "l_curve_corner",
    "outcome_probabilities",
    "per_photon_bin_probs",
    "poisson_binomial_bruteforce",
    "poisson_binomial_pmf",
    "poisson_binomial_rows",
    "poisson_pmf",
    "poisson_row",
    "project_rows_to_simplex",
    "reconstruct",
    "reconstruct_reference",
    "simulate_bin_clicks",
    "simulate_bin_totals",
    "smoothness_seminorm",
    "uncertainty_band",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(looptomo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
