"""Tomography toolkit for loop-multiplexed click detectors.

Reconstructs the diagonal POVM elements of a time-multiplexed binary
detector from coherent-probe data, fits the three-parameter loop model,
extrapolates the detector response to large outcome counts and photon
numbers, and estimates bright-state mean photon numbers. A pulse-train
simulator makes every pipeline stage verifiable without hardware.
"""

from .detector_model import (
    LoopParams,
    POVMSet,
    build_model_povm,
    coherent_bin_probs,
    coherent_outcome_distribution,
    per_photon_bin_probs,
    poisson_binomial_bruteforce,
    poisson_binomial_pmf,
    poisson_binomial_rows,
    simulate_bin_clicks,
    simulate_bin_totals,
)
from .errors import CompetingBasinError, ConfigError, DataError
from .estimation import (
    BrightStateEstimate,
    crosscheck_fock_path,
    estimate_mean_photon,
)
from .ingest import (
    BinningConfig,
    OutcomeMatrix,
    TimeTagHistogram,
    assemble_outcome_matrix,
    bin_probabilities,
    histogram_from_bin_counts,
    integrate_histogram,
    outcome_probabilities,
)
from .model_fit import FitResult, default_starts, extrapolate_povm, fit_params
from .probe_states import (
    ProbeEnsemble,
    ProbeMatrix,
    build_probe_matrix,
    poisson_pmf,
    poisson_row,
)
from .reference import reconstruct_reference
from .tomography import (
    ReconstructionReport,
    SmoothingConfig,
    SweepResult,
    UncertaintyBand,
    dark_count_probability,
    epsilon_sweep,
    l_curve_corner,
    project_rows_to_simplex,
    reconstruct,
    smoothness_seminorm,
    uncertainty_band,
)

__version__ = "0.1.0"
