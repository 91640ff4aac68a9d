import ast
import types
from pathlib import Path

import looptomo

#: Every public name of the package. An export is added here on purpose,
#: together with the path (CLI stage, benchmark or oracle) that needs it.
PUBLIC_NAMES = [
    "BinningConfig",
    "BrightStateEstimate",
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


#: The package's layers, lowest first: physics, then the solvers and fits,
#: then I/O, then the CLI. A module may import only from lower layers.
LAYERS = [
    {"errors"},
    {"probe_states"},
    {"detector_model"},
    {"ingest"},
    {"model_fit", "tomography", "estimation", "reference"},
    {"fileio"},
    {"cli"},
]


def _package_imports(tree: ast.AST) -> set[str]:
    """The looptomo modules that a module's source imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "looptomo":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import x, y
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "looptomo":  # the bare package is kept as is
                    found.add(parts[1] if len(parts) > 1 else parts[0])
    return found


def test_imports_point_down_the_layers():
    rank = {name: level for level, names in enumerate(LAYERS) for name in names}
    package = Path(looptomo.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert modules == sorted(rank)
    upward = [
        (name, imported)
        for name in modules
        for imported in sorted(
            _package_imports(ast.parse((package / f"{name}.py").read_text()))
        )
        # a name that is no module comes from the package itself, the top
        if rank.get(imported, len(LAYERS)) >= rank[name]
    ]
    assert not upward, upward
