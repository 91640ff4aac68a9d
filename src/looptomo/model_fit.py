"""Physical-parameter fits to a reconstructed POVM, and extrapolation.

Three parameters (out-coupling reflectivity, loop efficiency, detection
efficiency) fix the whole model POVM, so fitting them to the reconstructed
low-outcome POVM lets the detector response be extrapolated to outcome
counts and photon numbers far beyond what a direct reconstruction can
reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector_model import LoopParams, POVMSet, build_model_povm, model_povm_rows
from .errors import ConfigError

#: Largest dense POVM, in bytes, that :func:`extrapolate_povm` builds.
MAX_POVM_BYTES = 2 << 30

# reflectivity is strictly interior; efficiencies may reach 0 and 1
_PARAM_BOUNDS = (np.array([1e-3, 0.0, 0.0]), np.array([1.0 - 1e-3, 1.0, 1.0]))
_PARAM_NAMES = ("reflectivity", "loop_efficiency", "det_efficiency")
_FLAT_REL_TOL = 1e-10
# graded row grid of the multistart search (see _search_positions)
_SEARCH_DENSE = 65
_SEARCH_GROWTH = 1.08
_SEARCH_MAX_GAP = 32


@dataclass(frozen=True)
class FitResult:
    """Best-fit loop parameters and diagnostics.

    ``residual`` is the Frobenius distance between the experimental POVM
    and the model on the fitted rows; ``uncertainties`` are curvature-based
    one-sigma errors (inf where the residual surface is flat).
    """

    params: LoopParams
    residual: float
    uncertainties: tuple[float, float, float]
    converged: bool
    warnings: tuple[str, ...]
    n_evaluations: int


def default_starts(n_bins: int) -> list[LoopParams]:
    """3 x 3 x 3 grid of start points over the parameter box [0.1, 0.99]^3."""
    grid = (0.1, 0.545, 0.99)
    return [
        LoopParams(r, el, ed, n_bins)
        for r in grid
        for el in grid
        for ed in grid
    ]


def _search_positions(n: int) -> np.ndarray:
    """Graded positions in 0..n-1 for the coarse multistart search.

    Every position below ``_SEARCH_DENSE`` is kept; after it the k-th gap
    is round(``_SEARCH_GROWTH`` ** k), at most ``_SEARCH_MAX_GAP``, and the
    last position n - 1 is always included (158 positions at n = 2001,
    262 at n = 5329).
    """
    positions = list(range(min(n, _SEARCH_DENSE)))
    gap = 1.0
    while positions[-1] < n - 1:
        gap = min(gap * _SEARCH_GROWTH, _SEARCH_MAX_GAP)
        positions.append(min(positions[-1] + round(gap), n - 1))
    return np.array(positions)


def fit_params(
    povm_exp: POVMSet,
    n_bins: int,
    starts: list[LoopParams] | None = None,
) -> FitResult:
    """Fit (reflectivity, loop_efficiency, det_efficiency) to a POVM.

    Bounded nonlinear least squares on the model-minus-POVM residuals of
    all outcomes at once, solved by trust-region reflective
    (``scipy.optimize.least_squares``) in two phases. The search runs from
    every start point, clipped into the parameter box first, on a fixed
    graded subset of the fitted rows: every row up to the 65th, then gaps
    growing by 8% per row up to 32 rows wide, and the last row (158 of
    2001 rows, 262 of 5329). The lowest-cost solution wins and is polished
    by one more solve on all fitted rows; with at most 65 fitted rows the
    subset is every row and the search result is final. Rows flagged as
    unsupported by the reconstruction are excluded from the residual; the
    subset is drawn from the rows that remain. ``n_evaluations`` counts the
    model calls of both phases. A POVM carries no window layout, so the
    fitted parameters have ``LoopParams``' default bin period.

    The Jacobian at the solution gives the covariance and the flat-direction
    test: a parameter whose +-1% step changes the squared residual by no
    more than a relative 1e-10 (to first order) is reported in ``warnings``,
    gets an infinite uncertainty and makes the result ``converged=False``.
    """
    # imported here: the other stages have no use for scipy.optimize
    from scipy.optimize import least_squares

    if povm_exp.n_outcomes != n_bins + 1:
        raise ConfigError(
            f"POVM has {povm_exp.n_outcomes} outcomes, expected {n_bins + 1}"
        )
    mask = povm_exp.supported
    if not mask.any():
        raise ConfigError("no rows left to fit after masking")
    if starts is None:
        starts = default_starts(n_bins)
    if not starts:
        raise ConfigError("at least one start point required")

    rows = np.flatnonzero(mask)
    target = povm_exp.theta[mask]
    search = _search_positions(rows.size)
    n_eval = 0

    def residuals(x, fit_rows, fit_target):
        nonlocal n_eval
        n_eval += 1
        model = model_povm_rows(LoopParams(*x, n_bins), fit_rows)
        return (model - fit_target).ravel()

    search_args = (rows[search], target[search])
    best = None
    for start in starts:
        x0 = np.clip(
            [start.reflectivity, start.loop_efficiency, start.det_efficiency],
            *_PARAM_BOUNDS,
        )
        res = least_squares(residuals, x0, bounds=_PARAM_BOUNDS, args=search_args)
        if best is None or res.cost < best.cost:
            best = res
    if search.size < rows.size:
        best = least_squares(
            residuals, best.x, bounds=_PARAM_BOUNDS, args=(rows, target)
        )
    x, jac = best.x, best.jac
    sq_residual = 2.0 * float(best.cost)

    # first-order rise of the squared residual under a +-1% parameter step
    step = 0.01 * np.maximum(np.abs(x), 0.01)
    rise = (np.linalg.norm(jac, axis=0) * step) ** 2
    flat = rise <= _FLAT_REL_TOL * (1.0 + sq_residual)
    warnings_list = [
        f"flat residual along {name}"
        for name, is_flat in zip(_PARAM_NAMES, flat)
        if is_flat
    ]

    sigma = np.full(3, np.inf)
    dof = max(int(mask.sum()) * (n_bins + 1) - 3, 1)
    try:
        diag = np.diag((sq_residual / dof) * np.linalg.inv(jac.T @ jac))
        if np.all(np.isfinite(diag)) and np.all(diag >= 0):
            sigma = np.sqrt(diag)
        else:
            warnings_list.append("curvature not positive definite")
    except np.linalg.LinAlgError:
        warnings_list.append("singular curvature; uncertainties unavailable")
    sigma[flat] = np.inf

    params = LoopParams(x[0], x[1], x[2], n_bins)
    return FitResult(
        params=params,
        residual=float(np.sqrt(sq_residual)),
        uncertainties=tuple(float(v) for v in sigma),
        converged=bool(best.success and not flat.any()),
        warnings=tuple(warnings_list),
        n_evaluations=n_eval,
    )


def extrapolate_povm(
    params: LoopParams, n_outcomes: int, truncation_dim: int
) -> POVMSet:
    """Model POVM for the fitted parameters at arbitrary outcome count.

    Delegates to the forward model with n_bins = n_outcomes - 1. A request
    whose dense matrix would exceed ``MAX_POVM_BYTES`` (2 GiB) is refused
    with a ConfigError before anything is allocated.
    """
    if n_outcomes < 1:
        raise ConfigError(f"n_outcomes must be >= 1, got {n_outcomes}")
    if truncation_dim < 0:
        raise ConfigError(f"truncation_dim must be >= 0, got {truncation_dim}")
    need = 8 * (truncation_dim + 1) * n_outcomes
    if need > MAX_POVM_BYTES:
        raise ConfigError(
            f"dense POVM needs {need} bytes, the limit is {MAX_POVM_BYTES}"
        )
    return build_model_povm(params.with_bins(n_outcomes - 1), truncation_dim)
