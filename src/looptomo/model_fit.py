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
from scipy.optimize import minimize

from .detector_model import LoopParams, POVMSet, build_model_povm, model_povm_rows
from .errors import ConfigError, MemoryBudgetError

DEFAULT_MEMORY_BUDGET_BYTES = 2 << 30

# reflectivity is strictly interior; efficiencies may reach 0 and 1
_PARAM_BOUNDS = [(1e-3, 1.0 - 1e-3), (0.0, 1.0), (0.0, 1.0)]
_FLAT_REL_TOL = 1e-10


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


def default_starts(n_bins: int, bin_period_ns: float = 156.0) -> list[LoopParams]:
    """3 x 3 x 3 grid of start points over the parameter box [0.1, 0.99]^3."""
    grid = (0.1, 0.545, 0.99)
    return [
        LoopParams(r, el, ed, n_bins, bin_period_ns)
        for r in grid
        for el in grid
        for ed in grid
    ]


def _masked_loss(theta_exp, n_bins, trunc, mask):
    rows = np.arange(trunc + 1)[mask]
    target = theta_exp[mask]

    def loss(x):
        r, el, ed = x
        try:
            params = LoopParams(r, el, ed, n_bins)
        except ValueError:
            return np.inf
        model = model_povm_rows(params, rows)
        d = target - model
        return float((d * d).sum())

    return loss


def _fd_hessian(loss, x, h=1e-4):
    n = x.size
    hess = np.empty((n, n))
    f0 = loss(x)
    for a in range(n):
        for b in range(a, n):
            ea = np.zeros(n)
            eb = np.zeros(n)
            ea[a] = h
            eb[b] = h
            if a == b:
                val = (loss(x + ea) - 2 * f0 + loss(x - ea)) / h**2
            else:
                val = (
                    loss(x + ea + eb)
                    - loss(x + ea - eb)
                    - loss(x - ea + eb)
                    + loss(x - ea - eb)
                ) / (4 * h**2)
            hess[a, b] = hess[b, a] = val
    return hess


def fit_params(
    povm_exp: POVMSet,
    n_bins: int,
    starts: list[LoopParams] | None = None,
    row_mask: np.ndarray | None = None,
    bin_period_ns: float = 156.0,
) -> FitResult:
    """Fit (reflectivity, loop_efficiency, det_efficiency) to a POVM.

    Frobenius-norm minimization over all outcomes simultaneously,
    derivative-free (Nelder-Mead) from every start point; the best start is
    re-polished with tight tolerances. Rows flagged as unsupported by the
    reconstruction are excluded from the residual unless ``row_mask``
    overrides the selection.

    A best-effort result with ``converged=False`` is returned when no start
    converges; a flat residual direction (non-identifiable parameter) is
    reported in ``warnings``.
    """
    if povm_exp.n_outcomes != n_bins + 1:
        raise ConfigError(
            f"POVM has {povm_exp.n_outcomes} outcomes, expected {n_bins + 1}"
        )
    trunc = povm_exp.truncation_dim
    if row_mask is not None:
        mask = np.asarray(row_mask, dtype=bool)
        if mask.shape != (trunc + 1,):
            raise ConfigError("row_mask length must match POVM rows")
    elif povm_exp.supported is not None:
        mask = povm_exp.supported
    else:
        mask = np.ones(trunc + 1, dtype=bool)
    if not mask.any():
        raise ConfigError("no rows left to fit after masking")

    loss = _masked_loss(povm_exp.theta, n_bins, trunc, mask)
    if starts is None:
        starts = default_starts(n_bins, bin_period_ns)
    if not starts:
        raise ConfigError("at least one start point required")

    n_eval = 0
    best = None
    for start in starts:
        x0 = np.array(
            [start.reflectivity, start.loop_efficiency, start.det_efficiency]
        )
        res = minimize(
            loss,
            x0,
            method="Nelder-Mead",
            bounds=_PARAM_BOUNDS,
            options=dict(xatol=1e-4, fatol=1e-12, maxfev=600),
        )
        n_eval += res.nfev
        if best is None or res.fun < best.fun:
            best = res
    coarse_x = best.x.copy()
    # fatol is absolute in scipy; tie it to the attained objective scale so
    # noisy objectives can terminate on simplex size rather than maxfev
    polish = minimize(
        loss,
        best.x,
        method="Nelder-Mead",
        bounds=_PARAM_BOUNDS,
        options=dict(
            xatol=1e-7, fatol=max(1e-14, 1e-9 * best.fun), maxfev=6000
        ),
    )
    n_eval += polish.nfev
    if polish.fun <= best.fun:
        best = polish
    x = best.x
    sq_residual = float(best.fun)
    converged = bool(
        best.success
        or polish.success
        or np.abs(polish.x - coarse_x).max() < 1e-4
    )

    warnings_list = []
    lo = np.array([b[0] for b in _PARAM_BOUNDS])
    hi = np.array([b[1] for b in _PARAM_BOUNDS])
    for a, name in enumerate(("reflectivity", "loop_efficiency", "det_efficiency")):
        probe = np.zeros(3)
        probe[a] = 0.01 * max(abs(x[a]), 0.01)
        up = loss(np.clip(x + probe, lo, hi))
        down = loss(np.clip(x - probe, lo, hi))
        if max(up, down) - sq_residual <= _FLAT_REL_TOL * (1.0 + sq_residual):
            warnings_list.append(f"flat residual along {name}")

    flat = bool(warnings_list)

    dof = max(int(mask.sum()) * (n_bins + 1) - 3, 1)
    sigma = (np.inf, np.inf, np.inf)
    try:
        hess = _fd_hessian(loss, x)
        cov = 2.0 * (sq_residual / dof) * np.linalg.inv(hess)
        diag = np.diag(cov)
        if np.all(np.isfinite(diag)) and np.all(diag >= 0):
            sigma = tuple(float(v) for v in np.sqrt(diag))
        else:
            warnings_list.append("curvature not positive definite")
    except np.linalg.LinAlgError:
        warnings_list.append("singular curvature; uncertainties unavailable")

    params = LoopParams(x[0], x[1], x[2], n_bins, bin_period_ns)
    return FitResult(
        params=params,
        residual=float(np.sqrt(sq_residual)),
        uncertainties=sigma,
        converged=converged and not flat,
        warnings=tuple(warnings_list),
        n_evaluations=n_eval,
    )


def extrapolate_povm(
    params: LoopParams,
    n_outcomes: int,
    truncation_dim: int,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
) -> POVMSet:
    """Model POVM for the fitted parameters at arbitrary outcome count.

    Delegates to the forward model with n_bins = n_outcomes - 1. When the
    dense matrix would exceed the memory budget the call is refused; use
    :func:`iter_extrapolated_rows` to stream row blocks instead.
    """
    if n_outcomes < 1:
        raise ConfigError(f"n_outcomes must be >= 1, got {n_outcomes}")
    need = 8 * (truncation_dim + 1) * n_outcomes
    if need > memory_budget_bytes:
        raise MemoryBudgetError(
            f"dense POVM needs {need} bytes, budget is {memory_budget_bytes}; "
            "stream it with iter_extrapolated_rows"
        )
    return build_model_povm(params.with_bins(n_outcomes - 1), truncation_dim)


def iter_extrapolated_rows(
    params: LoopParams,
    n_outcomes: int,
    truncation_dim: int,
    chunk_rows: int = 65536,
):
    """Yield (first_index, rows) blocks of the extrapolated POVM."""
    if n_outcomes < 1:
        raise ConfigError(f"n_outcomes must be >= 1, got {n_outcomes}")
    p = params.with_bins(n_outcomes - 1)
    total = truncation_dim + 1
    for start in range(0, total, chunk_rows):
        stop = min(start + chunk_rows, total)
        yield start, model_povm_rows(p, np.arange(start, stop))
