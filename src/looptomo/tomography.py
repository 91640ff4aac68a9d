"""POVM reconstruction from probe/outcome data.

Solves the convex program

    minimize  ||P - F Theta||_F + epsilon * sum_(i,n) (theta[i,n] - theta[i+1,n])^2

over matrices whose rows are probability simplexes (entrywise in [0, 1],
each Fock row summing to one). The residual norm is unsquared; the
smoothing penalty is quadratic in the first differences along the Fock
axis and is always applied through its sparse second-difference operator,
never as a dense (M+1)^2 matrix.

Solver: an operator-splitting (ADMM) phase with exact subproblem solves
(tridiagonal LDL^T factorization of the smoothing block plus a low-rank
Woodbury probe update, two probe-by-Fock products per iteration) handles
any scale; on small problems an active-set Newton polish, wrapped in a
majorize-minimize loop for the unsquared norm, pushes the iterate to
machine-precision optimality. The polish QP's Hessian is block-diagonal
by outcome column, so each step factors one Fock-sized block per column
and solves a Fock-sized Schur system for the row-sum multipliers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrf, dpotrs, dpttrf, dpttrs

from .detector_model import POVMSet
from .errors import ConfigError, DataError
from .probe_states import ProbeMatrix, poisson_row

#: Column mass of F below which a Fock index counts as unconstrained by data.
DEFAULT_SUPPORT_THRESHOLD = 1e-3

#: Residual scale below which the norm term is treated as exactly smooth.
RESIDUAL_FLOOR = 1e-12

_POLISH_MAX_ENTRIES = 2048
_POLISH_TOL = 1e-8  # active-set multiplier tolerance, relative to the gradient
_REFINE_STEPS = 5  # cap on iterative-refinement steps per polish solve
_ADMM_TOL = 1e-7  # scaled primal and dual residuals that stop ADMM
_ADMM_CHECK_EVERY = 20
_ADMM_ALPHA = 1.7  # over-relaxation
_TINY = np.finfo(float).tiny
_SWEEP_SLACK = 1e-7  # L-curve monotonicity violations below this are noise


@dataclass(frozen=True)
class SmoothingConfig:
    """Smoothing weight and iteration cap for reconstruct()."""

    epsilon: float
    max_iterations: int = 20000

    def __post_init__(self):
        if self.epsilon < 0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")


@dataclass(frozen=True)
class ReconstructionReport:
    objective: float
    residual: float
    penalty: float
    smoothness: float
    iterations: int
    converged: bool
    #: Frank-Wolfe gap: an upper bound on objective - (optimal objective)
    gap: float
    wall_time_s: float
    epsilon: float
    n_unsupported: int
    #: ADMM penalty-parameter changes made by residual balancing
    rho_changes: int
    #: primal and dual residuals at the last ADMM check, each scaled as in
    #: the stopping test against _ADMM_TOL
    primal_residual: float
    dual_residual: float
    objective_trace: tuple = field(repr=False, default=())


def project_rows_to_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row onto {x >= 0, sum x = 1}.

    Sort-based algorithm, O(N log N) per row, vectorized over rows.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    u = np.sort(y, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    ks = np.arange(1, y.shape[1] + 1)
    k = ((u - css / ks) > 0).sum(axis=1)
    tau = css[np.arange(y.shape[0]), k - 1] / k
    return np.maximum(y - tau[:, None], 0.0)


def smoothness_seminorm(theta: np.ndarray) -> float:
    """Sum of squared first differences along the Fock axis."""
    d = np.diff(theta, axis=0)
    return float((d * d).sum())


def _smoothness_grad(theta: np.ndarray) -> np.ndarray:
    g = np.zeros_like(theta)
    d = theta[:-1] - theta[1:]
    g[:-1] += d
    g[1:] -= d
    return 2.0 * g


def _objective(F, P, theta, epsilon):
    resid = float(np.linalg.norm(P - F @ theta))
    s = smoothness_seminorm(theta)
    return resid + epsilon * s, resid, s


def _fw_gap(F, P, theta, epsilon) -> float:
    """Frank-Wolfe gap of simplex-row theta: sum_i <g_i, theta_i> - min_n g_in
    for a subgradient g of the objective (Jaggi, ICML 2013).

    By convexity it bounds objective(theta) - objective(any simplex-row
    theta'), so it bounds the distance to the optimum. With r = P - F theta,
    g takes the norm's subgradient -F^T r / ||r||, or 0 when r = 0 exactly.
    """
    grad = epsilon * _smoothness_grad(theta)
    r = P - F @ theta
    norm_r = np.linalg.norm(r)
    if norm_r > 0:
        grad -= F.T @ (r / norm_r)
    # rows of theta sum to one, so this is sum(grad * theta) - sum(row minima)
    return float(((grad - grad.min(axis=1, keepdims=True)) * theta).sum())


class _ThetaSolver:
    """Exact theta-update: solve (2 eps DtD + rho I + rho F^T F) theta = b
    for b = rho F^T a + rho v.

    K = rho I + 2 eps DtD is tridiagonal and is factored once as L D L^T
    (LAPACK dpttrf). The probe Gram term has rank at most the number of
    probes and enters through a Woodbury correction built from the
    probe-sized G = F K^-1 F^T and W = I / rho + G. With c = K^-1 v,
    w = W^-1 rho (G a + F c) and g = rho a - w,

        theta = (K^-1 F^T) g + rho c,    F theta = G g + rho F c,

    so an update costs two products of probe-by-Fock size.
    """

    def __init__(self, F: np.ndarray, epsilon: float, rho: float):
        m1 = F.shape[1]
        diag = np.full(m1, rho)
        if m1 > 1:
            diag[[0, -1]] += 2 * epsilon
            diag[1:-1] += 4 * epsilon
        # dpttrf wants an off-diagonal of length >= 1 even when m1 == 1
        off = np.full(max(m1 - 1, 1), -2 * epsilon)
        self._d, self._e, info = dpttrf(diag, off)
        if info:
            raise np.linalg.LinAlgError(f"smoothing block not positive (info {info})")
        self._rho = rho
        self._k_inv_ft = self._k_solve(F.T)
        self._k_inv_ft[np.abs(self._k_inv_ft) < _TINY] = 0.0
        self._gram = F @ self._k_inv_ft
        self._w_chol, info = dpotrf(np.eye(F.shape[0]) / rho + self._gram)
        if info:
            raise np.linalg.LinAlgError(f"probe block not positive (info {info})")

    def _k_solve(self, b: np.ndarray) -> np.ndarray:
        return dpttrs(self._d, self._e, b)[0]

    def update(self, F: np.ndarray, a: np.ndarray, v: np.ndarray):
        """(theta, F theta) for the right-hand side rho F^T a + rho v."""
        rho = self._rho
        c = self._k_solve(v)
        f_c = F @ c
        # inputs are finite (checked in reconstruct), so call LAPACK directly
        g = rho * a - dpotrs(self._w_chol, rho * (self._gram @ a + f_c))[0]
        return self._k_inv_ft @ g + rho * c, self._gram @ g + rho * f_c


class _AdmmResult(NamedTuple):
    theta: np.ndarray  # best feasible iterate
    iterations: int
    trace: list
    met: bool  # scaled residuals below _ADMM_TOL
    rho_changes: int
    primal_residual: float  # scaled, at the last check
    dual_residual: float


def _admm_phase(F, P, epsilon, max_iter: int) -> _AdmmResult:
    """Splitting phase: theta-update, residual-norm prox, simplex projection."""
    n_probes, m1 = F.shape
    n_out = P.shape[1]
    rho = 1.0
    theta = np.full((m1, n_out), 1.0 / n_out)
    z = theta.copy()
    r_block = P - F @ theta
    u1 = np.zeros_like(P)
    u2 = np.zeros_like(theta)
    solver = _ThetaSolver(F, epsilon, rho)
    best = z.copy()
    best_obj, _, _ = _objective(F, P, best, epsilon)
    trace = [best_obj]
    norm_primal = np.sqrt(P.size + theta.size)
    norm_dual = np.sqrt(theta.size)
    met = False
    rho_changes = 0
    pr_scaled = dr_scaled = float("nan")
    it = 0
    for it in range(1, max_iter + 1):
        theta, f_theta = solver.update(F, P - r_block + u1, z - u2)
        # over-relaxation
        f_relaxed = _ADMM_ALPHA * f_theta + (1 - _ADMM_ALPHA) * (P - r_block)
        t_relaxed = _ADMM_ALPHA * theta + (1 - _ADMM_ALPHA) * z
        v = P - f_relaxed + u1
        nv = np.linalg.norm(v)
        r_block = v * max(0.0, 1.0 - 1.0 / (rho * max(nv, 1e-300)))
        z_old = z
        z = project_rows_to_simplex(t_relaxed + u2)
        u1 += P - f_relaxed - r_block
        u2 += t_relaxed - z
        if it % _ADMM_CHECK_EVERY == 0 or it == max_iter:
            pr = np.sqrt(
                np.linalg.norm(P - f_theta - r_block) ** 2
                + np.linalg.norm(theta - z) ** 2
            )
            dr = rho * np.linalg.norm(z - z_old)
            obj, _, _ = _objective(F, P, z, epsilon)
            if obj < best_obj:
                best_obj, best = obj, z
            trace.append(best_obj)
            pr_scaled, dr_scaled = float(pr / norm_primal), float(dr / norm_dual)
            if max(pr_scaled, dr_scaled) < _ADMM_TOL:
                met = True
                break
            # residual balancing
            if pr > 10 * dr:
                rho *= 2.0
                u1 /= 2.0
                u2 /= 2.0
                rho_changes += 1
                solver = _ThetaSolver(F, epsilon, rho)
            elif dr > 10 * pr:
                rho /= 2.0
                u1 *= 2.0
                u2 *= 2.0
                rho_changes += 1
                solver = _ThetaSolver(F, epsilon, rho)
    return _AdmmResult(best, it, trace, met, rho_changes, pr_scaled, dr_scaled)


def _kkt_lstsq(Q, b_flat, pinned):
    """Least-squares solve of the full equality-constrained KKT system.

    Used for a pivot only when an outcome block of the Hessian does not
    factor (epsilon = 0 with more free Fock rows than probes) or the
    Schur system is exactly singular.
    Returns (x_eq, lam).
    """
    m1 = Q.shape[0]
    n_out = pinned.size // m1
    fi = np.flatnonzero(~pinned)
    i_idx = fi // n_out
    n_idx = fi % n_out
    h_ff = Q[np.ix_(i_idx, i_idx)] * (n_idx[:, None] == n_idx[None, :])
    a_f = np.zeros((m1, fi.size))
    a_f[i_idx, np.arange(fi.size)] = 1.0
    kkt = np.block([[h_ff, a_f.T], [a_f, np.zeros((m1, m1))]])
    rhs = np.concatenate([b_flat[fi], np.ones(m1)])
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    x_eq = np.zeros(pinned.size)
    x_eq[fi] = sol[: fi.size]
    return x_eq, sol[fi.size:]


def _active_set_qp(Q, b_flat, x0, max_pivots, tol):
    """min 0.5 x^T kron(Q, I_N) x - b^T x, rows sum to one, x >= 0.

    Active-set solve; x0 must be feasible. Returns (x, optimal).

    The Hessian is block-diagonal by outcome column n, and only the row-sum
    constraints couple the columns. With S_n the free rows of column n,
    H_n = Q[S_n, S_n] and E_n the m1-by-|S_n| selection of those rows, the
    equality-constrained step solves the m1-by-m1 Schur system

        (sum_n E_n H_n^-1 E_n^T) lam = sum_n E_n H_n^-1 b_n - 1

    for the row multipliers and recovers x_n = H_n^-1 (b_n - lam[S_n]).
    When the KKT residual of that solve exceeds tol, iterative refinement
    with the same factors brings it to rounding level. A pivot changes one
    column, so only that column's block is refactored.
    """
    m1 = Q.shape[0]
    n_out = x0.size // m1
    x = x0.ravel().copy()
    pinned = x <= 0.0
    rows = np.repeat(np.arange(m1), n_out)
    pinned_cols = pinned.reshape(m1, n_out)  # a view: pivots show through
    b_cols = b_flat.reshape(m1, n_out)
    b_scale = max(1.0, float(np.abs(b_flat).max()))
    # per column n: E_n H_n^-1 E_n^T, E_n H_n^-1 b_n, and whether H_n factored
    h_inv = np.zeros((n_out, m1, m1))
    h_inv_b = np.zeros((n_out, m1))
    factored = np.ones(n_out, dtype=bool)

    def factor_column(n):
        free_rows = np.flatnonzero(~pinned_cols[:, n])
        h_inv[n] = 0.0
        h_inv_b[n] = 0.0
        factored[n] = True
        if free_rows.size == 0:
            return
        chol, info = dpotrf(Q[np.ix_(free_rows, free_rows)])
        if info:
            factored[n] = False
            return
        rhs = np.column_stack([np.eye(free_rows.size), b_cols[free_rows, n]])
        sol = dpotrs(chol, rhs)[0]
        h_inv[n][np.ix_(free_rows, free_rows)] = sol[:, :-1]
        h_inv_b[n, free_rows] = sol[:, -1]

    def block_solve(lu, piv, h_r, r_c):
        """KKT solve given h_r[n] = E_n H_n^-1 r_x[n] and the row-sum part."""
        lam = dgetrs(lu, piv, h_r.sum(axis=0) - r_c)[0]
        return h_r - h_inv @ lam, lam

    def kkt_residual(x_cols, lam):
        r_x = np.where(pinned_cols.T, 0.0, b_cols.T - x_cols @ Q - lam)
        r_c = 1.0 - x_cols.sum(axis=0)
        return (r_x, r_c), max(np.abs(r_x).max() / b_scale, np.abs(r_c).max())

    def solve_equality():
        if factored.all():
            lu, piv, info = dgetrf(h_inv.sum(axis=0))
            if info == 0:
                x_cols, lam = block_solve(lu, piv, h_inv_b, 1.0)
                (r_x, r_c), size = kkt_residual(x_cols, lam)
                # a block conditioned near 1/eps (epsilon ~ 0) can leave the
                # row sums off by 1e-6; refine while the residual shrinks
                steps = _REFINE_STEPS if size > tol else 0
                for _ in range(steps):
                    h_r = (h_inv @ r_x[:, :, None])[:, :, 0]
                    dx, dlam = block_solve(lu, piv, h_r, r_c)
                    new_resid, new_size = kkt_residual(x_cols + dx, lam + dlam)
                    if not new_size < size:
                        break
                    x_cols, lam = x_cols + dx, lam + dlam
                    (r_x, r_c), size = new_resid, new_size
                return x_cols.T.ravel(), lam
        return _kkt_lstsq(Q, b_flat, pinned)

    for n in range(n_out):
        factor_column(n)
    for _ in range(max_pivots):
        x_eq, lam = solve_equality()
        step = x_eq - x
        if np.abs(step).max() > 1e-14:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(step < -1e-300, x / -step, np.inf)
            ratios[pinned] = np.inf
            blocking = float(ratios.min())
            alpha = min(1.0, blocking)
            x = np.maximum(x + alpha * step, 0.0)
            if alpha < 1.0:
                j = int(np.argmin(ratios))
                pinned[j] = True
                x[j] = 0.0
                factor_column(j % n_out)
                continue
        grad = (Q @ x.reshape(m1, n_out)).ravel() - b_flat
        multipliers = np.where(pinned, grad + lam[rows], np.inf)
        j = int(np.argmin(multipliers))
        gscale = max(1.0, float(np.abs(grad).max()))
        if multipliers[j] >= -tol * gscale:
            return x.reshape(m1, n_out), True
        pinned[j] = False
        factor_column(j % n_out)
    return x.reshape(m1, n_out), False


def _polish_phase(F, P, epsilon, theta, trace):
    """Majorize-minimize outer loop with active-set inner solves.

    Each outer iteration replaces the unsquared residual norm by its
    quadratic majorizer at the current residual scale s (floored at
    RESIDUAL_FLOOR) and solves the resulting QP exactly.
    """
    m1 = F.shape[1]
    dtd = np.zeros((m1, m1))
    idx = np.arange(m1)
    dtd[idx, idx] = 2.0
    dtd[0, 0] = dtd[-1, -1] = 1.0
    if m1 > 1:
        dtd[idx[:-1], idx[:-1] + 1] = -1.0
        dtd[idx[:-1] + 1, idx[:-1]] = -1.0
    ftf = F.T @ F
    ftp = F.T @ P
    prev_obj, _, _ = _objective(F, P, theta, epsilon)
    any_solved = False
    stationary = False
    for _ in range(60):
        resid = float(np.linalg.norm(P - F @ theta))
        s = max(resid, RESIDUAL_FLOOR)
        q_mat = ftf / s + 2.0 * epsilon * dtd
        theta_new, solved = _active_set_qp(
            q_mat, (ftp / s).ravel(), theta, max_pivots=400, tol=_POLISH_TOL
        )
        obj, _, _ = _objective(F, P, theta_new, epsilon)
        noise = 1e-15 * max(1.0, prev_obj)
        improved = obj < prev_obj - noise
        # an exact QP solve whose objective ties within rounding is the
        # better-converged point; only a real increase rejects it
        if obj <= prev_obj + noise:
            theta = theta_new
            trace.append(obj)
            prev_obj = obj
            any_solved = any_solved or solved
        if not improved:
            # numerical floor of the majorize-minimize loop
            stationary = True
            break
    return theta, any_solved and stationary


def _as_matrix(f_or_matrix) -> np.ndarray:
    if isinstance(f_or_matrix, ProbeMatrix):
        return f_or_matrix.values
    return np.asarray(f_or_matrix, dtype=float)


def _as_outcomes(p_or_matrix) -> np.ndarray:
    values = getattr(p_or_matrix, "values", p_or_matrix)
    return np.atleast_2d(np.asarray(values, dtype=float))


def reconstruct(
    probe_matrix,
    outcomes,
    cfg: SmoothingConfig,
    support_threshold: float = DEFAULT_SUPPORT_THRESHOLD,
) -> tuple[POVMSet, ReconstructionReport]:
    """Reconstruct the POVM set from probe matrix F and outcome matrix P.

    Parameters
    ----------
    probe_matrix : ProbeMatrix or (D, M+1) array
    outcomes : OutcomeMatrix or (D, N) array
    cfg : SmoothingConfig
    support_threshold : float
        Fock columns of F with total mass below this are reported as
        unconstrained by data (the smoothing interpolates them).

    Returns
    -------
    (POVMSet, ReconstructionReport)
        The POVM carries a per-row support mask; non-convergence is
        flagged in the report, never raised.
    """
    F = _as_matrix(probe_matrix)
    P = _as_outcomes(outcomes)
    if F.ndim != 2:
        raise ConfigError("probe matrix must be two-dimensional")
    if F.shape[0] != P.shape[0]:
        raise ConfigError(
            f"probe matrix has {F.shape[0]} rows but outcome matrix {P.shape[0]}"
        )
    if not (np.isfinite(F).all() and np.isfinite(P).all()):
        raise DataError("probe and outcome matrices must be finite")
    t_start = time.perf_counter()
    can_polish = (F.shape[1] * P.shape[1]) <= _POLISH_MAX_ENTRIES
    admm_cap = min(cfg.max_iterations, 2000) if can_polish else cfg.max_iterations
    admm = _admm_phase(F, P, cfg.epsilon, admm_cap)
    theta, trace = admm.theta, admm.trace
    polished = False
    if can_polish:
        theta, polished = _polish_phase(F, P, cfg.epsilon, theta, trace)
    theta = project_rows_to_simplex(theta)
    obj, resid, smooth = _objective(F, P, theta, cfg.epsilon)

    column_mass = F.sum(axis=0)
    supported = column_mass > support_threshold
    report = ReconstructionReport(
        objective=obj,
        residual=resid,
        penalty=cfg.epsilon * smooth,
        smoothness=smooth,
        iterations=admm.iterations,
        converged=bool(admm.met or polished),
        gap=_fw_gap(F, P, theta, cfg.epsilon),
        wall_time_s=time.perf_counter() - t_start,
        epsilon=cfg.epsilon,
        n_unsupported=int((~supported).sum()),
        rho_changes=admm.rho_changes,
        primal_residual=admm.primal_residual,
        dual_residual=admm.dual_residual,
        objective_trace=tuple(trace),
    )
    return POVMSet(theta, supported), report


def dark_count_probability(povm: POVMSet) -> float:
    """Probability of any click on vacuum input: 1 - theta[0, 0]."""
    return float(1.0 - povm.theta[0, 0])


@dataclass(frozen=True)
class UncertaintyBand:
    lo: np.ndarray
    hi: np.ndarray
    n_mc: int
    amplitude_rel_err: float
    #: one entry per draw whose solve stopped unconverged
    warnings: tuple[str, ...] = ()


def uncertainty_band(
    probe_matrix: ProbeMatrix,
    outcomes,
    cfg: SmoothingConfig,
    amplitude_rel_err: float = 0.05,
    n_mc: int = 16,
    seed: int = 0,
) -> UncertaintyBand:
    """Monte-Carlo band from probe amplitude calibration uncertainty.

    Each draw scales every probe amplitude by an independent (1 + delta),
    delta uniform within +-amplitude_rel_err, i.e. scales the mean photon
    number by (1 + delta)^2, rebuilds F and reconstructs. The band is the
    min/max envelope of the draws. Draws whose solve stops unconverged are
    reported as warnings.
    """
    if n_mc < 2:
        raise ConfigError(f"n_mc must be >= 2, got {n_mc}")
    if not isinstance(probe_matrix, ProbeMatrix):
        raise ConfigError("uncertainty_band needs a ProbeMatrix carrying probe means")
    means = probe_matrix.mean_photons
    trunc = probe_matrix.truncation_dim
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    samples = []
    warnings_list = []
    for draw in range(n_mc):
        delta = rng.uniform(-amplitude_rel_err, amplitude_rel_err, size=means.size)
        scaled = means * (1.0 + delta) ** 2
        f_mc = np.vstack([poisson_row(m, trunc) for m in scaled])
        povm, report = reconstruct(f_mc, outcomes, cfg)
        samples.append(povm.theta)
        if not report.converged:
            warnings_list.append(
                f"band draw {draw} did not converge in "
                f"{report.iterations} iterations"
            )
    stack = np.stack(samples)
    return UncertaintyBand(
        stack.min(axis=0), stack.max(axis=0), n_mc, amplitude_rel_err,
        tuple(warnings_list),
    )


@dataclass(frozen=True)
class SweepPoint:
    epsilon: float
    residual: float
    smoothness: float
    objective: float


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    corner_epsilon: float
    warnings: tuple[str, ...]


def l_curve_corner(points) -> float:
    """Epsilon at the maximum-curvature point of the log-log L-curve."""
    pts = sorted(points, key=lambda p: p.epsilon)
    if len(pts) < 3:
        return pts[0].epsilon
    x = np.log10(np.maximum([p.residual for p in pts], 1e-15))
    y = np.log10(np.maximum([p.smoothness for p in pts], 1e-30))
    best_eps = pts[1].epsilon
    best_curv = -1.0
    for k in range(1, len(pts) - 1):
        a = np.array([x[k] - x[k - 1], y[k] - y[k - 1]])
        b = np.array([x[k + 1] - x[k], y[k + 1] - y[k]])
        c = np.array([x[k + 1] - x[k - 1], y[k + 1] - y[k - 1]])
        denom = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)
        if denom == 0:
            continue
        curv = 2.0 * abs(a[0] * b[1] - a[1] * b[0]) / denom
        if curv > best_curv:
            best_curv = curv
            best_eps = pts[k].epsilon
    return best_eps


def epsilon_sweep(
    probe_matrix, outcomes, epsilons, max_iterations: int = 20000
) -> SweepResult:
    """Reconstruct at each smoothing weight; collect the L-curve.

    The residual should be nondecreasing and the smoothness seminorm
    nonincreasing in epsilon; violations (beyond _SWEEP_SLACK) and
    solves that stop unconverged are reported as warnings, not errors.
    """
    eps_list = sorted(float(e) for e in epsilons)
    if not eps_list:
        raise ConfigError("epsilon sweep needs at least one value")
    points = []
    warnings_list = []
    for eps in eps_list:
        cfg = SmoothingConfig(epsilon=eps, max_iterations=max_iterations)
        _, report = reconstruct(probe_matrix, outcomes, cfg)
        points.append(
            SweepPoint(eps, report.residual, report.smoothness, report.objective)
        )
        if not report.converged:
            warnings_list.append(
                f"solve at eps={eps:g} did not converge in "
                f"{report.iterations} iterations"
            )
    for prev, cur in zip(points, points[1:]):
        if cur.residual < prev.residual - _SWEEP_SLACK:
            warnings_list.append(
                f"residual decreased from eps={prev.epsilon:g} to {cur.epsilon:g}"
            )
        if cur.smoothness > prev.smoothness + _SWEEP_SLACK:
            warnings_list.append(
                f"smoothness increased from eps={prev.epsilon:g} to {cur.epsilon:g}"
            )
    return SweepResult(tuple(points), l_curve_corner(points), tuple(warnings_list))
