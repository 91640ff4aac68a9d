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
any scale. Its Fock-sized iterates are stored outcome-major (Fortran
order), so the tridiagonal solve, both products and the sort-free simplex
projection run over contiguous outcome columns. They live in buffers
allocated once per solve, and the relaxed point is updated in place, with
no separate copy of the simplex dual. F and K^-1 F^T are kept only as the
column blocks that meet their probes' Poisson windows, cut where the tails
left out hold at most 2^-53 of a probe's mass, and both products, the
probe Gram matrix and the objective checks run over those blocks. Each
projection is warm-started from the previous iterate's support, so only
rows whose support changed run the full passes. On small problems ADMM
runs only a short warm-up (_POLISH_WARMUP iterations); an active-set
Newton polish, wrapped in a majorize-minimize loop for the unsquared norm,
then pushes the iterate to machine-precision optimality.
The polish QP's Hessian is block-diagonal by outcome column, so each step
factors one Fock-sized block per column and solves a Fock-sized Schur
system for the row-sum multipliers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import (dgetrf, dgetrs, dpotrf, dpotrs, dpttrf,
                                 dpttrs, dtrtri)

from .detector_model import POVMSet
from .errors import ConfigError, DataError
from .probe_states import ProbeMatrix, poisson_row

#: Column mass of F below which a Fock index counts as unconstrained by data.
DEFAULT_SUPPORT_THRESHOLD = 1e-3

#: Residual scale below which the norm term is treated as exactly smooth.
RESIDUAL_FLOOR = 1e-12

_POLISH_MAX_ENTRIES = 2048
_POLISH_WARMUP = 200  # ADMM iterations before the polish takes over
_POLISH_TOL = 1e-8  # active-set multiplier tolerance, relative to the gradient
_REFINE_STEPS = 5  # cap on iterative-refinement steps per polish solve
_ADMM_TOL = 1e-7  # scaled primal and dual residuals that stop ADMM
_ADMM_CHECK_EVERY = 20
_ADMM_ALPHA = 1.7  # over-relaxation
_TINY = np.finfo(float).tiny
_SWEEP_SLACK = 1e-7  # L-curve monotonicity violations below this are noise
_PROBE_BLOCK = 704  # Fock columns per block of F in the theta-update's F c
_TAIL_CUT = 2.0**-53  # share of a probe row's |F| mass that F c may skip


@dataclass(frozen=True)
class SmoothingConfig:
    """Smoothing weight and iteration cap for reconstruct()."""

    epsilon: float
    max_iterations: int = 20000

    def __post_init__(self):
        # written so that NaN fails the check
        if not 0 <= self.epsilon < np.inf:
            raise ConfigError(f"epsilon must be finite and >= 0, got {self.epsilon}")
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
    #: primal and dual residuals at the last ADMM check, each scaled as in
    #: the stopping test against _ADMM_TOL
    primal_residual: float
    dual_residual: float
    objective_trace: tuple = field(repr=False, default=())


def project_rows_to_simplex(y: np.ndarray, *, support=None) -> np.ndarray:
    """Euclidean projection of every row onto {x >= 0, sum x = 1}.

    Sort-free active-set algorithm (Michelot, J. Optim. Theory Appl. 50,
    1986; Condat, Math. Program. 158, 2016), vectorized over rows. Each
    row is first shifted by its maximum, so every entry is <= 0. Each pass
    then sets tau = (sum of the active entries - 1) / (their count) and
    drops the entries at or below tau; tau only grows, so the active set
    only shrinks and is stable after at most N passes. A sum of entries
    <= 0 stays <= 0 in floating point, so tau <= -1/N < 0 at any scale:
    the row maximum (now 0) is never dropped and no active set empties.
    The reductions run over y.T, whose columns are contiguous for the
    Fortran-ordered iterates of _admm_phase; the output keeps y's layout.

    ``support``, a boolean array of y's shape, warm-starts the passes with
    a guess of each row's support {x > 0}, such as the previous projection's
    in an iterative solver. A row whose guessed set S gives the threshold
    tau_S = (sum of S - 1) / |S| with S == {entries > tau_S} has found its
    projection (tau_S then solves sum max(y - tau, 0) = 1) and is done after
    that one pass; only the other rows run the passes from the start. The
    result equals the projection without a hint up to rounding.
    """
    y_t = np.atleast_2d(np.asarray(y, dtype=float)).T
    s = y_t - y_t.max(axis=0)
    if support is None:
        tau = _simplex_threshold(s)
    else:
        guess = np.atleast_2d(np.asarray(support, dtype=bool)).T
        if guess.shape != s.shape:
            raise ValueError(f"support has shape {guess.shape[::-1]}, "
                             f"y has {s.shape[::-1]}")
        count = guess.sum(axis=0, dtype=np.int32)
        # an empty guess gives tau = -inf, which then fails the test below
        with np.errstate(divide="ignore"):
            tau = (np.add.reduce(s, axis=0, where=guess) - 1.0) / count
        missed = np.flatnonzero(((s > tau) != guess).any(axis=0))
        if missed.size:
            tau[missed] = _simplex_threshold(s[:, missed])
    s -= tau
    return np.maximum(s, 0.0, out=s).T


def _simplex_threshold(s: np.ndarray) -> np.ndarray:
    """Active-set passes of project_rows_to_simplex over the columns of s,
    each already shifted so that its maximum is 0; returns each tau."""
    n = s.shape[0]
    tau = (s.sum(axis=0) - 1.0) / n
    active = s > tau
    count = active.sum(axis=0, dtype=np.int32)  # int32 sums bools fastest
    for _ in range(n):
        tau = (np.add.reduce(s, axis=0, where=active) - 1.0) / count
        active &= s > tau
        new_count = active.sum(axis=0, dtype=np.int32)
        if (new_count == count).all():
            break
        count = new_count
    return tau


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
    """Exact theta-update: solve (I + 2 eps DtD + F^T F) theta = F^T a + v.

    K = I + 2 eps DtD is tridiagonal and is factored once, in __init__, as
    L D L^T (LAPACK dpttrf). The probe Gram term has rank at most the
    number of probes and enters through a Woodbury correction built from
    the probe-sized G = F K^-1 F^T and W = I + G, also factored there.
    With c = K^-1 v, w = W^-1 (G a + F c) and g = a - w,

        theta = (K^-1 F^T) g + c,    F theta = G g + F c,

    so an update costs two products of probe-by-Fock size. Both run on
    transposed views, c^T F^T and g^T (K^-1 F^T)^T, so that with v
    Fortran-ordered (outcome columns contiguous) the Fock-sized operands
    and theta are all outcome-major. The tridiagonal solve overwrites v,
    and theta is written into the caller's buffer, so an update allocates
    nothing of Fock size.

    Each row of F is a Poisson window that is numerically empty outside a
    narrow band, and so is each column of K^-1 F^T, which K^-1 smooths only
    slightly. Both operators are therefore kept only as their
    _PROBE_BLOCK-wide column blocks (_window_blocks): each block holds the
    range of probes whose window meets it, with every probe's entries
    outside its window set to zero. F c, (K^-1 F^T) g and G all run over
    these blocks; the terms left out are below each product's own rounding,
    and neither operator is kept at full size. A problem narrower than one
    block keeps the single products.
    """

    def __init__(self, F: np.ndarray, epsilon: float):
        m1 = F.shape[1]
        diag = np.ones(m1)
        if m1 > 1:
            diag[[0, -1]] += 2 * epsilon
            diag[1:-1] += 4 * epsilon
        # dpttrf wants an off-diagonal of length >= 1 even when m1 == 1
        off = np.full(max(m1 - 1, 1), -2 * epsilon)
        self._d, self._e, info = dpttrf(diag, off)
        if info:
            raise np.linalg.LinAlgError(f"smoothing block not positive (info {info})")
        # Fortran-ordered (m1, D) as dpttrs returns it: its .T is a C view
        self._k_blocks = _window_blocks(dpttrs(self._d, self._e, F.T)[0].T)
        # subnormal entries of K^-1 F^T and of G cost microcode assists in
        # every product with them
        for _, _, blk in self._k_blocks:
            blk[np.abs(blk) < _TINY] = 0.0
        self._f_blocks = _window_blocks(F)
        self.plan = tuple(block[:2] for block in self._f_blocks)
        # both operators share one partition of the Fock columns
        self._gram = np.zeros((F.shape[0], F.shape[0]))
        for (f_rows, _, f_blk), (k_rows, _, k_blk) in zip(self._f_blocks,
                                                          self._k_blocks):
            self._gram[f_rows, k_rows] += f_blk @ k_blk.T
        self._gram[np.abs(self._gram) < _TINY] = 0.0
        self._w_chol, info = dpotrf(np.eye(F.shape[0]) + self._gram)
        if info:
            raise np.linalg.LinAlgError(f"probe block not positive (info {info})")

    def _f_times(self, c: np.ndarray) -> np.ndarray:
        """F c over the window blocks of F."""
        f_c = np.zeros((c.shape[1], self._gram.shape[0]))
        for rows, cols, blk in self._f_blocks:
            f_c[:, rows] += c[cols].T @ blk.T
        return f_c.T

    def _k_times(self, g: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write (K^-1 F^T) g into ``out`` (m1, N) over the window blocks of
        K^-1 F^T; a block that no window meets has no rows and writes zeros."""
        for rows, cols, blk in self._k_blocks:
            np.matmul(g[rows].T, blk, out=out.T[:, cols])
        return out

    def update(self, a: np.ndarray, v: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Write theta for the right-hand side F^T a + v into ``theta``
        (Fortran-ordered (m1, N)) and return F theta.

        A Fortran-ordered v is overwritten.
        """
        c = dpttrs(self._d, self._e, v, overwrite_b=1)[0]
        f_c = self._f_times(c)
        # inputs are finite (checked in reconstruct), so call LAPACK directly
        g = a - dpotrs(self._w_chol, self._gram @ a + f_c)[0]
        self._k_times(g, theta)
        theta += c
        return self._gram @ g + f_c


def _row_windows(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column window [lo, hi) of each row of F: what is left after cutting
    from each end the longest run whose |F| mass is at most _TAIL_CUT / 2
    of the row's, so that the two tails together hold at most _TAIL_CUT of
    it. Computed one row at a time; an all-zero row gets an empty window."""
    m1 = F.shape[1]
    lo = np.empty(F.shape[0], dtype=np.intp)
    hi = np.empty(F.shape[0], dtype=np.intp)
    for i, row in enumerate(F):
        mass = np.abs(row)
        head = np.cumsum(mass)
        cut = 0.5 * _TAIL_CUT * head[-1]
        lo[i] = np.searchsorted(head, cut, side="right")
        hi[i] = m1 - np.searchsorted(np.cumsum(mass[::-1]), cut, side="right")
    return lo, hi


def _window_blocks(a: np.ndarray) -> tuple[tuple[slice, slice, np.ndarray], ...]:
    """(rows, columns, block) for each _PROBE_BLOCK-wide column block of a:
    the rows are the range of those whose window (_row_windows) meets the
    columns, empty when none does, and the block is a copy of a[rows,
    columns] with each row's entries outside its window set to zero. The
    terms left out of a product are each row's two tails, at most _TAIL_CUT
    of its |a| mass: below the product's rounding. An array no wider than
    one block is kept whole, as the one block."""
    m1 = a.shape[1]
    if m1 <= _PROBE_BLOCK:
        return ((slice(None), slice(None), a),)
    lo, hi = _row_windows(a)
    blocks = []
    for start in range(0, m1, _PROBE_BLOCK):
        cols = slice(start, min(start + _PROBE_BLOCK, m1))
        meets = np.flatnonzero((lo < np.minimum(hi, cols.stop)) & (hi > start))
        rows = slice(meets[0], meets[-1] + 1) if meets.size else slice(0, 0)
        blk = a[rows, cols].copy()
        fock = np.arange(start, cols.stop)
        blk[(fock < lo[rows, None]) | (fock >= hi[rows, None])] = 0.0
        blocks.append((rows, cols, blk))
    return tuple(blocks)


def _zero_block_plan(F: np.ndarray) -> tuple[tuple[slice, slice], ...]:
    """(probe rows, Fock columns) of each block of _window_blocks(F)."""
    return tuple(block[:2] for block in _window_blocks(F))


class _AdmmResult(NamedTuple):
    theta: np.ndarray  # best feasible iterate
    iterations: int
    trace: list
    met: bool  # scaled residuals below _ADMM_TOL
    primal_residual: float  # scaled, at the last check
    dual_residual: float


def _admm_phase(F, P, epsilon, max_iter: int) -> _AdmmResult:
    """Splitting phase: theta-update, residual-norm prox, simplex projection.

    Scaled-form ADMM (Boyd et al., Found. Trends Mach. Learn. 3(1), 2011)
    at a fixed penalty of 1, so the theta-update's factors are built once.
    u1 and u2 are the scaled duals of the residual block r_block and of the
    simplex copy z; the prox of the unsquared norm soft-thresholds the
    Frobenius norm of v by 1, and u1 becomes v - r_block.

    The Fock-sized iterates (theta, z, y) are Fortran-ordered, so each
    outcome column is contiguous for the theta-update and the projection.
    u2 is never stored: z is the projection of the relaxed point y =
    alpha theta + (1 - alpha) z + u2, so the new u2 is y - z. y therefore
    starts as z (u2 = 0), the theta-update's right-hand side z - u2 is
    2 z - y, and y is updated in place as y + alpha (theta - z). theta and
    y live in buffers allocated once, and each projection is warm-started
    from the support of the previous z. The objective checks use the
    solver's blocked F z.
    """
    n_out = P.shape[1]
    theta = np.full((F.shape[1], n_out), 1.0 / n_out, order="F")
    z = theta.copy(order="F")
    y = z.copy(order="F")
    r_block = P - F @ theta
    u1 = np.zeros_like(P)
    scratch = np.empty_like(theta)
    support = np.empty(theta.shape, dtype=bool, order="F")
    solver = _ThetaSolver(F, epsilon)

    def objective(x):
        resid = np.linalg.norm(P - solver._f_times(x))
        return float(resid) + epsilon * smoothness_seminorm(x)

    best = z
    best_obj = objective(z)
    trace = [best_obj]
    norm_primal = np.sqrt(P.size + theta.size)
    norm_dual = np.sqrt(theta.size)
    met = False
    pr_scaled = dr_scaled = float("nan")
    it = 0
    for it in range(1, max_iter + 1):
        np.multiply(z, 2.0, out=scratch)
        scratch -= y
        f_theta = solver.update(P - r_block + u1, scratch, theta)
        # over-relaxation
        f_relaxed = _ADMM_ALPHA * f_theta + (1 - _ADMM_ALPHA) * (P - r_block)
        np.subtract(theta, z, out=scratch)
        scratch *= _ADMM_ALPHA
        y += scratch
        v = P - f_relaxed + u1
        nv = np.linalg.norm(v)
        r_block = v * max(0.0, 1.0 - 1.0 / max(nv, 1e-300))
        z_old = z
        z = project_rows_to_simplex(y, support=np.greater(z_old, 0.0, out=support))
        u1 = v - r_block
        if it % _ADMM_CHECK_EVERY == 0 or it == max_iter:
            pr = np.sqrt(
                np.linalg.norm(P - f_theta - r_block) ** 2
                + np.linalg.norm(theta - z) ** 2
            )
            dr = np.linalg.norm(z - z_old)
            obj = objective(z)
            if obj < best_obj:
                best_obj, best = obj, z
            trace.append(best_obj)
            pr_scaled, dr_scaled = float(pr / norm_primal), float(dr / norm_dual)
            if max(pr_scaled, dr_scaled) < _ADMM_TOL:
                met = True
                break
    return _AdmmResult(best, it, trace, met, pr_scaled, dr_scaled)


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
        # H^-1 = U^-1 U^-T, with U^-1 from dtrtri. A dpotrs against the
        # identity hands its triangular solves to the BLAS worker threads
        # from about 40 free rows: at these sizes that keeps a second CPU
        # spinning and now and then stalls a call for milliseconds, while
        # dtrtri and the product stay on the calling thread
        u_inv = dtrtri(chol)[0]
        h_inv[n][np.ix_(free_rows, free_rows)] = u_inv @ u_inv.T
        h_inv_b[n, free_rows] = dpotrs(chol, b_cols[free_rows, n])[0]

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
    if not 0 <= support_threshold < np.inf:
        raise ConfigError(
            f"support_threshold must be finite and >= 0, got {support_threshold}"
        )
    t_start = time.perf_counter()
    can_polish = (F.shape[1] * P.shape[1]) <= _POLISH_MAX_ENTRIES
    admm_cap = (
        min(cfg.max_iterations, _POLISH_WARMUP) if can_polish else cfg.max_iterations
    )
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
        primal_residual=admm.primal_residual,
        dual_residual=admm.dual_residual,
        objective_trace=tuple(trace),
    )
    return POVMSet(theta, supported), report


def _unconverged(report: ReconstructionReport) -> str:
    return (f"did not converge in {report.iterations} iterations "
            f"(gap {report.gap:.1e})")


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
    #: one report per draw, in draw order, as reconstruct() returned it
    reports: tuple[ReconstructionReport, ...] = field(
        default=(), repr=False, compare=False, kw_only=True
    )


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
    min/max envelope of the draws. Every draw keeps its report; draws whose
    solve stops unconverged are also reported as warnings.
    """
    if n_mc < 2:
        raise ConfigError(f"n_mc must be >= 2, got {n_mc}")
    # written so that NaN fails
    if not 0 <= amplitude_rel_err < np.inf:
        raise ConfigError(
            f"amplitude_rel_err must be finite and >= 0, got {amplitude_rel_err}"
        )
    if not isinstance(probe_matrix, ProbeMatrix):
        raise ConfigError("uncertainty_band needs a ProbeMatrix carrying probe means")
    means = probe_matrix.mean_photons
    trunc = probe_matrix.truncation_dim
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    samples = []
    reports = []
    for _ in range(n_mc):
        delta = rng.uniform(-amplitude_rel_err, amplitude_rel_err, size=means.size)
        scaled = means * (1.0 + delta) ** 2
        f_mc = np.vstack([poisson_row(m, trunc) for m in scaled])
        povm, report = reconstruct(f_mc, outcomes, cfg)
        samples.append(povm.theta)
        reports.append(report)
    warnings = tuple(f"band draw {draw} {_unconverged(report)}"
                     for draw, report in enumerate(reports) if not report.converged)
    stack = np.stack(samples)
    return UncertaintyBand(
        stack.min(axis=0), stack.max(axis=0), n_mc, amplitude_rel_err,
        warnings, reports=tuple(reports),
    )


@dataclass(frozen=True)
class SweepPoint:
    epsilon: float
    residual: float
    smoothness: float
    objective: float
    #: the solve behind this point, as reconstruct() returned it
    povm: POVMSet | None = field(default=None, repr=False, compare=False)
    report: ReconstructionReport | None = field(default=None, repr=False,
                                                compare=False)


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
    probe_matrix,
    outcomes,
    epsilons,
    max_iterations: int = 20000,
    support_threshold: float = DEFAULT_SUPPORT_THRESHOLD,
) -> SweepResult:
    """Reconstruct at each smoothing weight; collect the L-curve.

    Each distinct epsilon is solved once, and each point keeps its solve
    (POVM and report). The residual should be
    nondecreasing and the smoothness seminorm nonincreasing in epsilon;
    violations (beyond _SWEEP_SLACK) and solves that stop unconverged are
    reported as warnings, not errors.
    """
    eps_list = sorted({float(e) for e in epsilons})
    if not eps_list:
        raise ConfigError("epsilon sweep needs at least one value")
    points = []
    warnings_list = []
    for eps in eps_list:
        cfg = SmoothingConfig(epsilon=eps, max_iterations=max_iterations)
        povm, report = reconstruct(probe_matrix, outcomes, cfg, support_threshold)
        points.append(SweepPoint(eps, report.residual, report.smoothness,
                                 report.objective, povm, report))
        if not report.converged:
            warnings_list.append(f"solve at eps={eps:g} {_unconverged(report)}")
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
