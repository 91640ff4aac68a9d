"""Interior-point reference solver for the reconstruction objective.

Independent cross-check for :func:`looptomo.tomography.reconstruct`: the
same objective is minimized by a generic log-barrier Newton method instead
of operator splitting. Row-sum constraints are eliminated through an
orthonormal basis of the sum-zero subspace, positivity enters through the
barrier, and the final duality-gap bound certifies the objective value.

Small problems only; dense Hessians scale as ((M+1)(N-1))^2.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_MAX_ENTRIES = 4000
_BARRIER_FACTOR = 15.0  # growth of the barrier weight between centerings
_MAX_NEWTON = 150  # Newton steps per centering


def _sum_zero_basis(n: int) -> np.ndarray:
    """Orthonormal columns spanning {v in R^n : sum v = 0}."""
    u, _, _ = np.linalg.svd(np.eye(n) - np.ones((n, n)) / n)
    z = u[:, : n - 1]
    assert np.abs(z.sum(axis=0)).max() < 1e-10
    return z


def reconstruct_reference(
    probe_matrix,
    outcomes,
    epsilon: float,
    gap_tol: float = 1e-10,
) -> tuple[np.ndarray, float]:
    """Minimize ||P - F T||_F + epsilon * S(T) over row simplexes.

    Returns (theta, objective). The barrier path is followed until the
    duality gap m/t (m = number of inequality constraints) drops below
    gap_tol, so the returned objective is within gap_tol of optimal.
    """
    F = np.asarray(getattr(probe_matrix, "values", probe_matrix), dtype=float)
    P = np.atleast_2d(np.asarray(getattr(outcomes, "values", outcomes), dtype=float))
    if F.shape[0] != P.shape[0]:
        raise ConfigError("probe and outcome matrices must have equal row counts")
    m1 = F.shape[1]
    n_out = P.shape[1]
    if m1 * n_out > _MAX_ENTRIES:
        raise ConfigError(
            f"reference solver limited to {_MAX_ENTRIES} entries, got {m1 * n_out}"
        )
    z_basis = _sum_zero_basis(n_out)  # N x (N-1)
    n_red = n_out - 1
    m_ineq = m1 * n_out

    dtd = np.zeros((m1, m1))
    idx = np.arange(m1)
    dtd[idx, idx] = 2.0
    dtd[0, 0] = dtd[-1, -1] = 1.0
    if m1 > 1:
        dtd[idx[:-1], idx[:-1] + 1] = -1.0
        dtd[idx[:-1] + 1, idx[:-1]] = -1.0
    ftf = F.T @ F

    def theta_of(w):
        return 1.0 / n_out + w @ z_basis.T

    def objective(w):
        t_mat = theta_of(w)
        r = P - F @ t_mat
        d = np.diff(t_mat, axis=0)
        return float(np.linalg.norm(r)) + epsilon * float((d * d).sum())

    def barrier_value(w, t_weight):
        t_mat = theta_of(w)
        if np.any(t_mat <= 0.0):
            return np.inf
        return t_weight * objective(w) - np.log(t_mat).sum()

    w = np.zeros((m1, n_red))
    t_weight = max(1.0, m_ineq / max(objective(w), 1e-6))
    while True:
        for _ in range(_MAX_NEWTON):
            t_mat = theta_of(w)
            r = P - F @ t_mat
            nr = float(np.linalg.norm(r))
            s = max(nr, 1e-300)
            grad_f = -(F.T @ r) @ z_basis / s + 2.0 * epsilon * (dtd @ t_mat) @ z_basis
            grad_bar = -(1.0 / t_mat) @ z_basis
            grad = (t_weight * grad_f + grad_bar).ravel()

            hess = t_weight / s * np.kron(ftf, np.eye(n_red))
            hess += 2.0 * t_weight * epsilon * np.kron(dtd, np.eye(n_red))
            g_dir = ((F.T @ r) @ z_basis).ravel() / s
            hess -= t_weight * np.outer(g_dir, g_dir) / s
            for i in range(m1):
                block = z_basis.T @ (z_basis / (t_mat[i][:, None] ** 2))
                hess[i * n_red : (i + 1) * n_red, i * n_red : (i + 1) * n_red] += block
            try:
                step_vec = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                step_vec = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            decrement = float(-grad @ step_vec)
            if decrement / 2.0 < 1e-12:
                break
            step_mat = step_vec.reshape(m1, n_red)
            f0 = barrier_value(w, t_weight)
            scale = 1.0
            while scale > 1e-14:
                w_next = w + scale * step_mat
                if barrier_value(w_next, t_weight) <= f0 - 0.25 * scale * decrement:
                    break
                scale *= 0.5
            else:
                break
            w = w_next
        if m_ineq / t_weight < gap_tol:
            break
        t_weight *= _BARRIER_FACTOR
    return theta_of(w), objective(w)
