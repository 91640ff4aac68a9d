import dataclasses
import re

import numpy as np
import pytest
from scipy.linalg.lapack import dpttrs

from looptomo import (
    ConfigError,
    DataError,
    LoopParams,
    POVMSet,
    ProbeMatrix,
    SmoothingConfig,
    build_model_povm,
    dark_count_probability,
    epsilon_sweep,
    l_curve_corner,
    project_rows_to_simplex,
    reconstruct,
    reconstruct_reference,
    simulate_bin_totals,
    smoothness_seminorm,
    uncertainty_band,
)
from looptomo import tomography
from looptomo.cli import DEFAULT_SWEEP
from looptomo.ingest import bin_probabilities, outcome_probabilities
from looptomo.probe_states import poisson_row
from looptomo.tomography import _POLISH_MAX_ENTRIES, _active_set_qp, _ThetaSolver

DEVICE3 = LoopParams(0.89613, 0.9064, 0.4912, 3)


def small_problem(noise_pulses=None, seed=0, n_bins=3, trunc=60, mu_max=25.0, d=15):
    """Linear probe ladder; noiseless P or multinomially sampled rows."""
    params = DEVICE3.with_bins(n_bins)
    theta_true = build_model_povm(params, trunc).theta
    means = mu_max * np.arange(d) / (d - 1)
    f_mat = np.vstack([poisson_row(m, trunc) for m in means])
    p_mat = f_mat @ theta_true
    if noise_pulses:
        rng = np.random.default_rng(seed)
        p_mat = np.vstack(
            [rng.multinomial(noise_pulses, row) / noise_pulses for row in p_mat]
        )
    return f_mat, p_mat, theta_true, means


class TestSimplexProjection:
    def test_idempotent_on_feasible(self):
        rows = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
        np.testing.assert_allclose(project_rows_to_simplex(rows), rows, atol=1e-15)

    def test_rows_feasible_after_projection(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(200, 11)) * 3
        x = project_rows_to_simplex(y)
        assert x.min() >= 0.0
        np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-12)

    def test_support_hint_must_match_shape(self):
        with pytest.raises(ValueError, match="support has shape"):
            project_rows_to_simplex(np.zeros((4, 3)), support=np.ones((3, 4), bool))

    def test_matches_bruteforce_kkt(self):
        # projection of a 2-vector has a closed form
        x = project_rows_to_simplex(np.array([[2.0, 0.0]]))
        np.testing.assert_allclose(x, [[1.0, 0.0]], atol=1e-15)
        x = project_rows_to_simplex(np.array([[0.6, 0.6]]))
        np.testing.assert_allclose(x, [[0.5, 0.5]], atol=1e-15)


class TestReconstruct:
    def test_noiseless_recovery_on_supported_rows(self):
        f_mat, p_mat, theta_true, _ = small_problem()
        povm, report = reconstruct(f_mat, p_mat, SmoothingConfig(epsilon=1e-6))
        sup = povm.supported
        err = np.linalg.norm((povm.theta - theta_true)[sup]) / np.linalg.norm(
            theta_true[sup]
        )
        assert err < 1e-2
        assert report.converged

    def test_feasibility_is_machine_exact(self):
        f_mat, p_mat, _, _ = small_problem(noise_pulses=10**5, seed=3)
        povm, _ = reconstruct(f_mat, p_mat, SmoothingConfig(epsilon=1e-4))
        assert povm.theta.min() >= 0.0
        assert np.abs(povm.theta.sum(axis=1) - 1.0).max() < 1e-8

    def test_vacuum_only_pins_first_row(self):
        f_mat = poisson_row(0.0, 5)[None, :]
        p_mat = np.zeros((1, 4))
        p_mat[0, 0] = 1.0
        povm, _ = reconstruct(f_mat, p_mat, SmoothingConfig(epsilon=1e-9))
        assert povm.theta[0, 0] >= 1.0 - 1e-6

    def test_objective_descent(self):
        f_mat, p_mat, _, _ = small_problem(noise_pulses=10**4, seed=5)
        _, report = reconstruct(f_mat, p_mat, SmoothingConfig(epsilon=1e-3))
        trace = np.array(report.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_objective_equals_residual_plus_penalty(self):
        f_mat, p_mat, _, _ = small_problem(noise_pulses=10**4, seed=6)
        _, report = reconstruct(f_mat, p_mat, SmoothingConfig(epsilon=1e-3))
        assert report.objective == pytest.approx(
            report.residual + report.penalty, rel=1e-12
        )
        assert report.penalty == pytest.approx(
            report.epsilon * report.smoothness, rel=1e-12
        )

    def test_permutation_equivariance(self):
        f_mat, p_mat, _, _ = small_problem(noise_pulses=10**5, seed=7)
        cfg = SmoothingConfig(epsilon=1e-4)
        povm_a, _ = reconstruct(f_mat, p_mat, cfg)
        perm = np.random.default_rng(1).permutation(f_mat.shape[0])
        povm_b, _ = reconstruct(f_mat[perm], p_mat[perm], cfg)
        np.testing.assert_allclose(povm_a.theta, povm_b.theta, atol=1e-8)

    @pytest.mark.parametrize("seed, perm_seed", [(8, 1), (8, 3), (9, 1)])
    def test_permutation_equivariance_through_polish(self, seed, perm_seed):
        # cases where the majorize-minimize polish once stopped on a
        # rounding-level objective tie, 1e-7 away along a flat direction
        f_mat, p_mat, _, _ = small_problem(noise_pulses=10**5, seed=seed)
        cfg = SmoothingConfig(epsilon=1e-4)
        povm_a, _ = reconstruct(f_mat, p_mat, cfg)
        perm = np.random.default_rng(perm_seed).permutation(f_mat.shape[0])
        povm_b, _ = reconstruct(f_mat[perm], p_mat[perm], cfg)
        np.testing.assert_allclose(povm_a.theta, povm_b.theta, atol=1e-8)

    def test_outcome_column_permutation_equivariance(self):
        # the polish splits the QP by outcome column; relabelling the
        # outcomes must relabel the columns of theta and nothing else
        f_mat, p_mat, _, _ = small_problem(noise_pulses=10**5, seed=7, n_bins=5)
        assert f_mat.shape[1] * p_mat.shape[1] <= _POLISH_MAX_ENTRIES
        cfg = SmoothingConfig(epsilon=1e-4)
        povm_a, report = reconstruct(f_mat, p_mat, cfg)
        assert report.converged
        perm = np.random.default_rng(4).permutation(p_mat.shape[1])
        povm_b, _ = reconstruct(f_mat, p_mat[:, perm], cfg)
        np.testing.assert_allclose(povm_b.theta, povm_a.theta[:, perm], atol=1e-8)

    def test_zero_epsilon_reproduces_pure_least_squares(self):
        # trunc small enough that every Fock column is data-supported and
        # the least-squares optimum is unique
        f_mat, p_mat, _, _ = small_problem(
            noise_pulses=10**5, seed=8, trunc=10, mu_max=4.0
        )
        povm_off, rep_off = reconstruct(f_mat, p_mat, SmoothingConfig(epsilon=0.0))
        povm_tiny, _ = reconstruct(f_mat, p_mat, SmoothingConfig(epsilon=1e-30))
        assert rep_off.penalty == 0.0
        np.testing.assert_allclose(povm_off.theta, povm_tiny.theta, atol=1e-7)

    def test_unsupported_rows_are_flagged(self):
        f_mat, p_mat, _, _ = small_problem()
        povm, report = reconstruct(f_mat, p_mat, SmoothingConfig(epsilon=1e-4))
        col_mass = f_mat.sum(axis=0)
        np.testing.assert_array_equal(povm.supported, col_mass > 1e-3)
        assert report.n_unsupported == int((col_mass <= 1e-3).sum())

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            reconstruct(np.ones((3, 5)), np.ones((4, 2)) / 2, SmoothingConfig(1e-4))

    @pytest.mark.parametrize("value", [-1e-4, np.nan, np.inf])
    def test_bad_epsilon_and_threshold_rejected(self, value):
        f_mat, p_mat, _, _ = small_problem()
        with pytest.raises(ConfigError):
            SmoothingConfig(epsilon=value)
        with pytest.raises(ConfigError):
            reconstruct(f_mat, p_mat, SmoothingConfig(1e-4), support_threshold=value)

    def test_accepts_probe_matrix_wrapper(self):
        f_mat, p_mat, _, means = small_problem()
        wrapper = ProbeMatrix(f_mat, means, 60)
        povm, _ = reconstruct(wrapper, p_mat, SmoothingConfig(epsilon=1e-4))
        assert povm.theta.shape == (61, 4)

    @pytest.mark.parametrize("bad", ["nan_outcome", "inf_probe"])
    def test_non_finite_input_is_data_error(self, bad):
        f_mat, p_mat, _, _ = small_problem()
        if bad == "nan_outcome":
            p_mat[2, 1] = np.nan
        else:
            f_mat[3, 7] = np.inf
        with pytest.raises(DataError):
            reconstruct(f_mat, p_mat, SmoothingConfig(epsilon=1e-4))


class TestThetaUpdate:
    """One ADMM theta-update against a dense solve of
    (2 eps DtD + I + F^T F) theta = F^T a + v."""

    @staticmethod
    def dense_update(f_mat, eps, a, v):
        m1 = f_mat.shape[1]
        d = np.diff(np.eye(m1), axis=0)
        lhs = 2 * eps * d.T @ d + np.eye(m1) + f_mat.T @ f_mat
        return np.linalg.solve(lhs, f_mat.T @ a + v)

    # truncation 1500 spans three column blocks of F, with exact-zero windows
    @pytest.mark.parametrize("trunc, eps", [(60, 1e-3), (60, 1e-5),
                                            (0, 1e-3), (1500, 1e-5)])
    def test_matches_dense_solve(self, trunc, eps):
        rng = np.random.default_rng(trunc)
        top = 1200.0 if trunc > 60 else 25.0
        means = np.linspace(0.0, top, 15) if trunc else np.zeros(3)
        f_mat = np.vstack([poisson_row(m, trunc) for m in means])
        a = rng.normal(size=(f_mat.shape[0], 4))
        v = rng.normal(size=(trunc + 1, 4))
        solver = _ThetaSolver(f_mat, eps)
        assert len(solver.plan) == (3 if trunc > 60 else 1)
        expected = self.dense_update(f_mat, eps, a, v)
        # the ADMM loop passes Fortran-ordered (outcome-major) iterates; the
        # update may overwrite v, so each call gets its own copy
        for order in ("C", "F"):
            theta = np.empty(v.shape, order="F")
            f_theta = solver.update(np.array(a, order=order),
                                    np.array(v, order=order), theta)
            assert np.abs(theta - expected).max() < 1e-12
            assert np.abs(f_theta - f_mat @ theta).max() < 1e-12


def sort_projection(y):
    """The sort-based simplex projection that the active-set one replaced."""
    u = np.sort(y, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    ks = np.arange(1, y.shape[1] + 1)
    k = ((u - css / ks) > 0).sum(axis=1)
    tau = css[np.arange(y.shape[0]), k - 1] / k
    return np.maximum(y - tau[:, None], 0.0)


def c_ordered_admm(F, P, epsilon, max_iter):
    """The C-ordered, sort-based ADMM loop that the outcome-major one
    replaced. Returns (best iterate, iterations)."""
    from scipy.linalg.lapack import dpotrf, dpotrs, dpttrf, dpttrs

    m1, n_out = F.shape[1], P.shape[1]
    diag = np.ones(m1)
    diag[[0, -1]] += 2 * epsilon
    diag[1:-1] += 4 * epsilon
    d, e, _ = dpttrf(diag, np.full(m1 - 1, -2 * epsilon))
    k_inv_ft = dpttrs(d, e, F.T)[0]
    k_inv_ft[np.abs(k_inv_ft) < np.finfo(float).tiny] = 0.0
    gram = F @ k_inv_ft
    w_chol = dpotrf(np.eye(F.shape[0]) + gram)[0]

    def update(a, v):
        c = dpttrs(d, e, v)[0]
        f_c = F @ c
        g = a - dpotrs(w_chol, gram @ a + f_c)[0]
        return k_inv_ft @ g + c, gram @ g + f_c

    def objective(t):
        return tomography._objective(F, P, t, epsilon)[0]

    alpha = tomography._ADMM_ALPHA
    theta = np.full((m1, n_out), 1.0 / n_out)
    z = theta.copy()
    r_block = P - F @ theta
    u1 = np.zeros_like(P)
    u2 = np.zeros_like(theta)
    best, best_obj = z, objective(z)
    norm_primal = np.sqrt(P.size + theta.size)
    norm_dual = np.sqrt(theta.size)
    it = 0
    for it in range(1, max_iter + 1):
        theta, f_theta = update(P - r_block + u1, z - u2)
        f_relaxed = alpha * f_theta + (1 - alpha) * (P - r_block)
        t_relaxed = alpha * theta + (1 - alpha) * z
        v = P - f_relaxed + u1
        nv = np.linalg.norm(v)
        r_block = v * max(0.0, 1.0 - 1.0 / max(nv, 1e-300))
        z_old = z
        z = sort_projection(t_relaxed + u2)
        u1 += P - f_relaxed - r_block
        u2 += t_relaxed - z
        if it % tomography._ADMM_CHECK_EVERY == 0 or it == max_iter:
            pr = np.sqrt(np.linalg.norm(P - f_theta - r_block) ** 2
                         + np.linalg.norm(theta - z) ** 2)
            dr = np.linalg.norm(z - z_old)
            obj = objective(z)
            if obj < best_obj:
                best, best_obj = z, obj
            if max(pr / norm_primal, dr / norm_dual) < tomography._ADMM_TOL:
                break
    return best, it


class TestAdmmLayout:
    def test_matches_c_ordered_sort_based_loop(self):
        # 301 x 11 unknowns is above the polish limit: ADMM alone
        f_mat, p_mat, _, _ = small_problem(
            noise_pulses=450_000, seed=4, n_bins=10, trunc=300, mu_max=200.0, d=20
        )
        assert f_mat.shape[1] * p_mat.shape[1] > _POLISH_MAX_ENTRIES
        result = tomography._admm_phase(f_mat, p_mat, 1e-5, 500)
        expected, iterations = c_ordered_admm(f_mat, p_mat, 1e-5, 500)
        assert result.iterations == iterations
        obj = tomography._objective(f_mat, p_mat, result.theta, 1e-5)[0]
        ref = tomography._objective(f_mat, p_mat, expected, 1e-5)[0]
        assert obj == pytest.approx(ref, rel=1e-10, abs=0)
        assert result.theta.shape == expected.shape
        assert result.theta.flags.f_contiguous

    # 40 quadratic probes at truncation 1800: three column blocks of F, each
    # with exact-zero probe windows
    def test_zero_block_products_match_c_ordered_loop(self):
        trunc = 1800
        f_mat = np.vstack([poisson_row(m, trunc) for m in np.arange(40.0) ** 2])
        theta_true = build_model_povm(DEVICE3.with_bins(10), trunc).theta
        rng = np.random.default_rng(7)
        p_mat = np.vstack([rng.multinomial(450_000, row / row.sum()) / 450_000
                           for row in f_mat @ theta_true])
        plan = tomography._zero_block_plan(f_mat)
        assert len(plan) >= 2
        assert any(rows != slice(0, f_mat.shape[0]) for rows, _ in plan)
        result = tomography._admm_phase(f_mat, p_mat, 1e-5, 400)
        expected, iterations = c_ordered_admm(f_mat, p_mat, 1e-5, 400)
        assert result.iterations == iterations
        obj = tomography._objective(f_mat, p_mat, result.theta, 1e-5)[0]
        ref = tomography._objective(f_mat, p_mat, expected, 1e-5)[0]
        assert obj == pytest.approx(ref, rel=1e-10, abs=0)

    def test_factors_once_per_solve(self, monkeypatch):
        # P scaled by 1e-3 leaves the dual residual far above the primal
        # one, yet the smoothing block is factored only when the solve starts
        f_mat, p_mat, _, _ = small_problem(
            noise_pulses=450_000, seed=4, n_bins=10, trunc=300, mu_max=200.0, d=20
        )
        calls = []
        factor = tomography.dpttrf

        def counted(*args, **kwargs):
            calls.append(args)
            return factor(*args, **kwargs)

        monkeypatch.setattr(tomography, "dpttrf", counted)
        tomography._admm_phase(f_mat, p_mat * 1e-3, 1e-5, 500)
        assert len(calls) == 1

    # the paper's F, and the same windows with random signs and an all-zero
    # last row
    @pytest.mark.parametrize("signed", [False, True])
    def test_windowed_plan_skips_only_the_tails(self, signed):
        f_mat = np.vstack([poisson_row(float(d * d), 5328) for d in range(71)])
        rng = np.random.default_rng(3)
        if signed:
            f_mat *= rng.choice([-1.0, 1.0], size=f_mat.shape)
            f_mat[-1] = 0.0
        plan = tomography._zero_block_plan(f_mat)
        covered = np.zeros(f_mat.shape, dtype=bool)
        for rows, cols in plan:
            covered[rows, cols] = True
        mass = np.abs(f_mat)
        skipped = np.where(covered, 0.0, mass).sum(axis=1)
        assert np.all(skipped <= 2.0**-53 * mass.sum(axis=1))
        # the exact zeros alone leave 52% of F's area to the product
        assert covered.mean() < 0.25
        if signed:
            assert all(rows.stop < f_mat.shape[0] for rows, _ in plan)
        c = np.asfortranarray(rng.standard_normal((f_mat.shape[1], 11)))
        dense = f_mat @ c
        planned = _ThetaSolver(f_mat, 1e-5)._f_times(c)
        assert np.abs(planned - dense).max() <= 1e-15 * np.abs(dense).max()

    def test_lcurve_shape_keeps_one_product(self):
        # the lcurve_small benchmark's 15 probes at truncation 60
        f_mat = np.vstack([poisson_row(m, 60) for m in 25.0 * np.arange(15) / 14])
        assert tomography._zero_block_plan(f_mat) == ((slice(None), slice(None)),)


class TestWindowedOperators:
    """The theta-solver keeps F and K^-1 F^T only as window blocks; on the
    paper's F they hold each row's mass up to 2^-53 and give the dense
    products."""

    @pytest.fixture(scope="class")
    def paper(self):
        f_mat = np.vstack([poisson_row(float(d * d), 5328) for d in range(71)])
        solver = _ThetaSolver(f_mat, 1e-5)
        k_inv_ft = dpttrs(solver._d, solver._e, f_mat.T)[0]
        return f_mat, k_inv_ft, solver

    def test_k_inv_ft_blocks_skip_only_the_tails(self, paper):
        f_mat, k_inv_ft, solver = paper
        dense = k_inv_ft.T  # row j is column j of K^-1 F^T
        stored = np.zeros(dense.shape)
        covered = np.zeros(dense.shape, dtype=bool)
        for rows, cols, blk in solver._k_blocks:
            stored[rows, cols] = blk
            covered[rows, cols] = True
        mass = np.abs(dense).sum(axis=1)
        assert np.all(np.abs(dense - stored).sum(axis=1) <= 2.0**-53 * mass)
        assert covered.mean() < 0.25

    def test_blocked_products_match_dense(self, paper):
        f_mat, k_inv_ft, solver = paper
        g = np.random.default_rng(5).standard_normal((f_mat.shape[0], 11))
        dense = k_inv_ft @ g
        blocked = solver._k_times(g, np.empty(dense.shape, order="F"))
        assert np.abs(blocked - dense).max() <= 1e-15 * np.abs(dense).max()
        gram = f_mat @ k_inv_ft
        assert np.abs(solver._gram - gram).max() <= 1e-15 * np.abs(gram).max()

    def test_no_full_size_operator_is_kept(self, paper):
        f_mat, _, solver = paper
        blocks = [blk for _, _, blk in solver._f_blocks + solver._k_blocks]
        assert all(blk.base is None for blk in blocks)
        assert sum(blk.size for blk in blocks) <= 0.5 * f_mat.size


def dense_kkt_qp(Q, b_flat, x0, max_pivots, tol):
    """The dense-KKT active-set solve that the outcome-block solve replaced."""
    m1 = Q.shape[0]
    n_out = x0.size // m1
    x = x0.ravel().copy()
    pinned = x <= 0.0
    rows = np.repeat(np.arange(m1), n_out)
    for _ in range(max_pivots):
        free = ~pinned
        fi = np.where(free)[0]
        i_idx = fi // n_out
        n_idx = fi % n_out
        h_ff = Q[np.ix_(i_idx, i_idx)] * (n_idx[:, None] == n_idx[None, :])
        a_f = np.zeros((m1, fi.size))
        a_f[i_idx, np.arange(fi.size)] = 1.0
        kkt = np.block([[h_ff, a_f.T], [a_f, np.zeros((m1, m1))]])
        rhs = np.concatenate([b_flat[fi], np.ones(m1)])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        lam = sol[fi.size:]
        x_eq = np.zeros_like(x)
        x_eq[fi] = sol[: fi.size]
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
                continue
        grad = (Q @ x.reshape(m1, n_out)).ravel() - b_flat
        multipliers = np.where(pinned, grad + lam[rows], np.inf)
        j = int(np.argmin(multipliers))
        gscale = max(1.0, float(np.abs(grad).max()))
        if multipliers[j] >= -tol * gscale:
            return x.reshape(m1, n_out), True
        pinned[j] = False
    return x.reshape(m1, n_out), False


def random_qp(seed, m1, n_out):
    """Seeded SPD Q, linear term and a feasible start with some zeros."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m1 + 2, m1))
    q_mat = a.T @ a + 0.05 * np.eye(m1)
    b = rng.normal(scale=3.0, size=(m1, n_out))
    x0 = rng.uniform(size=(m1, n_out))
    x0[rng.uniform(size=x0.shape) < 0.3] = 0.0
    x0[np.arange(m1), rng.integers(n_out, size=m1)] += 0.5
    return q_mat, b, x0 / x0.sum(axis=1, keepdims=True)


class TestActiveSetQP:
    @pytest.mark.parametrize(
        "seed, m1, n_out",
        [(0, 1, 3), (1, 5, 2), (2, 8, 4), (3, 20, 6), (4, 40, 11), (5, 61, 4)],
    )
    def test_matches_dense_kkt(self, seed, m1, n_out):
        q_mat, b, x0 = random_qp(seed, m1, n_out)
        x_new, ok_new = _active_set_qp(q_mat, b.ravel(), x0, 400, 1e-8)
        x_ref, ok_ref = dense_kkt_qp(q_mat, b.ravel(), x0, 400, 1e-8)
        assert ok_new == ok_ref
        np.testing.assert_allclose(x_new, x_ref, rtol=0, atol=1e-10)

    def test_column_pivoted_down_to_one_free_row(self):
        # column 0 pays for every row but the first, so pivoting pins all
        # of its other entries that start positive
        q_mat, b, x0 = random_qp(6, 12, 5)
        b[:, 0] = -100.0
        b[0, 0] = 100.0
        assert np.count_nonzero(x0[:, 0]) > 2
        x_new, ok_new = _active_set_qp(q_mat, b.ravel(), x0, 400, 1e-8)
        x_ref, ok_ref = dense_kkt_qp(q_mat, b.ravel(), x0, 400, 1e-8)
        assert ok_new and ok_ref
        assert np.flatnonzero(x_new[:, 0]).tolist() == [0]
        np.testing.assert_allclose(x_new, x_ref, rtol=0, atol=1e-10)

    def test_ill_conditioned_blocks_keep_row_sums(self):
        # epsilon = 0 with fewer Fock rows than probes: every block factors,
        # with condition number ~1e15
        f_mat, p_mat, _, _ = small_problem(
            noise_pulses=10**5, seed=8, trunc=10, mu_max=4.0
        )
        q_mat = f_mat.T @ f_mat / 6e-3
        b = (f_mat.T @ p_mat / 6e-3).ravel()
        x0 = np.full((11, 4), 0.25)
        x_new, ok_new = _active_set_qp(q_mat, b, x0, 400, 1e-8)
        x_ref, ok_ref = dense_kkt_qp(q_mat, b, x0, 400, 1e-8)
        assert ok_new and ok_ref
        np.testing.assert_allclose(x_new.sum(axis=1), 1.0, rtol=0, atol=1e-13)

        def qp_objective(x):
            return 0.5 * np.sum(x * (q_mat @ x)) - b @ x.ravel()

        ref = qp_objective(x_ref)
        assert qp_objective(x_new) <= ref + 1e-12 * abs(ref)

    def test_pivot_budget_exhausted_matches(self):
        q_mat, b, x0 = random_qp(7, 30, 6)
        x_new, ok_new = _active_set_qp(q_mat, b.ravel(), x0, 3, 1e-8)
        x_ref, ok_ref = dense_kkt_qp(q_mat, b.ravel(), x0, 3, 1e-8)
        assert not ok_new and not ok_ref
        np.testing.assert_allclose(x_new, x_ref, rtol=0, atol=1e-10)


@pytest.fixture
def lstsq_calls(monkeypatch):
    """Counts the polish pivots that fall back to the full KKT system."""
    calls = []
    real = tomography._kkt_lstsq

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(tomography, "_kkt_lstsq", counted)
    return calls


class TestPolishFallback:
    def test_zero_epsilon_reaches_lstsq(self, lstsq_calls):
        # 61 free Fock rows, 15 probes: without smoothing an outcome block
        # of the Hessian is singular
        f_mat, p_mat, _, _ = small_problem(noise_pulses=10**4, seed=14)
        epsilon_sweep(f_mat, p_mat, [0.0], max_iterations=1500)
        assert lstsq_calls

    def test_default_sweep_never_reaches_lstsq(self, lstsq_calls):
        f_mat, p_mat, _, _ = small_problem()
        epsilon_sweep(f_mat, p_mat, DEFAULT_SWEEP)
        assert not lstsq_calls


class TestReferenceAgreement:
    def test_small_scale_oracle_equivalence(self):
        # independent interior-point solve of the same objective
        f_mat, p_mat, _, _ = small_problem(
            noise_pulses=10**6, seed=42, n_bins=2, trunc=20, mu_max=5.5
        )
        eps = 1e-2
        _, report = reconstruct(f_mat, p_mat, SmoothingConfig(epsilon=eps))
        _, obj_ref = reconstruct_reference(f_mat, p_mat, eps, gap_tol=1e-11)
        assert abs(report.objective - obj_ref) / obj_ref < 1e-6

    @pytest.mark.parametrize("noise_pulses", [None, 450_000])
    def test_gap_bounds_excess_over_reference(self, noise_pulses):
        f_mat, p_mat, _, _ = small_problem(noise_pulses=noise_pulses, seed=1)
        for eps in DEFAULT_SWEEP:
            _, report = reconstruct(f_mat, p_mat, SmoothingConfig(epsilon=eps))
            _, obj_ref = reconstruct_reference(f_mat, p_mat, eps, gap_tol=1e-11)
            assert report.objective - obj_ref <= report.gap + 1e-12
            if noise_pulses:
                # away from r = 0 the gap is tight at a polished optimum
                assert report.gap <= 1e-8

    def test_benchmark_shape_agrees_with_reference(self):
        # lcurve_small's shape: 15 probes on [0, 25], truncation 60, 10 bins
        # (11 outcomes) and 450k-pulse multinomial noise
        f_mat, p_mat, _, _ = small_problem(noise_pulses=450_000, seed=1, n_bins=10)
        assert p_mat.shape == (15, 11)
        for eps in DEFAULT_SWEEP:
            _, report = reconstruct(f_mat, p_mat, SmoothingConfig(epsilon=eps))
            _, obj_ref = reconstruct_reference(f_mat, p_mat, eps)
            assert report.objective - obj_ref <= report.gap + 1e-12
            # the benchmark's own bound
            assert abs(report.objective - obj_ref) <= 1e-6 * obj_ref
            assert report.iterations == tomography._POLISH_WARMUP

    @pytest.mark.parametrize("eps", [0.0, 1e-4, 0.1])
    def test_gap_vanishes_at_zero_residual(self, eps):
        # uniform rows fit P = F theta exactly and have no smoothness cost
        f_mat, _, _, _ = small_problem()
        uniform = np.full((f_mat.shape[1], 4), 0.25)
        _, report = reconstruct(f_mat, f_mat @ uniform, SmoothingConfig(epsilon=eps))
        assert report.residual == 0.0
        assert report.gap <= 1e-15

    def test_reference_refuses_large_problems(self):
        with pytest.raises(ConfigError):
            reconstruct_reference(np.ones((2, 3000)), np.ones((2, 4)) / 4, 1e-3)


class TestDarkCountProbability:
    def test_ideal_model_povm(self):
        povm = build_model_povm(DEVICE3.with_bins(10), 40)
        assert dark_count_probability(povm) == 0.0

    def test_analytic_dark_value(self):
        # ten bins at 3e-8 each
        assert 1.0 - (1.0 - 3e-8) ** 10 == pytest.approx(3e-7, rel=1e-6)

    def test_reconstructed_dark_rate(self):
        params = DEVICE3.with_bins(10)
        dark = 1e-5
        n_pulses = 10**7
        rows = []
        means = [0.0, 1.0, 4.0]
        for k, mu in enumerate(means):
            counts = simulate_bin_totals(params, mu, n_pulses, seed=k, dark_prob=dark)
            rows.append(outcome_probabilities(bin_probabilities(counts, n_pulses)))
        f_mat = np.vstack([poisson_row(m, 16) for m in means])
        povm, _ = reconstruct(f_mat, np.vstack(rows), SmoothingConfig(epsilon=1e-9))
        expected = 1.0 - (1.0 - dark) ** 10
        assert dark_count_probability(povm) == pytest.approx(expected, rel=0.3)


class TestUncertaintyBand:
    def test_zero_error_collapses(self):
        f_mat, p_mat, _, means = small_problem(trunc=30, mu_max=12.0, d=8)
        wrapper = ProbeMatrix(f_mat, means, 30)
        cfg = SmoothingConfig(epsilon=1e-4, max_iterations=1500)
        band = uncertainty_band(
            wrapper, p_mat, cfg, amplitude_rel_err=0.0, n_mc=2, seed=1
        )
        povm, _ = reconstruct(wrapper, p_mat, cfg)
        np.testing.assert_allclose(band.lo, povm.theta, atol=1e-7)
        np.testing.assert_allclose(band.hi, povm.theta, atol=1e-7)
        assert band.warnings == ()

    def test_unconverged_draws_are_reported(self):
        # above the polish limit ADMM alone decides convergence; 20
        # iterations are not enough for either draw
        f_mat, p_mat, _, means = small_problem(trunc=600)
        assert f_mat.shape[1] * p_mat.shape[1] > _POLISH_MAX_ENTRIES
        wrapper = ProbeMatrix(f_mat, means, 600)
        cfg = SmoothingConfig(epsilon=1e-4, max_iterations=20)
        band = uncertainty_band(wrapper, p_mat, cfg, n_mc=2, seed=3)
        assert band.warnings == tuple(
            f"band draw {k} did not converge in 20 iterations "
            f"(gap {report.gap:.1e})" for k, report in enumerate(band.reports)
        )

    @pytest.mark.parametrize("max_iterations", [1, 1500])
    def test_every_draw_keeps_its_report(self, max_iterations):
        # one iteration above the polish limit leaves every draw
        # unconverged; 1500 with the polish converge every draw
        trunc = 600 if max_iterations == 1 else 30
        f_mat, p_mat, _, means = small_problem(trunc=trunc, mu_max=12.0, d=8)
        wrapper = ProbeMatrix(f_mat, means, trunc)
        cfg = SmoothingConfig(epsilon=1e-4, max_iterations=max_iterations)
        band = uncertainty_band(wrapper, p_mat, cfg, n_mc=3, seed=5)
        assert len(band.reports) == 3
        assert all(r.iterations <= max_iterations for r in band.reports)
        unconverged = [k for k, r in enumerate(band.reports) if not r.converged]
        assert unconverged == ([0, 1, 2] if max_iterations == 1 else [])
        assert band.warnings == tuple(
            f"band draw {k} did not converge in {max_iterations} iterations "
            f"(gap {band.reports[k].gap:.1e})" for k in unconverged
        )
        assert all(band.reports[k].gap > 0 for k in unconverged)
        # the reports stay out of repr and equality
        assert "reports" not in repr(band)
        assert band == dataclasses.replace(band, reports=())

    def test_band_contains_noiseless_solution(self):
        # five-percent amplitude draws around noiseless data: the envelope
        # must cover the generating POVM on data-supported rows, up to the
        # smoothing suppression of near-zero entries
        f_mat, p_mat, theta_true, means = small_problem()
        wrapper = ProbeMatrix(f_mat, means, 60)
        cfg = SmoothingConfig(epsilon=1e-5, max_iterations=1500)
        band = uncertainty_band(
            wrapper, p_mat, cfg, amplitude_rel_err=0.05, n_mc=12, seed=2
        )
        povm, _ = reconstruct(wrapper, p_mat, cfg)
        sup = povm.supported
        lo_ok = band.lo[sup] - 5e-3 <= theta_true[sup]
        hi_ok = theta_true[sup] <= band.hi[sup] + 5e-3
        assert np.all(lo_ok) and np.all(hi_ok)
        exact = (band.lo[sup] - 1e-9 <= theta_true[sup]) & (
            theta_true[sup] <= band.hi[sup] + 1e-9
        )
        assert exact.mean() > 0.85

    def test_seeded_determinism(self):
        f_mat, p_mat, _, means = small_problem(trunc=20, mu_max=8.0, d=6)
        wrapper = ProbeMatrix(f_mat, means, 20)
        cfg = SmoothingConfig(epsilon=1e-4, max_iterations=1000)
        a = uncertainty_band(wrapper, p_mat, cfg, 0.05, n_mc=2, seed=9)
        b = uncertainty_band(wrapper, p_mat, cfg, 0.05, n_mc=2, seed=9)
        np.testing.assert_array_equal(a.lo, b.lo)
        np.testing.assert_array_equal(a.hi, b.hi)

    def test_requires_probe_matrix(self):
        f_mat, p_mat, _, _ = small_problem(trunc=20, mu_max=8.0, d=6)
        with pytest.raises(ConfigError):
            uncertainty_band(f_mat, p_mat, SmoothingConfig(1e-4), n_mc=2)

    @pytest.mark.parametrize("err", [-0.5, np.nan, np.inf])
    def test_bad_amplitude_error_rejected(self, err):
        f_mat, p_mat, _, means = small_problem(trunc=20, mu_max=8.0, d=6)
        wrapper = ProbeMatrix(f_mat, means, 20)
        with pytest.raises(ConfigError, match="amplitude_rel_err"):
            uncertainty_band(wrapper, p_mat, SmoothingConfig(1e-4), err, n_mc=2)


@pytest.fixture(scope="module")
def sweep():
    f_mat, p_mat, _, _ = small_problem(
        noise_pulses=10**5, seed=13, trunc=40, mu_max=16.0
    )
    return epsilon_sweep(
        f_mat, p_mat, [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1], max_iterations=1500
    )


class TestEpsilonSweep:
    def test_residual_nondecreasing(self, sweep):
        residuals = [p.residual for p in sweep.points]
        assert np.all(np.diff(residuals) >= -1e-9)
        assert not sweep.warnings

    def test_smoothness_nonincreasing(self, sweep):
        seminorms = [p.smoothness for p in sweep.points]
        assert np.all(np.diff(seminorms) <= 1e-9)

    def test_corner_within_sweep(self, sweep):
        assert sweep.corner_epsilon in [p.epsilon for p in sweep.points]

    def test_zero_epsilon_entry_has_minimal_residual(self):
        f_mat, p_mat, _, _ = small_problem(
            noise_pulses=10**4, seed=14, trunc=20, mu_max=8.0, d=8
        )
        result = epsilon_sweep(f_mat, p_mat, [0.0, 1e-3, 1e-1], max_iterations=1500)
        residuals = [p.residual for p in result.points]
        assert residuals[0] <= min(residuals) + 1e-9

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            epsilon_sweep(np.ones((2, 3)), np.ones((2, 2)) / 2, [])

    def test_unconverged_solves_are_reported(self):
        # above the polish limit ADMM alone decides convergence; 20
        # iterations are not enough at any epsilon
        f_mat, p_mat, _, _ = small_problem(trunc=600)
        assert f_mat.shape[1] * p_mat.shape[1] > _POLISH_MAX_ENTRIES
        result = epsilon_sweep(f_mat, p_mat, [1e-5, 1e-3], max_iterations=20)
        unconverged = [w for w in result.warnings if "did not converge" in w]
        gaps = [p.report.gap for p in result.points]
        assert unconverged == [
            f"solve at eps=1e-05 did not converge in 20 iterations (gap {gaps[0]:.1e})",
            f"solve at eps=0.001 did not converge in 20 iterations (gap {gaps[1]:.1e})",
        ]

    def test_warnings_quote_the_gap(self):
        f_mat, p_mat, _, _ = small_problem(trunc=600)
        result = epsilon_sweep(f_mat, p_mat, [1e-5], max_iterations=1)
        (point,) = result.points
        assert not point.report.converged and point.report.gap > 0
        assert result.warnings[0] == (
            f"solve at eps=1e-05 did not converge in 1 iterations "
            f"(gap {point.report.gap:.1e})"
        )
        assert re.fullmatch(r"solve at eps=1e-05 did not converge in 1 iterations "
                            r"\(gap \d\.\de[+-]\d\d\)", result.warnings[0])


class TestPovmSetValidation:
    def test_negative_entry_rejected(self):
        with pytest.raises(ConfigError):
            POVMSet(np.array([[1.1, -0.1]]))

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(ConfigError):
            POVMSet(np.array([[0.5, 0.4]]))

    def test_smoothness_seminorm(self):
        theta = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        assert smoothness_seminorm(theta) == pytest.approx(2.0)

    def test_corner_helper_short_lists(self):
        from looptomo.tomography import SweepPoint

        pts = [SweepPoint(1e-3, 0.1, 1.0, 0.2)]
        assert l_curve_corner(pts) == 1e-3
