"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Lab data for the real device is not available, so experimental figures are
reproduced through the simulator at matched scale. Runtime budgets are part
of the criteria and asserted alongside the numerical tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import json
import math
import time

import numpy as np
import pytest

import looptomo as lt
from looptomo import fileio

DEVICE_FIT = dict(reflectivity=0.89613, loop_efficiency=0.9064,
                 det_efficiency=0.4912)
DEVICE = lt.LoopParams(n_bins=10, **DEVICE_FIT)
BRIGHT = lt.LoopParams(n_bins=119, **DEVICE_FIT)
TRUE_X = np.array([0.89613, 0.9064, 0.4912])


def _report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _first_run_kept(run):
    """Wrap a fixture's run so the first result is computed once and shared;
    ``fresh=True`` makes an independent run for the determinism check."""
    kept = []

    def get(fresh=False):
        if fresh:
            return run()
        if not kept:
            kept.append(run())
        return kept[0]

    return get


def _param_vector(params):
    return np.array(
        [params.reflectivity, params.loop_efficiency, params.det_efficiency]
    )


def test_criterion_1_poisson_binomial_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240901)
    worst = 0.0
    for _ in range(1000):
        length = int(rng.integers(1, 13))
        p = rng.random(length)
        pmf = lt.poisson_binomial_pmf(p)
        for n in range(length + 1):
            worst = max(worst, abs(pmf[n] - lt.poisson_binomial_bruteforce(p, n)))
    from scipy.stats import binom

    worst_binom = 0.0
    for length in range(1, 13):
        for p_eq in (0.1, 0.5, 0.9):
            pmf = lt.poisson_binomial_pmf([p_eq] * length)
            ref = binom.pmf(np.arange(length + 1), length, p_eq)
            worst_binom = max(worst_binom, np.abs(pmf - ref).max())
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and worst_binom < 1e-12 and elapsed < 10.0
    _report(
        1,
        ok,
        f"closed vs enumeration {worst:.2e} (<1e-10), equal-p vs binomial "
        f"{worst_binom:.2e} (<1e-12), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_forward_model_normalization():
    t0 = time.perf_counter()
    povm = lt.build_model_povm(DEVICE, 5328)
    dev = np.abs(povm.theta.sum(axis=1) - 1.0).max()
    elapsed = time.perf_counter() - t0
    ok = dev < 1e-10 and elapsed < 5.0
    _report(2, ok, f"worst row-sum deviation {dev:.2e} (<1e-10), "
                   f"{elapsed:.1f}s (<5s)")


@pytest.fixture(scope="module")
def criterion3_artifacts(tmp_path_factory):
    """Self-fit and pipeline-fit results; returns artifact bytes for the
    determinism criterion."""

    def run():
        t0 = time.perf_counter()
        povm_own = lt.build_model_povm(DEVICE, 5328)
        fit_own = lt.fit_params(povm_own, 10)

        ensemble = lt.ProbeEnsemble.quadratic()
        probe_matrix = lt.build_probe_matrix(ensemble)
        theta_true = povm_own.theta
        outcome_rows = probe_matrix.values @ theta_true
        cfg = lt.SmoothingConfig(epsilon=1e-5, max_iterations=6000)
        recon, report = lt.reconstruct(probe_matrix, outcome_rows, cfg)
        fit_recon = lt.fit_params(recon, 10)
        elapsed = time.perf_counter() - t0

        out = tmp_path_factory.mktemp("c3") / "fits.json"
        fileio.save_fit_result(fit_own, out.with_suffix(".own.json"))
        fileio.save_fit_result(fit_recon, out.with_suffix(".recon.json"))
        blob = (
            out.with_suffix(".own.json").read_bytes()
            + out.with_suffix(".recon.json").read_bytes()
        )
        return fit_own, fit_recon, elapsed, blob

    return _first_run_kept(run)


def test_criterion_3_fit_recovery(criterion3_artifacts):
    fit_own, fit_recon, elapsed, _ = criterion3_artifacts()
    err_own = np.abs(_param_vector(fit_own.params) - TRUE_X).max()
    err_recon = np.abs(_param_vector(fit_recon.params) - TRUE_X).max()
    ok = err_own < 1e-4 and err_recon < 1e-2 and elapsed < 600.0
    _report(
        3,
        ok,
        f"self-fit max error {err_own:.2e} (<1e-4), pipeline fit "
        f"{err_recon:.2e} (<1e-2), {elapsed:.0f}s (<600s)",
    )


def test_criterion_4_tomography_round_trip():
    t0 = time.perf_counter()
    params = DEVICE.with_bins(3)
    trunc = 60
    theta_true = lt.build_model_povm(params, trunc).theta
    means = 25.0 * np.arange(15) / 14.0
    f_mat = np.vstack([lt.poisson_row(m, trunc) for m in means])
    p_clean = f_mat @ theta_true

    # noiseless reconstruction against the generating POVM
    povm, _ = lt.reconstruct(f_mat, p_clean, lt.SmoothingConfig(epsilon=1e-6))
    sup = povm.supported
    rel_err = np.linalg.norm((povm.theta - theta_true)[sup]) / np.linalg.norm(
        theta_true[sup]
    )
    feasible = povm.theta.min() >= 0.0 and (
        np.abs(povm.theta.sum(axis=1) - 1.0).max() < 1e-8
    )

    # solver cross-check on sampled data where the objective is well scaled
    rng = np.random.default_rng(4)
    p_noisy = np.vstack([rng.multinomial(10**6, row) / 10**6 for row in p_clean])
    eps = 1e-2
    _, report = lt.reconstruct(f_mat, p_noisy, lt.SmoothingConfig(epsilon=eps))
    _, obj_ref = lt.reconstruct_reference(f_mat, p_noisy, eps, gap_tol=1e-11)
    rel_obj = abs(report.objective - obj_ref) / obj_ref
    elapsed = time.perf_counter() - t0
    ok = rel_err < 1e-2 and feasible and rel_obj < 1e-6 and elapsed < 120.0
    _report(
        4,
        ok,
        f"supported-row error {rel_err:.2e} (<1e-2), feasible {feasible}, "
        f"barrier-objective agreement {rel_obj:.2e} (<1e-6), "
        f"{elapsed:.0f}s (<120s)",
    )


@pytest.fixture(scope="module")
def criterion5_artifacts():
    def run():
        t0 = time.perf_counter()
        n_pulses = 15_000_000
        mu_true = 71_000.0
        estimates = []
        for k in range(20):
            counts = lt.simulate_bin_totals(BRIGHT, mu_true, n_pulses,
                                            seed=500 + k)
            p_hat = lt.outcome_probabilities(
                lt.bin_probabilities(counts, n_pulses)
            )
            est = lt.estimate_mean_photon(p_hat, BRIGHT)
            estimates.append(est)

        # analytic path vs explicit Poisson-window times Fock POVM path:
        # the estimates the two paths produce must coincide
        p_obs = lt.coherent_outcome_distribution(BRIGHT, mu_true)
        mu_analytic = lt.estimate_mean_photon(p_obs, BRIGHT).mean_photon

        def fock_distance(log_mu):
            model = lt.crosscheck_fock_path(math.exp(log_mu), BRIGHT)
            return float(np.linalg.norm(p_obs - model))

        from scipy.optimize import minimize_scalar

        lg = np.linspace(math.log(mu_true / 2), math.log(mu_true * 2), 31)
        res = [fock_distance(v) for v in lg]
        k = int(np.argmin(res))
        opt = minimize_scalar(
            fock_distance,
            bracket=(lg[k - 1], lg[k], lg[k + 1]),
            method="golden",
            options=dict(xtol=1e-10),
        )
        mu_fock = math.exp(opt.x)
        elapsed = time.perf_counter() - t0

        blob = json.dumps(
            [e.mean_photon for e in estimates] + [mu_analytic, mu_fock]
        ).encode()
        return estimates, mu_analytic, mu_fock, elapsed, blob

    return _first_run_kept(run)


def test_criterion_5_bright_state_estimation(criterion5_artifacts):
    estimates, mu_analytic, mu_fock, elapsed, _ = criterion5_artifacts()
    worst = max(abs(e.mean_photon / 71000.0 - 1.0) for e in estimates)
    path_agreement = abs(mu_fock - mu_analytic) / mu_analytic
    ok = worst < 0.05 and path_agreement < 1e-6 and elapsed < 300.0
    _report(
        5,
        ok,
        f"worst trial deviation {worst:.2e} (<0.05), path agreement "
        f"{path_agreement:.2e} (<1e-6), {elapsed:.0f}s (<300s)",
    )


def test_criterion_6_extrapolation_scale():
    t0 = time.perf_counter()
    povm = lt.extrapolate_povm(DEVICE, 50, 10**6)
    sampled = povm.theta[::10_000]
    dev = np.abs(sampled.sum(axis=1) - 1.0).max()
    elapsed = time.perf_counter() - t0
    ok = dev < 1e-8 and elapsed < 900.0
    _report(
        6,
        ok,
        f"sampled row-sum deviation {dev:.2e} (<1e-8) over "
        f"{sampled.shape[0]} rows, {elapsed:.0f}s (<900s)",
    )


def test_criterion_7_dark_count_figure():
    t0 = time.perf_counter()
    dark = 3e-8
    n_pulses = 10**8
    means = [0.0, 1.0, 4.0]
    rows = []
    for k, mu in enumerate(means):
        counts = lt.simulate_bin_totals(DEVICE, mu, n_pulses, seed=70 + k,
                                        dark_prob=dark)
        rows.append(
            lt.outcome_probabilities(lt.bin_probabilities(counts, n_pulses))
        )
    f_mat = np.vstack([lt.poisson_row(m, 16) for m in means])
    povm, _ = lt.reconstruct(
        f_mat, np.vstack(rows), lt.SmoothingConfig(epsilon=1e-9)
    )
    p_dark = lt.dark_count_probability(povm)
    expected = 3e-7  # ten bins at 3e-8
    elapsed = time.perf_counter() - t0
    ok = expected / 2 < p_dark < expected * 2 and elapsed < 600.0
    _report(
        7,
        ok,
        f"reconstructed dark probability {p_dark:.2e} within factor 2 of "
        f"{expected:.1e}, {elapsed:.0f}s (<600s)",
    )


def test_criterion_8_determinism(criterion3_artifacts, criterion5_artifacts):
    # criteria 3 and 5 already made the first runs; compare each with a fresh one
    _, _, _, blob3_a = criterion3_artifacts()
    _, _, _, blob3_b = criterion3_artifacts(fresh=True)
    _, _, _, _, blob5_a = criterion5_artifacts()
    _, _, _, _, blob5_b = criterion5_artifacts(fresh=True)
    ok = blob3_a == blob3_b and blob5_a == blob5_b
    _report(
        8,
        ok,
        f"criterion-3 artifacts identical: {blob3_a == blob3_b}; "
        f"criterion-5 artifacts identical: {blob5_a == blob5_b}",
    )
