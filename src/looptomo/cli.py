"""Command-line pipeline: simulate, reconstruct, fit, extrapolate, estimate.

Subcommands compose through files only. Exit codes: 0 ok, 2 configuration
error, 3 data error, 4 solver non-convergence (unless --allow-unconverged).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import (detector_model, estimation, fileio, ingest, model_fit,
               probe_states, tomography)
from .errors import ConfigError, DataError, MemoryBudgetError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_UNCONVERGED = 4

DEFAULT_SWEEP = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


class _Unconverged(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="looptomo",
        description="Loop-detector POVM pipeline: simulation, reconstruction, "
        "model fit, extrapolation and bright-state estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate per-probe histograms")
    sim.add_argument("--params", required=True)
    sim.add_argument("--ensemble", required=True)
    sim.add_argument("--pulses", type=int, default=450_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--dark-prob", type=float, default=0.0)
    sim.add_argument("--bin-width-ps", type=float, default=10.0)
    sim.add_argument("--raw-bins", type=int, default=None)
    sim.add_argument("--out-dir", required=True)

    rec = sub.add_parser("reconstruct", help="reconstruct the POVM set")
    rec.add_argument("--manifest", required=True)
    rec.add_argument("--ensemble", required=True)
    rec.add_argument("--epsilon", type=float, default=None,
                     help="smoothing weight; default: L-curve corner of a sweep")
    rec.add_argument("--epsilon-sweep", default=None,
                     help="comma-separated sweep values; writes the L-curve CSV")
    rec.add_argument("--support-threshold", type=float, default=1e-3)
    rec.add_argument("--max-iterations", type=int, default=20000,
                     help="ADMM iteration cap for every solve, sweep included")
    rec.add_argument("--mc-band", type=int, default=0,
                     help="Monte-Carlo draws for the amplitude-uncertainty band")
    rec.add_argument("--amplitude-err", type=float, default=0.05)
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--allow-unconverged", action="store_true")
    rec.add_argument("--out", required=True)

    fit = sub.add_parser("fit", help="fit loop parameters to a POVM")
    fit.add_argument("--povm", required=True)
    fit.add_argument("--bins", type=int, required=True)
    fit.add_argument("--all-rows", action="store_true",
                     help="ignore the support mask and fit every row")
    fit.add_argument("--allow-unconverged", action="store_true")
    fit.add_argument("--out", required=True)

    ext = sub.add_parser("extrapolate", help="extrapolated model POVM")
    src = ext.add_mutually_exclusive_group(required=True)
    src.add_argument("--fit")
    src.add_argument("--params")
    ext.add_argument("--outcomes", type=int, required=True)
    ext.add_argument("--hilbert-dim", type=int, required=True)
    ext.add_argument("--memory-budget-mb", type=int, default=2048)
    ext.add_argument("--chunk-rows", type=int, default=65536)
    ext.add_argument("--out", required=True)

    est = sub.add_parser("estimate", help="bright-state mean photon number")
    src = est.add_mutually_exclusive_group(required=True)
    src.add_argument("--fit")
    src.add_argument("--params")
    data = est.add_mutually_exclusive_group(required=True)
    data.add_argument("--outcome-dist")
    data.add_argument("--histogram")
    est.add_argument("--pulses", type=int, default=None)
    est.add_argument("--bootstrap", type=int, default=0)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--out", required=True)

    exp = sub.add_parser("export-plots", help="per-outcome plot-ready CSV series")
    exp.add_argument("--povm", required=True)
    exp.add_argument("--band", default=None)
    exp.add_argument("--log-grid", action="store_true",
                     help="decimate rows to a log-spaced photon-number grid")
    exp.add_argument("--out-dir", required=True)
    return parser


def _cmd_simulate(args) -> int:
    params = fileio.load_params(args.params)
    ensemble = fileio.load_ensemble(args.ensemble)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = ingest.BinningConfig(
        n_detector_bins=params.n_bins, bin_period_ns=params.bin_period_ns
    )
    runs = []
    for k, probe in enumerate(ensemble.probes):
        run_seed = int(np.random.SeedSequence([args.seed, k]).generate_state(1)[0])
        sample = detector_model.simulate_bin_clicks(
            params,
            probe.mean_photon,
            args.pulses,
            seed=run_seed,
            dark_prob=args.dark_prob,
        )
        hist = ingest.histogram_from_bin_counts(
            sample.bin_counts,
            cfg,
            bin_width_ps=args.bin_width_ps,
            n_raw_bins=args.raw_bins,
        )
        name = f"hist_{k:03d}.csv"
        fileio.save_histogram_csv(hist, out_dir / name)
        runs.append(
            {
                "histogram": name,
                "n_pulses": args.pulses,
                "label": probe.label,
                "mean_photon": probe.mean_photon,
            }
        )
    fileio.save_manifest(
        runs,
        out_dir / "manifest.json",
        args.seed,
        args.dark_prob,
        n_bins=params.n_bins,
        bin_period_ns=params.bin_period_ns,
    )
    print(f"wrote {len(runs)} histograms and manifest to {out_dir}")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    ensemble = fileio.load_ensemble(args.ensemble)
    doc = fileio.load_manifest(args.manifest)
    base = Path(args.manifest).parent
    hists = [
        (fileio.load_histogram(base / run["histogram"]), run["n_pulses"])
        for run in doc["runs"]
    ]
    period_ns = float(doc.get("bin_period_ns", 156.0))
    n_bins = doc.get("n_bins")
    if n_bins is None:
        # older manifests: infer from the histogram span at the stated period
        first = hists[0][0]
        n_bins = int((first.span_ps - first.t0_ps) // (period_ns * 1000.0)) + 1
    cfg_bin = ingest.BinningConfig(n_detector_bins=n_bins, bin_period_ns=period_ns)
    matrix = ingest.assemble_outcome_matrix(hists, cfg_bin, ensemble)
    probe_matrix = probe_states.build_probe_matrix(ensemble)

    sweep_values = None
    if args.epsilon_sweep:
        sweep_values = [float(x) for x in args.epsilon_sweep.split(",") if x.strip()]
    epsilon = args.epsilon
    out = Path(args.out)
    if sweep_values or epsilon is None:
        sweep = tomography.epsilon_sweep(
            probe_matrix,
            matrix,
            sweep_values or DEFAULT_SWEEP,
            max_iterations=args.max_iterations,
        )
        if epsilon is None:
            epsilon = sweep.corner_epsilon
        curve_path = out.with_suffix(".lcurve.csv")
        fileio.save_lcurve(sweep, curve_path)
        print(f"L-curve written to {curve_path}; corner epsilon {epsilon:g}")
        for w in sweep.warnings:
            print(f"warning: {w}")

    cfg = tomography.SmoothingConfig(
        epsilon=epsilon, max_iterations=args.max_iterations
    )
    povm, report = tomography.reconstruct(
        probe_matrix, matrix, cfg, support_threshold=args.support_threshold
    )
    fileio.save_povm_csv(povm, out)
    fileio.save_report(report, out.with_suffix(".report.json"))
    if args.mc_band > 0:
        band = tomography.uncertainty_band(
            probe_matrix,
            matrix,
            cfg,
            amplitude_rel_err=args.amplitude_err,
            n_mc=args.mc_band,
            seed=args.seed,
        )
        fileio.save_band(band, out.with_suffix(".band.csv"))
        for w in band.warnings:
            print(f"warning: {w}")
    print(
        f"reconstruction: objective {report.objective:.6e}, "
        f"residual {report.residual:.6e}, converged {report.converged}"
    )
    if not report.converged and not args.allow_unconverged:
        raise _Unconverged("reconstruction did not converge")
    return EXIT_OK


def _cmd_fit(args) -> int:
    povm = fileio.load_povm_csv(args.povm)
    mask = None
    if args.all_rows:
        mask = np.ones(povm.truncation_dim + 1, dtype=bool)
    result = model_fit.fit_params(povm, args.bins, row_mask=mask)
    fileio.save_fit_result(result, args.out)
    p = result.params
    print(
        f"fit: R={p.reflectivity:.6f} eta_loop={p.loop_efficiency:.6f} "
        f"eta_det={p.det_efficiency:.6f} residual={result.residual:.3e}"
    )
    for w in result.warnings:
        print(f"warning: {w}")
    if not result.converged and not args.allow_unconverged:
        raise _Unconverged("fit did not converge")
    return EXIT_OK


def _load_loop_params(args):
    if getattr(args, "fit", None):
        return fileio.load_fit_params(args.fit)
    return fileio.load_params(args.params)


def _cmd_extrapolate(args) -> int:
    params = _load_loop_params(args)
    budget = args.memory_budget_mb * (1 << 20)
    out = Path(args.out)
    try:
        povm = model_fit.extrapolate_povm(
            params, args.outcomes, args.hilbert_dim, memory_budget_bytes=budget
        )
        fileio.save_povm_csv(povm, out)
        print(f"extrapolated POVM ({povm.truncation_dim + 1} rows) -> {out}")
    except MemoryBudgetError:
        n_files = 0
        for start, rows in model_fit.iter_extrapolated_rows(
            params, args.outcomes, args.hilbert_dim, chunk_rows=args.chunk_rows
        ):
            stop = start + rows.shape[0] - 1
            part = out.with_suffix(f".rows{start}-{stop}.csv")
            fileio.save_povm_rows_csv(rows, start, part)
            n_files += 1
        print(f"memory budget exceeded; streamed {n_files} row-chunk files")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    params = _load_loop_params(args)
    if args.outcome_dist:
        matrix = fileio.load_outcome_matrix(args.outcome_dist)
        p_obs = matrix.values[0]
        n_pulses = int(matrix.n_pulses[0])
    else:
        if args.pulses is None:
            raise ConfigError("--histogram needs --pulses")
        hist = fileio.load_histogram(args.histogram)
        cfg = ingest.BinningConfig(
            n_detector_bins=params.n_bins, bin_period_ns=params.bin_period_ns
        )
        counts = ingest.integrate_histogram(hist, cfg)
        p_obs = ingest.outcome_probabilities(
            ingest.bin_probabilities(counts, args.pulses)
        )
        n_pulses = args.pulses
    estimate = estimation.estimate_mean_photon(
        p_obs,
        params,
        n_pulses=n_pulses,
        n_bootstrap=args.bootstrap,
        seed=args.seed,
    )
    fileio.save_estimate(estimate, args.out)
    if estimate.confidence_interval is None:
        print(
            f"mean photon number {estimate.mean_photon:.6g} (point estimate; "
            "--bootstrap N --pulses P gives a confidence interval)"
        )
    else:
        lo, hi = estimate.confidence_interval
        print(
            f"mean photon number {estimate.mean_photon:.6g} "
            f"[{lo:.6g}, {hi:.6g}] ({estimate.method})"
        )
    return EXIT_OK


def _cmd_export_plots(args) -> int:
    povm = fileio.load_povm_csv(args.povm)
    band = None
    if args.band:
        band = fileio.load_band(args.band)
        if band[0].shape != povm.theta.shape:
            raise DataError("band shape does not match the POVM")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_rows = povm.truncation_dim + 1
    if args.log_grid and n_rows > 2000:
        grid = np.unique(
            np.concatenate(
                [[0], np.geomspace(1, n_rows - 1, 1500).astype(int)]
            )
        )
    else:
        grid = np.arange(n_rows)
    fileio.save_plot_series(povm, grid, band, out_dir)
    print(f"wrote {povm.n_outcomes} series to {out_dir}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "reconstruct": _cmd_reconstruct,
    "fit": _cmd_fit,
    "extrapolate": _cmd_extrapolate,
    "estimate": _cmd_estimate,
    "export-plots": _cmd_export_plots,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _Unconverged as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_UNCONVERGED


if __name__ == "__main__":
    sys.exit(main())
