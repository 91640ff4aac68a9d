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
from .errors import ConfigError, DataError

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
    fit.add_argument("--allow-unconverged", action="store_true")
    fit.add_argument("--out", required=True)

    ext = sub.add_parser("extrapolate", help="extrapolated model POVM")
    src = ext.add_mutually_exclusive_group(required=True)
    src.add_argument("--fit")
    src.add_argument("--params")
    ext.add_argument("--outcomes", type=int, required=True)
    ext.add_argument("--hilbert-dim", type=int, required=True)
    ext.add_argument("--out", required=True)

    est = sub.add_parser("estimate", help="bright-state mean photon number")
    src = est.add_mutually_exclusive_group(required=True)
    src.add_argument("--fit")
    src.add_argument("--params")
    est.add_argument("--histogram", required=True)
    est.add_argument("--pulses", type=int, required=True)
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


def _check_seed(seed: int) -> None:
    # np.random.SeedSequence raises a ValueError, read as a data error
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def _cmd_simulate(args) -> int:
    if args.pulses < 1:
        raise ConfigError(f"n_pulses must be >= 1, got {args.pulses}")
    _check_seed(args.seed)
    # written so that NaN fails
    if not 0 <= args.dark_prob < 1:
        raise ConfigError(f"dark_prob must be in [0,1), got {args.dark_prob}")
    params = fileio.load_params(args.params)
    ensemble = fileio.load_ensemble(args.ensemble)
    out_dir = Path(args.out_dir)
    cfg = ingest.BinningConfig(
        n_detector_bins=params.n_bins, bin_period_ns=params.bin_period_ns
    )
    runs = []
    for k, mean in enumerate(ensemble.means.tolist()):
        run_seed = int(np.random.SeedSequence([args.seed, k]).generate_state(1)[0])
        totals = detector_model.simulate_bin_clicks(
            params,
            mean,
            args.pulses,
            seed=run_seed,
            dark_prob=args.dark_prob,
        )
        hist = ingest.histogram_from_bin_counts(
            totals, cfg, bin_width_ps=args.bin_width_ps
        )
        # made only once a histogram has passed its layout checks
        out_dir.mkdir(parents=True, exist_ok=True)
        name = f"hist_{k:03d}.csv"
        fileio.save_histogram_csv(hist, out_dir / name)
        runs.append(
            {
                "histogram": name,
                "n_pulses": args.pulses,
                "label": k,
                "mean_photon": mean,
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
    # uncertainty_band's own check would come after the solve wrote its files
    if args.mc_band != 0 and args.mc_band < 2:
        raise ConfigError(f"n_mc must be >= 2, got {args.mc_band}")
    if not 0 <= args.amplitude_err < np.inf:
        raise ConfigError(
            f"amplitude_rel_err must be finite and >= 0, got {args.amplitude_err}"
        )
    _check_seed(args.seed)
    sweep_values = None
    if args.epsilon_sweep:
        try:
            sweep_values = [float(x) for x in args.epsilon_sweep.split(",")
                            if x.strip()]
        except ValueError:
            raise ConfigError("--epsilon-sweep takes comma-separated numbers, "
                              f"got {args.epsilon_sweep!r}") from None
    ensemble = fileio.load_ensemble(args.ensemble)
    manifest_runs, cfg_bin = fileio.load_manifest(args.manifest)
    for k, ((_, _, run_mean), mean) in enumerate(
            zip(manifest_runs, ensemble.means.tolist())):
        if run_mean != mean:
            raise ConfigError(f"{args.manifest}: run {k} has mean_photon "
                              f"{run_mean!r}, the ensemble's probe {k} {mean!r}")
    base = Path(args.manifest).parent
    # loaded one at a time, as assemble_outcome_matrix integrates each
    runs = ((fileio.load_histogram(base / name), n_pulses)
            for name, n_pulses, _ in manifest_runs)
    matrix = ingest.assemble_outcome_matrix(runs, cfg_bin, ensemble)
    probe_matrix = probe_states.build_probe_matrix(ensemble)

    epsilon = args.epsilon
    out = Path(args.out)
    solved = None
    if sweep_values or epsilon is None:
        sweep = tomography.epsilon_sweep(
            probe_matrix,
            matrix,
            sweep_values or DEFAULT_SWEEP,
            max_iterations=args.max_iterations,
            support_threshold=args.support_threshold,
        )
        curve_path = out.with_suffix(".lcurve.csv")
        fileio.save_lcurve(sweep, curve_path)
        print(f"L-curve written to {curve_path}; "
              f"corner epsilon {sweep.corner_epsilon:g}")
        if epsilon is None:
            epsilon = sweep.corner_epsilon
        elif epsilon != sweep.corner_epsilon:
            print(f"solving at the given epsilon {epsilon:g}")
        for w in sweep.warnings:
            print(f"warning: {w}")
        # the sweep already solved at every swept epsilon with these settings
        solved = next((p for p in sweep.points if p.epsilon == epsilon), None)

    cfg = tomography.SmoothingConfig(
        epsilon=epsilon, max_iterations=args.max_iterations
    )
    if solved is not None:
        povm, report = solved.povm, solved.report
    else:
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
    result = model_fit.fit_params(povm, args.bins)
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
    povm = model_fit.extrapolate_povm(params, args.outcomes, args.hilbert_dim)
    fileio.save_povm_csv(povm, args.out)
    print(f"extrapolated POVM ({povm.truncation_dim + 1} rows) -> {args.out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    _check_seed(args.seed)
    params = _load_loop_params(args)
    cfg = ingest.BinningConfig(
        n_detector_bins=params.n_bins, bin_period_ns=params.bin_period_ns
    )
    matrix = ingest.assemble_outcome_matrix(
        [(fileio.load_histogram(args.histogram), args.pulses)], cfg
    )
    estimate = estimation.estimate_mean_photon(
        matrix.values[0],
        params,
        n_pulses=args.pulses,
        n_bootstrap=args.bootstrap,
        seed=args.seed,
    )
    fileio.save_estimate(estimate, args.out)
    interval = estimate.bootstrap_interval
    shown = ("none (--bootstrap N gives one)" if interval is None
             else f"[{interval[0]:.6g}, {interval[1]:.6g}]")
    print(f"mean photon number {estimate.mean_photon:.6g}, "
          f"95% bootstrap interval {shown}")
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
