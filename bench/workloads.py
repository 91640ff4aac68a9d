"""The benchmark's workloads: seeded inputs, CLI stages and output checks.

A workload writes its inputs once per run (untimed), then hands out the
operations of one round: CLI argument lists in pipeline order, each with a
check of its artifacts. Checks compare against ``checks`` (numpy and scipy
only) and, for the L-curve solve, the barrier oracle
``looptomo.reconstruct_reference``; no stored output serves as reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import looptomo as lt
from looptomo import fileio

#: Loop parameters of the paper's device.
DEVICE = (0.89613, 0.9064, 0.4912)
BIN_PERIOD_NS = 156.0
PULSES = 450_000


@dataclass(frozen=True)
class Operation:
    stage: str
    argv: list[str]
    check: Callable[[], None]


def sub_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the run seed and a fixed key."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _params(n_bins: int):
    r, eta_loop, eta_det = DEVICE
    return lt.LoopParams(r, eta_loop, eta_det, n_bins, BIN_PERIOD_NS)


class _Tomography:
    """simulate -> reconstruct on a coherent-probe ensemble, 10 bins."""

    name = ""
    means: list[float] = []
    truncation_dim = 0

    def __init__(self, inputs: Path, seed: int):
        inputs.mkdir(parents=True, exist_ok=True)
        self.params = inputs / "params.json"
        self.ensemble = inputs / "ensemble.json"
        fileio.save_params(_params(10), self.params)
        fileio.save_ensemble(
            lt.ProbeEnsemble.from_means(self.means, self.truncation_dim),
            self.ensemble,
        )
        self.sim_seed = sub_seed(seed, 1)
        self.band_seed = sub_seed(seed, 2)
        self.q = checks.per_photon_bin_probs(*DEVICE, 10)
        self.f_mat = checks.poisson_rows(self.means, self.truncation_dim)
        self.objective = None

    def reconstruct_args(self) -> list[str]:
        raise NotImplementedError

    def operations(self, out: Path) -> list[Operation]:
        data = out / "data"
        povm = out / "povm.csv"
        return [
            Operation(
                "simulate",
                ["simulate", "--params", str(self.params), "--ensemble",
                 str(self.ensemble), "--pulses", str(PULSES), "--seed",
                 str(self.sim_seed), "--out-dir", str(data)],
                lambda: self.check_simulate(data),
            ),
            Operation(
                "reconstruct",
                ["reconstruct", "--manifest", str(data / "manifest.json"),
                 "--ensemble", str(self.ensemble), *self.reconstruct_args(),
                 "--out", str(povm)],
                lambda: self.check_reconstruct(data, povm),
            ),
        ]

    def _bin_totals(self, data: Path) -> np.ndarray:
        runs = checks.read_json(data / "manifest.json")["runs"]
        if len(runs) != len(self.means):
            raise checks.CheckFailed(f"{len(runs)} runs for {len(self.means)} probes")
        return np.vstack([
            checks.window_totals(data / run["histogram"], 10, BIN_PERIOD_NS)
            for run in runs
        ])

    def check_simulate(self, data: Path):
        checks.check_bin_totals(self._bin_totals(data), self.means, PULSES, self.q)

    def check_reconstruct(self, data: Path, povm: Path):
        """Feasible rows, and the reported objective recomputed from the CSV,
        this module's Poisson rows and its own outcome matrix."""
        p_mat = checks.poisson_binomial_rows(self._bin_totals(data) / PULSES)
        theta = checks.read_povm_csv(povm)
        checks.check_simplex_rows(theta)
        report = checks.read_json(povm.with_suffix(".report.json"))
        eps = report["epsilon"]
        obj = checks.objective(self.f_mat, p_mat, theta, eps)
        # 1e-11 absolute covers rounding between the two Poisson and
        # Poisson-binomial evaluations (9e-13 seen at objective 8.6e-5)
        checks.check_close(report["objective"], obj, 1e-8, "reported objective",
                           atol=1e-11)
        self.objective = report["objective"]
        self.check_solution(p_mat, eps, povm)


class TomoPaper(_Tomography):
    """71 quadratic probes at truncation 5328, one capped ADMM solve."""

    name = "tomo_paper"
    means = [float(d * d) for d in range(71)]
    truncation_dim = 5328
    epsilon = 1e-5
    max_iterations = 2000

    def __init__(self, inputs: Path, seed: int):
        super().__init__(inputs, seed)
        self.theta_true = checks.model_povm(self.q, np.arange(self.truncation_dim + 1))

    def reconstruct_args(self):
        return ["--epsilon", repr(self.epsilon), "--allow-unconverged",
                "--max-iterations", str(self.max_iterations)]

    def check_solution(self, p_mat, eps, povm):
        generating = checks.objective(self.f_mat, p_mat, self.theta_true, eps)
        checks.check_not_above(self.objective, generating,
                               "objective vs generating POVM")


class LCurveSmall(_Tomography):
    """15 probes on [0, 25] at truncation 60: L-curve sweep, corner solve and
    a 16-draw Monte-Carlo band, each a cold polished solve."""

    name = "lcurve_small"
    means = list(25.0 * np.arange(15) / 14.0)
    truncation_dim = 60
    mc_band = 16

    def reconstruct_args(self):
        return ["--mc-band", str(self.mc_band), "--seed", str(self.band_seed),
                "--allow-unconverged"]

    def check_solution(self, p_mat, eps, povm):
        checks.check_lcurve(checks.read_lcurve(povm.with_suffix(".lcurve.csv")))
        _, reference = lt.reconstruct_reference(self.f_mat, p_mat, eps)
        checks.check_close(self.objective, reference, 1e-6,
                           "objective vs barrier reference")


class DynamicRange:
    """Self-fit of a model POVM, extrapolation to 50 outcomes and 10^5 rows,
    and bootstrap estimates on bright-state histograms at mu = 7.1e4."""

    name = "dynamic_range"
    fit_truncation = 2000
    outcomes = 50
    hilbert_dim = 100_000
    bright_mean = 7.1e4
    bright_bins = 119
    bright_pulses = 15_000_000
    n_bright = 3
    bootstrap = 99
    sampled_rows = np.arange(0, hilbert_dim + 1, 5000)

    def __init__(self, inputs: Path, seed: int):
        self.objective = None  # no reconstruction in this workload
        inputs.mkdir(parents=True, exist_ok=True)
        q10 = checks.per_photon_bin_probs(*DEVICE, 10)
        self.model = inputs / "model_povm.csv"
        theta = checks.model_povm(q10, np.arange(self.fit_truncation + 1))
        fileio.save_povm_csv(lt.POVMSet(theta), self.model)
        self.bright_params = inputs / "bright_params.json"
        fileio.save_params(_params(self.bright_bins), self.bright_params)
        q = checks.per_photon_bin_probs(*DEVICE, self.bright_bins)
        rates = -np.expm1(-self.bright_mean * q)
        self.histograms = []
        for k in range(self.n_bright):
            rng = np.random.default_rng(sub_seed(seed, 3, k))
            path = inputs / f"bright_{k}.csv"
            write_histogram(rng.binomial(self.bright_pulses, rates), path)
            self.histograms.append(path)
        self.boot_seed = sub_seed(seed, 4)

    def operations(self, out: Path) -> list[Operation]:
        fit = out / "fit.json"
        ext = out / "extrapolated.csv"
        ops = [
            Operation(
                "fit",
                ["fit", "--povm", str(self.model), "--bins", "10", "--out", str(fit)],
                lambda: checks.check_params(fitted_params(fit), DEVICE),
            ),
            Operation(
                "extrapolate",
                ["extrapolate", "--fit", str(fit), "--outcomes", str(self.outcomes),
                 "--hilbert-dim", str(self.hilbert_dim), "--out", str(ext)],
                lambda: check_extrapolated(fit, ext, self.outcomes, self.sampled_rows),
            ),
        ]
        for k, hist in enumerate(self.histograms):
            est = out / f"estimate_{k}.json"
            ops.append(Operation(
                "estimate",
                ["estimate", "--params", str(self.bright_params), "--histogram",
                 str(hist), "--pulses", str(self.bright_pulses), "--bootstrap",
                 str(self.bootstrap), "--seed", str(self.boot_seed), "--out", str(est)],
                lambda est=est: checks.check_estimate(
                    checks.read_json(est)["mean_photon"], self.bright_mean),
            ))
        return ops


def write_histogram(totals, path, width_ps=10.0, t0_ps=1000.0):
    """Time-tagger histogram CSV, byte for byte what
    ``fileio.save_histogram_csv`` writes: each window's total in its central
    10 ps raw bin, zeros elsewhere. Written in blocks, because fileio holds
    all 1.8 million lines at once, which would set the run's memory
    high-water mark before any stage runs."""
    centres = t0_ps + np.arange(totals.size) * BIN_PERIOD_NS * 1000.0
    raw = np.zeros(int(centres[-1] / width_ps) + 101, dtype=np.int64)
    raw[np.floor(centres / width_ps).astype(int)] = totals
    block = 1 << 16
    with open(path, "w") as fh:
        fh.write(f"bin_width_ps,t0_ps\n{width_ps:.17g},{t0_ps:.17g}\n")
        for start in range(0, raw.size, block):
            fh.write("\n".join(map(str, raw[start:start + block].tolist())) + "\n")


def fitted_params(fit: Path) -> tuple[float, float, float]:
    p = checks.read_json(fit)["params"]
    return p["R"], p["eta_loop"], p["eta_det"]


def check_extrapolated(fit: Path, ext: Path, outcomes: int, rows):
    """Sampled rows of the extrapolated POVM against the recurrence at the
    parameters the extrapolation was asked for."""
    q = checks.per_photon_bin_probs(*fitted_params(fit), outcomes - 1)
    checks.check_extrapolated_rows(rows, checks.read_rows(ext, rows), q)


WORKLOADS = {w.name: w for w in (TomoPaper, LCurveSmall, DynamicRange)}
