import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from looptomo import (
    LoopParams,
    OutcomeMatrix,
    POVMSet,
    ProbeEnsemble,
    UncertaintyBand,
    coherent_outcome_distribution,
    fileio,
    ingest,
    tomography,
)
from looptomo.cli import DEFAULT_SWEEP, _build_parser, main

PARAMS = LoopParams(0.89613, 0.9064, 0.4912, 10)


@pytest.fixture
def workspace(tmp_path):
    params_path = tmp_path / "params.json"
    fileio.save_params(PARAMS, params_path)
    ensemble = ProbeEnsemble.from_means(
        [0.0, 1.0, 4.0, 9.0, 16.0, 25.0], truncation_dim=62
    )
    ensemble_path = tmp_path / "ensemble.json"
    fileio.save_ensemble(ensemble, ensemble_path)
    return tmp_path, params_path, ensemble_path


def _simulate(ws, seed=7, pulses=20_000, out="data"):
    tmp_path, params_path, ensemble_path = ws
    out_dir = tmp_path / out
    code = main(
        [
            "simulate",
            "--params", str(params_path),
            "--ensemble", str(ensemble_path),
            "--pulses", str(pulses),
            "--seed", str(seed),
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    return out_dir


def _quotes_gap(prefix, lines):
    """Whether one line is ``prefix`` followed by a quoted Frank-Wolfe gap."""
    pattern = re.escape(prefix) + r" \(gap \d\.\de[+-]\d\d\)"
    return any(re.fullmatch(pattern, line) for line in lines)


class TestSimulate:
    def test_writes_histograms_and_manifest(self, workspace):
        out_dir = _simulate(workspace)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["runs"]) == 6
        for run in manifest["runs"]:
            assert (out_dir / run["histogram"]).exists()

    def test_byte_identical_reruns(self, workspace):
        a = _simulate(workspace, out="run_a")
        b = _simulate(workspace, out="run_b")
        for name in ("manifest.json", "hist_000.csv", "hist_005.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_labels_are_probe_indices(self, tmp_path):
        fileio.save_params(PARAMS, tmp_path / "params.json")
        fileio.save_ensemble(ProbeEnsemble.from_means([4.0, 1.0], truncation_dim=30),
                             tmp_path / "two.json")
        code = main(["simulate", "--params", str(tmp_path / "params.json"),
                     "--ensemble", str(tmp_path / "two.json"), "--pulses", "100",
                     "--out-dir", str(tmp_path / "data")])
        assert code == 0
        text = (tmp_path / "data" / "manifest.json").read_text()
        assert '"label": 0,\n      "mean_photon": 4.0' in text
        assert '"label": 1,\n      "mean_photon": 1.0' in text

    def test_missing_params_file(self, workspace):
        tmp_path, _, ensemble_path = workspace
        code = main(
            [
                "simulate",
                "--params", str(tmp_path / "nope.json"),
                "--ensemble", str(ensemble_path),
                "--out-dir", str(tmp_path / "x"),
            ]
        )
        assert code == 2


class TestPipeline:
    @pytest.fixture
    def artifacts(self, workspace, tmp_path):
        ws_tmp, params_path, ensemble_path = workspace
        data = _simulate(workspace, pulses=100_000)
        povm_path = ws_tmp / "povm.csv"
        code = main(
            [
                "reconstruct",
                "--manifest", str(data / "manifest.json"),
                "--ensemble", str(ensemble_path),
                "--epsilon", "1e-5",
                "--out", str(povm_path),
            ]
        )
        assert code == 0
        return ws_tmp, params_path, ensemble_path, data, povm_path

    def test_reconstruct_artifacts(self, artifacts):
        ws, _, _, _, povm_path = artifacts
        assert povm_path.exists()
        report = json.loads(povm_path.with_suffix(".report.json").read_text())
        assert report["converged"]
        assert report["primal_residual"] >= 0 and report["dual_residual"] >= 0
        povm = fileio.load_povm_csv(povm_path)
        assert povm.theta.shape == (63, 11)

    def test_fit_recovers_generator(self, artifacts):
        # six probes only: a smoke test of the wiring, not of precision
        ws, _, _, _, povm_path = artifacts
        fit_path = ws / "fit.json"
        code = main(
            ["fit", "--povm", str(povm_path), "--bins", "10",
             "--out", str(fit_path)]
        )
        assert code == 0
        doc = json.loads(fit_path.read_text())
        assert abs(doc["params"]["R"] - 0.89613) < 0.05
        assert abs(doc["params"]["eta_det"] - 0.4912) < 0.05

    def test_extrapolate_and_export(self, artifacts):
        ws, params_path, _, _, povm_path = artifacts
        ext_path = ws / "ext.csv"
        code = main(
            [
                "extrapolate",
                "--params", str(params_path),
                "--outcomes", "12",
                "--hilbert-dim", "400",
                "--out", str(ext_path),
            ]
        )
        assert code == 0
        plots = ws / "plots"
        code = main(
            ["export-plots", "--povm", str(ext_path), "--out-dir", str(plots)]
        )
        assert code == 0
        series = sorted(plots.glob("outcome_*.csv"))
        assert len(series) == 12

    def test_estimate_from_histogram(self, artifacts):
        ws, params_path, ensemble_path, data, _ = artifacts
        # bright single-probe run through the same detector
        bright_ens = ws / "bright_ens.json"
        fileio.save_ensemble(
            ProbeEnsemble.from_means([400.0], truncation_dim=550), bright_ens
        )
        bright_dir = ws / "bright"
        code = main(
            [
                "simulate",
                "--params", str(params_path),
                "--ensemble", str(bright_ens),
                "--pulses", "200000",
                "--seed", "3",
                "--out-dir", str(bright_dir),
            ]
        )
        assert code == 0
        est_path = ws / "estimate.json"
        code = main(
            [
                "estimate",
                "--params", str(params_path),
                "--histogram", str(bright_dir / "hist_000.csv"),
                "--pulses", "200000",
                "--bootstrap", "30",
                "--seed", "5",
                "--out", str(est_path),
            ]
        )
        assert code == 0
        doc = json.loads(est_path.read_text())
        assert abs(doc["mean_photon"] / 400.0 - 1.0) < 0.05
        lo, hi = doc["confidence_interval"]
        assert lo <= doc["mean_photon"] <= hi

    def test_mc_band_and_band_export(self, workspace):
        ws, params_path, ensemble_path = workspace
        data = _simulate(workspace, pulses=20_000, out="banddata")
        povm_path = ws / "band_povm.csv"
        code = main(
            [
                "reconstruct",
                "--manifest", str(data / "manifest.json"),
                "--ensemble", str(ensemble_path),
                "--epsilon", "1e-4",
                "--mc-band", "2",
                "--seed", "11",
                "--out", str(povm_path),
            ]
        )
        assert code == 0
        band_path = povm_path.with_suffix(".band.csv")
        assert band_path.exists()
        plots = ws / "band_plots"
        code = main(
            [
                "export-plots",
                "--povm", str(povm_path),
                "--band", str(band_path),
                "--out-dir", str(plots),
            ]
        )
        assert code == 0
        header = (plots / "outcome_000.csv").read_text().splitlines()[0]
        assert header == "i,theta,lo,hi"

    def test_epsilon_sweep_writes_lcurve(self, workspace):
        ws, params_path, ensemble_path = workspace
        data = _simulate(workspace, pulses=50_000, out="sweepdata")
        povm_path = ws / "sweep_povm.csv"
        code = main(
            [
                "reconstruct",
                "--manifest", str(data / "manifest.json"),
                "--ensemble", str(ensemble_path),
                "--epsilon-sweep", "1e-6,1e-4,1e-2",
                "--out", str(povm_path),
            ]
        )
        assert code == 0
        curve = povm_path.with_suffix(".lcurve.csv").read_text().splitlines()
        assert curve[0] == "epsilon,residual,smoothness,objective"
        assert len(curve) == 4

    @pytest.mark.parametrize("flag", ["--epsilon", "--support-threshold"])
    def test_nan_setting_is_config_error(self, workspace, flag):
        ws, _, ensemble_path = workspace
        data = _simulate(workspace, pulses=5_000, out="nandata")
        povm_path = ws / "nan_povm.csv"
        args = ["reconstruct", "--manifest", str(data / "manifest.json"),
                "--ensemble", str(ensemble_path), "--epsilon", "1e-4",
                flag, "nan", "--allow-unconverged", "--out", str(povm_path)]
        assert main(args) == 2
        assert not povm_path.exists()

    @pytest.mark.parametrize("draws", ["-2", "1"])
    def test_mc_band_below_two_is_config_error(self, workspace, draws):
        ws, _, ensemble_path = workspace
        data = _simulate(workspace, pulses=5_000, out="mcdata")
        povm_path = ws / "mc_povm.csv"
        args = ["reconstruct", "--manifest", str(data / "manifest.json"),
                "--ensemble", str(ensemble_path), "--epsilon", "1e-4",
                "--mc-band", draws, "--out", str(povm_path)]
        assert main(args) == 2
        assert list(ws.glob("mc_povm*")) == []

    def test_default_sweep_reuses_the_corner_solve(self, workspace, monkeypatch):
        # the corner is one of the swept epsilons, solved with the same
        # settings, so the sweep's solve is written instead of a repeat
        ws, _, ensemble_path = workspace
        data = _simulate(workspace, pulses=50_000, out="cornerdata")
        calls = []
        real = tomography.reconstruct

        def counted(*args, **kwargs):
            calls.append(args[2].epsilon)
            return real(*args, **kwargs)

        monkeypatch.setattr(tomography, "reconstruct", counted)
        # a non-default threshold, so the sweep must pass it on too
        common = ["reconstruct", "--manifest", str(data / "manifest.json"),
                  "--ensemble", str(ensemble_path), "--support-threshold", "0.5"]
        swept = ws / "swept_povm.csv"
        assert main([*common, "--out", str(swept)]) == 0
        assert sorted(calls) == sorted(DEFAULT_SWEEP)
        corner = json.loads(swept.with_suffix(".report.json").read_text())["epsilon"]
        direct = ws / "direct_povm.csv"
        assert main([*common, "--epsilon", repr(corner), "--out", str(direct)]) == 0
        assert calls[-1] == corner and len(calls) == len(DEFAULT_SWEEP) + 1
        assert swept.read_bytes() == direct.read_bytes()

    def test_unconverged_band_draws_are_printed(self, workspace, capsys):
        # 201 x 11 unknowns is above the polish limit, so 20 ADMM
        # iterations leave every band draw unconverged
        ws, _, _ = workspace
        ensemble = ProbeEnsemble.from_means(
            [0.0, 1.0, 4.0, 9.0, 16.0, 25.0], truncation_dim=200
        )
        ensemble_path = ws / "ensemble_200.json"
        fileio.save_ensemble(ensemble, ensemble_path)
        data = _simulate(workspace, pulses=20_000, out="wideband")
        povm_path = ws / "wideband_povm.csv"
        code = main(
            [
                "reconstruct",
                "--manifest", str(data / "manifest.json"),
                "--ensemble", str(ensemble_path),
                "--epsilon", "1e-4",
                "--mc-band", "2",
                "--max-iterations", "20",
                "--allow-unconverged",
                "--out", str(povm_path),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        for draw in (0, 1):
            assert _quotes_gap(f"warning: band draw {draw} did not converge in "
                               "20 iterations", lines)

    def test_unconverged_sweep_solves_are_printed(self, workspace, capsys):
        # 201 x 11 unknowns is above the polish limit, so 20 ADMM
        # iterations leave every sweep solve unconverged
        ws, _, _ = workspace
        ensemble = ProbeEnsemble.from_means(
            [0.0, 1.0, 4.0, 9.0, 16.0, 25.0], truncation_dim=200
        )
        ensemble_path = ws / "ensemble_200.json"
        fileio.save_ensemble(ensemble, ensemble_path)
        data = _simulate(workspace, pulses=20_000, out="wide")
        povm_path = ws / "wide_povm.csv"
        code = main(
            [
                "reconstruct",
                "--manifest", str(data / "manifest.json"),
                "--ensemble", str(ensemble_path),
                "--epsilon-sweep", "1e-4,1e-2",
                "--max-iterations", "20",
                "--allow-unconverged",
                "--out", str(povm_path),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        for eps in ("0.0001", "0.01"):
            assert _quotes_gap(f"warning: solve at eps={eps} did not converge in "
                               "20 iterations", lines)


class TestMoreSurfaces:
    def test_log_grid_export_decimates(self, tmp_path):
        params_path = tmp_path / "params.json"
        fileio.save_params(PARAMS, params_path)
        ext_path = tmp_path / "ext.csv"
        code = main(
            [
                "extrapolate",
                "--params", str(params_path),
                "--outcomes", "11",
                "--hilbert-dim", "4000",
                "--out", str(ext_path),
            ]
        )
        assert code == 0
        plots = tmp_path / "plots"
        code = main(
            ["export-plots", "--povm", str(ext_path), "--log-grid",
             "--out-dir", str(plots)]
        )
        assert code == 0
        series = (plots / "outcome_000.csv").read_text().splitlines()
        assert 2 < len(series) - 1 < 4001  # decimated log grid

    @pytest.mark.parametrize("extra", [[], ["--log-grid"]])
    def test_export_pinned_bytes(self, tmp_path, extra):
        theta = np.array([[1.0, 0.0], [0.25, 0.75], [0.1, 0.9]])
        povm_path, band_path = tmp_path / "p.csv", tmp_path / "b.csv"
        fileio.save_povm_csv(POVMSet(theta, [True, True, False]), povm_path)
        band = UncertaintyBand(theta * 0.9, np.minimum(theta * 1.1, 1.0), 2, 0.05)
        fileio.save_band(band, band_path)
        bare, banded = tmp_path / "bare", tmp_path / "banded"
        assert main(["export-plots", "--povm", str(povm_path), *extra,
                     "--out-dir", str(bare)]) == 0
        assert main(["export-plots", "--povm", str(povm_path), *extra,
                     "--band", str(band_path), "--out-dir", str(banded)]) == 0
        assert (bare / "outcome_000.csv").read_text() == (
            "i,theta\n0,1\n1,0.25\n2,0.10000000000000001\n"
        )
        assert (bare / "outcome_001.csv").read_text() == (
            "i,theta\n0,0\n1,0.75\n2,0.90000000000000002\n"
        )
        assert (banded / "outcome_000.csv").read_text() == (
            "i,theta,lo,hi\n"
            "0,1,0.90000000000000002,1\n"
            "1,0.25,0.22500000000000001,0.27500000000000002\n"
            "2,0.10000000000000001,0.090000000000000011,0.11000000000000001\n"
        )
        assert (banded / "outcome_001.csv").read_text() == (
            "i,theta,lo,hi\n"
            "0,0,0,0\n"
            "1,0.75,0.67500000000000004,0.82500000000000007\n"
            "2,0.90000000000000002,0.81000000000000005,0.9900000000000001\n"
        )

    def test_empty_povm_file_is_error(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("fock_index,outcome_0,outcome_1,supported\n")
        code = main(
            ["export-plots", "--povm", str(bad), "--out-dir", str(tmp_path / "p")]
        )
        assert code == 3

    def test_estimate_without_bootstrap_reports_no_interval(self, tmp_path, capsys):
        params_path = tmp_path / "params.json"
        fileio.save_params(PARAMS, params_path)
        p_obs = coherent_outcome_distribution(PARAMS, 250.0)
        dist_path = tmp_path / "dist.csv"
        fileio.save_outcome_matrix(
            OutcomeMatrix(p_obs[None, :], np.array([10**6])), dist_path
        )
        est_path = tmp_path / "est.json"
        code = main(
            [
                "estimate",
                "--params", str(params_path),
                "--outcome-dist", str(dist_path),
                "--out", str(est_path),
            ]
        )
        assert code == 0
        doc = json.loads(est_path.read_text())
        assert doc["confidence_interval"] is None
        lo, hi = doc["curvature_interval"]
        assert lo <= doc["mean_photon"] <= hi
        assert "--bootstrap N --pulses P" in capsys.readouterr().out

    def test_estimate_from_outcome_dist_file(self, tmp_path):
        import looptomo as lt

        params_path = tmp_path / "params.json"
        fileio.save_params(PARAMS, params_path)
        p_obs = lt.coherent_outcome_distribution(PARAMS, 250.0)
        matrix = lt.OutcomeMatrix(p_obs[None, :], np.array([10**6]))
        dist_path = tmp_path / "dist.csv"
        fileio.save_outcome_matrix(matrix, dist_path)
        est_path = tmp_path / "est.json"
        code = main(
            [
                "estimate",
                "--params", str(params_path),
                "--outcome-dist", str(dist_path),
                "--out", str(est_path),
            ]
        )
        assert code == 0
        doc = json.loads(est_path.read_text())
        assert abs(doc["mean_photon"] / 250.0 - 1.0) < 1e-4

    def test_full_probe_ladder_manifest(self, tmp_path):
        import looptomo as lt

        params_path = tmp_path / "params.json"
        fileio.save_params(PARAMS, params_path)
        ens_path = tmp_path / "ladder.json"
        fileio.save_ensemble(lt.ProbeEnsemble.quadratic(), ens_path)
        out_dir = tmp_path / "ladder_data"
        code = main(
            [
                "simulate",
                "--params", str(params_path),
                "--ensemble", str(ens_path),
                "--pulses", "2000",
                "--seed", "1",
                "--bin-width-ps", "1000",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["runs"]) == 71
        assert len(list(out_dir.glob("hist_*.csv"))) == 71

    def test_zero_probes_is_config_error(self, tmp_path):
        params_path = tmp_path / "params.json"
        fileio.save_params(PARAMS, params_path)
        empty_ens = tmp_path / "empty.json"
        empty_ens.write_text("[]")
        code = main(
            [
                "simulate",
                "--params", str(params_path),
                "--ensemble", str(empty_ens),
                "--out-dir", str(tmp_path / "d"),
            ]
        )
        assert code == 2


_POVM_2 = "fock_index,outcome_0,outcome_1,supported\n0,1,0,1\n1,0.5,0.5,1\n"
_RECONSTRUCT = ["reconstruct", "--manifest", "m.json", "--ensemble", "ens.json",
                "--epsilon", "1e-4", "--out", "out"]
_SIMULATE = ["simulate", "--params", "params.json", "--ensemble", "ens.json",
             "--pulses", "100", "--out-dir", "out"]
_ESTIMATE_CSV = ["estimate", "--params", "params2.json", "--histogram", "h.csv",
                 "--pulses", "100", "--out", "out"]
_ESTIMATE_DIST = ["estimate", "--params", "params2.json", "--outcome-dist", "d.csv",
                  "--out", "out"]
# near the coherent distribution of mean photon number 1 for params2.json
_DIST_CSV = "n_pulses,outcome_0,outcome_1,outcome_2\n1000,0.64,0.357,0.003\n"


def _hist_csv(values: str = "1000,78000") -> str:
    """A histogram CSV with the given values line and 312 counts of 5; by
    default 312 bins of 1 ns, i.e. two 156 ns detector bins, which
    _ESTIMATE_CSV accepts."""
    return "bin_width_ps,t0_ps\n" + values + "\n" + "5\n" * 312


_RUNS = ('"runs": [{"histogram": "h.csv", "n_pulses": 100},'
         ' {"histogram": "h.csv", "n_pulses": 100}]')
# a manifest and histogram that _RECONSTRUCT solves; the second manifest
# lacks the bin layout that simulate writes
_DATA = {"m.json": f'{{{_RUNS}, "n_bins": 2, "bin_period_ns": 156}}',
         "h.csv": _hist_csv()}
_NO_LAYOUT = {"m.json": f"{{{_RUNS}}}", "h.csv": _hist_csv()}


_EXTRAPOLATE = ["extrapolate", "--params", "params.json", "--out", "out"]


def _params_3_bins(period: str) -> str:
    """A parameter document of 3 bins, whose windows are 2 ns wide, with the
    given JSON text as bin_period_ns."""
    return ('{"R": 0.89613, "eta_loop": 0.9064, "eta_det": 0.4912, "n_bins": 3, '
            f'"bin_period_ns": {period}}}')


# malformed inputs; each once ended in a traceback, a wrong exit code or a
# NaN result
FUZZ_TABLE = [
    pytest.param(_RECONSTRUCT, {"m.json": "5"}, 2, id="manifest-number"),
    pytest.param(_RECONSTRUCT, {"m.json": "null"}, 2, id="manifest-null"),
    pytest.param(_RECONSTRUCT, {"m.json": '{"runs": 5}'}, 2, id="runs-number"),
    pytest.param(_RECONSTRUCT, {"m.json": '{"runs": ["x"]}'}, 2, id="run-string"),
    pytest.param(_RECONSTRUCT, {"m.json": '{"runs": [{"n_pulses": 5}]}'}, 2,
                 id="run-without-histogram"),
    # what _hist_csv() holds, in the JSON form that is no longer read
    pytest.param(["estimate", "--params", "params2.json", "--histogram", "h.json",
                  "--pulses", "100", "--out", "out"],
                 {"h.json": '{"counts": [%s], "bin_width_ps": 1000, "t0_ps": 78000}'
                            % ", ".join(["5"] * 312)},
                 2, id="histogram-json"),
    pytest.param(_RECONSTRUCT, _NO_LAYOUT, 2, id="manifest-without-n-bins"),
    pytest.param([*_RECONSTRUCT, "--mc-band", "2", "--amplitude-err", "-0.5"], _DATA,
                 2, id="reconstruct-amplitude-err-negative"),
    pytest.param([*_RECONSTRUCT, "--mc-band", "2", "--amplitude-err", "nan"], _DATA,
                 2, id="reconstruct-amplitude-err-nan"),
    pytest.param(_ESTIMATE_CSV, {"h.csv": _hist_csv("nan,1000")}, 2,
                 id="histogram-csv-nan-bin-width"),
    pytest.param(_ESTIMATE_CSV, {"h.csv": _hist_csv("10,nan")}, 2,
                 id="histogram-csv-nan-t0"),
    pytest.param([*_ESTIMATE_CSV, "--bootstrap", "-3"], {"h.csv": _hist_csv()},
                 2, id="estimate-bootstrap-negative"),
    pytest.param(["estimate", "--params", "params2.json", "--outcome-dist", "d.csv",
                  "--out", "out"],
                 {"d.csv": "n_pulses,outcome_0,outcome_1,outcome_2\n"
                           "100,0.25,0.5,0.25\n100,0.5,0.25,0.25\n"},
                 2, id="outcome-dist-two-rows"),
    pytest.param([*_ESTIMATE_DIST, "--pulses", "7"], {"d.csv": _DIST_CSV}, 2,
                 id="outcome-dist-with-pulses"),
    pytest.param(["extrapolate", "--fit", "params.json", "--outcomes", "3",
                  "--hilbert-dim", "10", "--out", "out"], {}, 2,
                 id="extrapolate-fit-bare-params"),
    pytest.param([*_EXTRAPOLATE, "--outcomes", "300", "--hilbert-dim", "1000000"], {},
                 2, id="extrapolate-over-size-limit"),
    pytest.param([*_EXTRAPOLATE, "--outcomes", "12", "--hilbert-dim", "-1"], {},
                 2, id="extrapolate-negative-hilbert-dim"),
    # None: the input path is a directory
    pytest.param(_ESTIMATE_CSV, {"h.csv": None}, 2, id="histogram-directory"),
    pytest.param(_RECONSTRUCT, {"m.json": None}, 2, id="manifest-directory"),
    pytest.param(["export-plots", "--povm", "p.csv", "--out-dir", "out"],
                 {"p.csv": None}, 2, id="povm-directory"),
    pytest.param(["export-plots", "--povm", "p.csv", "--band", "b.csv",
                  "--out-dir", "out"],
                 {"p.csv": _POVM_2,
                  "b.csv": "fock_index,lo_0,hi_0,lo_1,hi_1\n0,1,1,0\n1,0.5,0.5,0.5\n"},
                 3, id="band-row-short"),
    pytest.param(["simulate", "--params", "params.json", "--ensemble", "e.json",
                  "--out-dir", "out"],
                 {"e.json": '{"probes": [{"mean_photon": 1}], "truncation_dim": "x"}'},
                 2, id="ensemble-truncation-text"),
    pytest.param(_SIMULATE, {"ens.json": '{"probes": [{"mean_photon": Infinity}]}'},
                 3, id="ensemble-mean-infinite"),
    pytest.param(_SIMULATE, {"ens.json": '{"probes": [{"mean_photon": 1}],'
                                         ' "tail_sigmas": Infinity}'},
                 2, id="ensemble-tail-sigmas-infinite"),
    *[pytest.param(_SIMULATE, {"params.json": _params_3_bins(period)}, 2,
                   id=f"simulate-bin-period-{name}")
      for name, period in [("0", "0"), ("1e-9", "1e-9"), ("true", "true"),
                           ("negative", "-156"), ("nan", "NaN"),
                           ("infinity", "Infinity"), ("string", '"156"'),
                           ("overlapping", "1.0")]],
    pytest.param([*_SIMULATE, "--pulses", "-5"], {}, 2, id="simulate-pulses-negative"),
    pytest.param([*_SIMULATE, "--seed", "-1"], {}, 2, id="simulate-seed-negative"),
    pytest.param([*_RECONSTRUCT, "--mc-band", "2", "--seed", "-1"], _DATA, 2,
                 id="reconstruct-seed-negative"),
    pytest.param([*_ESTIMATE_CSV, "--bootstrap", "3", "--seed", "-1"],
                 {"h.csv": _hist_csv()}, 2, id="estimate-seed-negative"),
    pytest.param([*_RECONSTRUCT, "--epsilon-sweep", "abc"], _DATA, 2,
                 id="reconstruct-epsilon-sweep-text"),
    pytest.param([*_SIMULATE, "--dark-prob", "1.5"], {}, 2,
                 id="simulate-dark-prob-above-one"),
    pytest.param([*_SIMULATE, "--dark-prob", "nan"], {}, 2, id="simulate-dark-prob-nan"),
    pytest.param([*_SIMULATE, "--bin-width-ps", "0"], {}, 2, id="simulate-bin-width-0"),
    pytest.param([*_SIMULATE, "--bin-width-ps", "-10"], {}, 2,
                 id="simulate-bin-width-negative"),
    pytest.param(["fit", "--povm", "p.csv", "--bins", "1", "--out", "out"],
                 {"p.csv": _POVM_2.replace(",1\n", ",2\n")}, 3, id="support-flag-2"),
    pytest.param(["estimate", "--params", "params2.json", "--outcome-dist", "d.csv",
                  "--out", "out"],
                 {"d.csv": "n_pulses,outcome_0,outcome_1,outcome_2\n100,nan,nan,nan\n"},
                 3, id="outcome-dist-nan"),
    pytest.param(["export-plots", "--povm", "p.csv", "--out-dir", "out"],
                 {"p.csv": "fock_index,outcome_0,outcome_1,supported\n0,nan,nan,1\n"},
                 2, id="povm-nan"),
]


def _fuzz_workspace(tmp_path, monkeypatch, files):
    monkeypatch.chdir(tmp_path)
    fileio.save_params(PARAMS, "params.json")
    fileio.save_params(LoopParams(0.89613, 0.9064, 0.4912, 2), "params2.json")
    fileio.save_ensemble(ProbeEnsemble.from_means([0.0, 1.0]), "ens.json")
    for name, text in files.items():
        if text is None:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_text(text)


@pytest.mark.parametrize("argv, files, code", FUZZ_TABLE)
def test_malformed_input_exit_codes(tmp_path, monkeypatch, capsys, argv, files, code):
    _fuzz_workspace(tmp_path, monkeypatch, files)
    assert main(argv) == code
    prefix = {2: "configuration error: ", 3: "data error: "}[code]
    assert capsys.readouterr().err.startswith(prefix)
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize("argv, files", [
    pytest.param(_ESTIMATE_CSV, {"h.csv": _hist_csv()}, id="estimate-histogram"),
    pytest.param(_ESTIMATE_DIST, {"d.csv": _DIST_CSV}, id="estimate-outcome-dist"),
    pytest.param([*_RECONSTRUCT, "--mc-band", "2"], _DATA, id="reconstruct-band"),
    pytest.param(_SIMULATE, {"params.json": _params_3_bins("2")},
                 id="simulate-touching-windows"),
])
def test_fuzz_table_inputs_are_otherwise_accepted(tmp_path, monkeypatch, argv, files):
    """The valid inputs that FUZZ_TABLE rows break with one flag or field."""
    _fuzz_workspace(tmp_path, monkeypatch, files)
    assert main(argv) == 0
    assert (tmp_path / "out").exists()


@pytest.mark.parametrize("n_runs", [1, 3])
def test_reconstruct_run_count_must_match_ensemble(tmp_path, monkeypatch, capsys,
                                                   n_runs):
    runs = ", ".join(['{"histogram": "h.csv", "n_pulses": 100}'] * n_runs)
    manifest = f'{{"runs": [{runs}], "n_bins": 2, "bin_period_ns": 156}}'
    _fuzz_workspace(tmp_path, monkeypatch, {"m.json": manifest, "h.csv": _hist_csv()})
    assert main(_RECONSTRUCT) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {n_runs} runs but ensemble defines 2 probes\n"
    )
    assert not (tmp_path / "out").exists()


def test_reconstruct_reads_each_histogram_as_it_integrates_it(
        tmp_path, monkeypatch):
    """At most one raw histogram is in memory: every load is followed by the
    integration of that histogram before the next load."""
    runs = ", ".join(['{"histogram": "h.csv", "n_pulses": 100}'] * 2)
    manifest = f'{{"runs": [{runs}], "n_bins": 2, "bin_period_ns": 156}}'
    _fuzz_workspace(tmp_path, monkeypatch, {"m.json": manifest, "h.csv": _hist_csv()})
    events = []

    def logged(module, name):
        func = getattr(module, name)

        def wrapper(*args, **kwargs):
            events.append(name)
            return func(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    logged(fileio, "load_histogram")
    logged(ingest, "integrate_histogram")
    assert main(_RECONSTRUCT) == 0
    assert events == ["load_histogram", "integrate_histogram"] * 2


def test_given_epsilon_beside_a_repeated_sweep(tmp_path, monkeypatch, capsys):
    """The sweep solves 1e-3 once and prints its own corner; the POVM is
    solved at the given 1e-4, which a second line names."""
    _fuzz_workspace(tmp_path, monkeypatch, _DATA)
    solved = []
    solve = tomography.reconstruct

    def counted(probe_matrix, outcomes, cfg, *args, **kwargs):
        solved.append(cfg.epsilon)
        return solve(probe_matrix, outcomes, cfg, *args, **kwargs)

    monkeypatch.setattr(tomography, "reconstruct", counted)
    assert main([*_RECONSTRUCT, "--epsilon-sweep", "1e-3,1e-3"]) == 0
    assert solved == [1e-3, 1e-4]
    lines = capsys.readouterr().out.splitlines()
    assert "L-curve written to out.lcurve.csv; corner epsilon 0.001" in lines
    assert "solving at the given epsilon 0.0001" in lines
    rows = (tmp_path / "out.lcurve.csv").read_text().splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("0.001,")
    report = json.loads((tmp_path / "out.report.json").read_text())
    assert report["epsilon"] == 1e-4


class TestExitCodes:
    def test_corrupt_histogram_is_data_error(self, workspace):
        ws, params_path, ensemble_path = workspace
        data = _simulate(workspace, out="corrupt")
        hist = (data / "hist_001.csv").read_text().splitlines()
        hist[2] = "999999999"  # more counts than pulses
        (data / "hist_001.csv").write_text("\n".join(hist) + "\n")
        code = main(
            [
                "reconstruct",
                "--manifest", str(data / "manifest.json"),
                "--ensemble", str(ensemble_path),
                "--epsilon", "1e-4",
                "--out", str(ws / "p.csv"),
            ]
        )
        assert code == 3

    def test_unconverged_exit_code(self, workspace, tmp_path):
        ws, params_path, _ = workspace
        # large truncation disables the polish; two iterations cannot converge
        big_ens = tmp_path / "big_ens.json"
        fileio.save_ensemble(
            ProbeEnsemble.from_means([0.0, 1.0, 4.0, 9.0, 16.0, 25.0, 100.0],
                                     truncation_dim=300),
            big_ens,
        )
        data_dir = tmp_path / "bigdata"
        code = main(
            [
                "simulate",
                "--params", str(params_path),
                "--ensemble", str(big_ens),
                "--pulses", "5000",
                "--seed", "2",
                "--out-dir", str(data_dir),
            ]
        )
        assert code == 0
        args = [
            "reconstruct",
            "--manifest", str(data_dir / "manifest.json"),
            "--ensemble", str(big_ens),
            "--epsilon", "1e-4",
            "--max-iterations", "40",
            "--out", str(ws / "u.csv"),
        ]
        assert main(args) == 4
        assert main(args + ["--allow-unconverged"]) == 0

    def test_fit_missing_key_is_config_error(self, tmp_path):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(
            json.dumps({"params": {"R": 0.9, "eta_det": 0.5, "n_bins": 10}})
        )
        dist_path = tmp_path / "dist.csv"
        fileio.save_outcome_matrix(
            OutcomeMatrix(np.eye(11)[:1], np.array([100])), dist_path
        )
        code = main(
            [
                "estimate",
                "--fit", str(fit_path),
                "--outcome-dist", str(dist_path),
                "--out", str(tmp_path / "est.json"),
            ]
        )
        assert code == 2

    def test_two_state_mixture_is_data_error(self, tmp_path):
        bright = LoopParams(0.89613, 0.9064, 0.4912, 119)
        params_path = tmp_path / "params.json"
        fileio.save_params(bright, params_path)
        mix = 0.5 * (
            coherent_outcome_distribution(bright, 50.0)
            + coherent_outcome_distribution(bright, 5e4)
        )
        dist_path = tmp_path / "mix.csv"
        fileio.save_outcome_matrix(
            OutcomeMatrix(mix[None, :], np.array([10**6])), dist_path
        )
        code = main(
            [
                "estimate",
                "--params", str(params_path),
                "--outcome-dist", str(dist_path),
                "--out", str(tmp_path / "est.json"),
            ]
        )
        assert code == 3

    def test_saturated_data_is_data_error(self, tmp_path, capsys):
        # every pulse clicks every bin; scipy's bracketing error used to
        # surface here in place of what is wrong with the data
        params_path = tmp_path / "params.json"
        fileio.save_params(PARAMS, params_path)
        dist_path = tmp_path / "saturated.csv"
        fileio.save_outcome_matrix(
            OutcomeMatrix(np.eye(11)[10][None, :], np.array([10**6])), dist_path
        )
        code = main(
            [
                "estimate",
                "--params", str(params_path),
                "--outcome-dist", str(dist_path),
                "--out", str(tmp_path / "est.json"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: the mean photon number is not identified")
        assert "Traceback" not in err
        assert not (tmp_path / "est.json").exists()

    def test_console_script_runs(self):
        out = subprocess.run(
            [sys.executable, "-m", "looptomo.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert "simulate" in out.stdout

    def test_import_leaves_optimize_and_special_unloaded(self):
        # only fit_params needs scipy.optimize, and it imports it when called
        code = ("import sys, looptomo.cli; print([m for m in sys.modules "
                "if m.startswith(('scipy.optimize', 'scipy.special'))])")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"


def test_readme_command_line_flags_exist():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    accepted = {flag for sub in subparsers.choices.values()
                for flag in sub._option_string_actions}
    assert documented and not documented - accepted, documented - accepted
