import json

import numpy as np
import pytest

from looptomo import (
    BinningConfig,
    ConfigError,
    DataError,
    LoopParams,
    OutcomeMatrix,
    POVMSet,
    ProbeEnsemble,
    SmoothingConfig,
    build_model_povm,
    coherent_outcome_distribution,
    estimate_mean_photon,
    histogram_from_bin_counts,
    reconstruct,
)
from looptomo import fileio
from looptomo.probe_states import poisson_row
from looptomo.tomography import SweepPoint, SweepResult


@pytest.fixture
def params():
    return LoopParams(0.89613, 0.9064, 0.4912, 10)


class TestParamsRoundTrip:
    def test_round_trip(self, params, tmp_path):
        path = tmp_path / "params.json"
        fileio.save_params(params, path)
        assert fileio.load_params(path) == params

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"R": 0.5}')
        with pytest.raises(ConfigError):
            fileio.load_params(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            fileio.load_params(path)


class TestEnsembleRoundTrip:
    def test_round_trip(self, tmp_path):
        ens = ProbeEnsemble.from_means([0.0, 1.0, 4.0], truncation_dim=30)
        path = tmp_path / "ensemble.json"
        fileio.save_ensemble(ens, path)
        back = fileio.load_ensemble(path)
        np.testing.assert_array_equal(back.means, ens.means)
        assert back.truncation_dim == 30

    def test_bare_list_accepted(self, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text('[{"label": 0, "mean_photon": 0.0},'
                        ' {"label": 1, "mean_photon": 4.0}]')
        ens = fileio.load_ensemble(path)
        assert len(ens) == 2


class TestHistogramRoundTrip:
    def test_csv_round_trip(self, tmp_path):
        cfg = BinningConfig(n_detector_bins=10)
        hist = histogram_from_bin_counts(np.arange(10) * 7, cfg)
        path = tmp_path / "hist.csv"
        fileio.save_histogram_csv(hist, path)
        back = fileio.load_histogram(path)
        np.testing.assert_array_equal(back.counts, hist.counts)
        assert back.bin_width_ps == hist.bin_width_ps
        assert back.t0_ps == hist.t0_ps

    def test_json_round_trip(self, tmp_path):
        cfg = BinningConfig(n_detector_bins=4)
        hist = histogram_from_bin_counts([5, 0, 2, 9], cfg)
        path = tmp_path / "hist.json"
        fileio.save_histogram_json(hist, path)
        back = fileio.load_histogram(path)
        np.testing.assert_array_equal(back.counts, hist.counts)

    def test_byte_determinism(self, tmp_path):
        cfg = BinningConfig(n_detector_bins=4)
        hist = histogram_from_bin_counts([5, 0, 2, 9], cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        fileio.save_histogram_csv(hist, a)
        fileio.save_histogram_csv(hist, b)
        assert a.read_bytes() == b.read_bytes()

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("not,a,histogram\n1,2,3\n")
        with pytest.raises(ConfigError):
            fileio.load_histogram_csv(path)

    @pytest.mark.parametrize(
        "text, outcome",
        [
            ("bin_width,t0\n10,1000\n5\n", ConfigError),
            ("bin_width_ps,t0_ps\n10,1000\n", ConfigError),
            ("bin_width_ps,t0_ps\n10,1000\n\n \n", ConfigError),
            ("bin_width_ps,t0_ps\n10,1000\n5\n1.5\n", DataError),
            ("bin_width_ps,t0_ps\n10,1000\n5\n1 2\n", DataError),
            ("bin_width_ps,t0_ps\n10,1000\n5\n1,2\n", DataError),
            ("bin_width_ps,t0_ps\n10,1000\n1,2\n3,4\n", DataError),
            ("bin_width_ps,t0_ps\n10,1000\n5\n#3\n", DataError),
            ("bin_width_ps,t0_ps\n10,1000\n5\n-3\n", DataError),
            ("bin_width_ps,t0_ps\nten,1000\n5\n", DataError),
            ("bin_width_ps,t0_ps\n10,1000\n5\n\n7\n \n+2\n", [5, 7, 2]),
            ("bin_width_ps,t0_ps\r\n10,1000\r\n 5 \r\n0\r\n", [5, 0]),
        ],
    )
    def test_csv_reader_table(self, tmp_path, recwarn, text, outcome):
        path = tmp_path / "h.csv"
        path.write_bytes(text.encode())
        if isinstance(outcome, list):
            hist = fileio.load_histogram_csv(path)
            np.testing.assert_array_equal(hist.counts, outcome)
            assert hist.counts.dtype == np.int64
            assert (hist.bin_width_ps, hist.t0_ps) == (10.0, 1000.0)
        else:
            with pytest.raises(outcome):
                fileio.load_histogram_csv(path)
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


class TestOutcomeMatrixRoundTrip:
    def test_round_trip(self, tmp_path):
        values = np.array([[0.7, 0.2, 0.1], [1.0, 0.0, 0.0]])
        matrix = OutcomeMatrix(values, np.array([100, 50]))
        path = tmp_path / "outcomes.csv"
        fileio.save_outcome_matrix(matrix, path)
        back = fileio.load_outcome_matrix(path)
        np.testing.assert_array_equal(back.values, values)
        np.testing.assert_array_equal(back.n_pulses, [100, 50])


class TestPovmRoundTrip:
    def test_round_trip_with_support(self, params, tmp_path):
        povm = build_model_povm(params, 60)
        sup = np.zeros(61, dtype=bool)
        sup[:40] = True
        povm = POVMSet(povm.theta, sup)
        path = tmp_path / "povm.csv"
        fileio.save_povm_csv(povm, path)
        back = fileio.load_povm_csv(path)
        np.testing.assert_array_equal(back.theta, povm.theta)
        np.testing.assert_array_equal(back.supported, sup)

    @pytest.mark.parametrize("block_lines", [2, 4096])
    def test_pinned_bytes(self, tmp_path, monkeypatch, block_lines):
        # block boundaries must not show in the bytes
        monkeypatch.setattr(fileio, "_BLOCK_LINES", block_lines)
        theta = np.array([[1.0, 0.0], [0.25, 0.75], [0.1, 0.9]])
        path = tmp_path / "povm.csv"
        fileio.save_povm_csv(POVMSet(theta, [True, True, False]), path)
        assert path.read_text() == (
            "fock_index,outcome_0,outcome_1,supported\n"
            "0,1,0,1\n"
            "1,0.25,0.75,1\n"
            "2,0.10000000000000001,0.90000000000000002,0\n"
        )
        part = tmp_path / "ext.rows2048-2050.csv"
        fileio.save_povm_rows_csv(theta, 2048, part)
        assert part.read_text() == (
            "fock_index,outcome_0,outcome_1\n"
            "2048,1,0\n"
            "2049,0.25,0.75\n"
            "2050,0.10000000000000001,0.90000000000000002\n"
        )

    def test_float_round_trip_is_exact(self, params, tmp_path):
        # %.17g preserves doubles bit-exactly
        povm = build_model_povm(params, 200)
        path = tmp_path / "povm.csv"
        fileio.save_povm_csv(povm, path)
        back = fileio.load_povm_csv(path)
        assert np.array_equal(back.theta, povm.theta)


class TestLcurveAndReport:
    def test_lcurve_pinned_bytes(self, tmp_path):
        points = (SweepPoint(1e-6, 0.25, 3.0, 0.250003),
                  SweepPoint(0.1, 1 / 3, 2e-3, 0.33353333333333335))
        path = tmp_path / "povm.lcurve.csv"
        fileio.save_lcurve(SweepResult(points, 0.1, ()), path)
        assert path.read_text() == (
            "epsilon,residual,smoothness,objective\n"
            "9.9999999999999995e-07,0.25,3,0.25000299999999998\n"
            "0.10000000000000001,0.33333333333333331,0.002,"
            "0.33353333333333335\n"
        )

    def test_report_json_carries_solver_account(self, tmp_path):
        f_mat = np.vstack([poisson_row(m, 20) for m in (0.0, 2.0, 5.0, 9.0)])
        p_mat = f_mat @ build_model_povm(LoopParams(0.9, 0.9, 0.5, 2), 20).theta
        _, report = reconstruct(f_mat, p_mat, SmoothingConfig(epsilon=1e-4))
        path = tmp_path / "r.json"
        fileio.save_report(report, path)
        doc = json.loads(path.read_text())
        assert doc["rho_changes"] == report.rho_changes
        assert doc["primal_residual"] == report.primal_residual
        assert doc["dual_residual"] == report.dual_residual


class TestEstimateJson:
    def test_no_bootstrap_writes_null_interval(self, params, tmp_path):
        p = coherent_outcome_distribution(params, 40.0)
        est = estimate_mean_photon(p, params)
        path = tmp_path / "est.json"
        fileio.save_estimate(est, path)
        doc = json.loads(path.read_text())
        assert doc["confidence_interval"] is None
        assert doc["bootstrap_interval"] is None
        assert doc["curvature_interval"] == list(est.curvature_interval)


class TestManifest:
    def test_round_trip(self, tmp_path):
        runs = [{"histogram": "h0.csv", "n_pulses": 10, "label": 0,
                 "mean_photon": 0.0}]
        path = tmp_path / "manifest.json"
        fileio.save_manifest(runs, path, seed=7, dark_prob=0.0)
        doc = fileio.load_manifest(path)
        assert doc["seed"] == 7
        assert doc["runs"] == runs

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        fileio.save_manifest([], path, seed=0)
        with pytest.raises(ConfigError):
            fileio.load_manifest(path)
