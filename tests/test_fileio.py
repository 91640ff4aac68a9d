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
from looptomo.estimation import BrightStateEstimate
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

    def test_report_json_keys_in_field_order(self, tmp_path):
        f_mat = np.vstack([poisson_row(m, 20) for m in (0.0, 2.0, 5.0, 9.0)])
        p_mat = f_mat @ build_model_povm(LoopParams(0.9, 0.9, 0.5, 2), 20).theta
        _, report = reconstruct(f_mat, p_mat, SmoothingConfig(epsilon=1e-4))
        path = tmp_path / "r.json"
        fileio.save_report(report, path)
        assert list(json.loads(path.read_text())) == [
            "objective", "residual", "penalty", "smoothness", "iterations",
            "converged", "gap", "wall_time_s", "epsilon", "n_unsupported",
            "rho_changes", "primal_residual", "dual_residual",
        ]


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

    def test_pinned_bytes_with_bootstrap(self, tmp_path):
        est = BrightStateEstimate(71234.567890123, 3.0517578125e-05,
                                  (70980.25, 71490.0), "bootstrap",
                                  (71100.5, 71368.75), (70980.25, 71490.0), 99)
        path = tmp_path / "est.json"
        fileio.save_estimate(est, path)
        assert path.read_text() == (
            '{\n  "mean_photon": 71234.567890123,\n  "residual": 3.0517578125e-05,\n'
            '  "confidence_interval": [\n    70980.25,\n    71490.0\n  ],\n'
            '  "method": "bootstrap",\n'
            '  "curvature_interval": [\n    71100.5,\n    71368.75\n  ],\n'
            '  "bootstrap_interval": [\n    70980.25,\n    71490.0\n  ],\n'
            '  "n_bootstrap": 99\n}\n'
        )

    def test_pinned_bytes_without_bootstrap(self, tmp_path):
        est = BrightStateEstimate(40.0, 0.0, None, "golden", (39.5, 40.5))
        path = tmp_path / "est.json"
        fileio.save_estimate(est, path)
        assert path.read_text() == (
            '{\n  "mean_photon": 40.0,\n  "residual": 0.0,\n'
            '  "confidence_interval": null,\n  "method": "golden",\n'
            '  "curvature_interval": [\n    39.5,\n    40.5\n  ],\n'
            '  "bootstrap_interval": null,\n  "n_bootstrap": 0\n}\n'
        )


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


_POVM_HEAD = "fock_index,outcome_0,outcome_1,supported\n"
_MATRIX_HEAD = "n_pulses,outcome_0,outcome_1\n"
_BAND_HEAD = "fock_index,lo_0,hi_0,lo_1,hi_1\n"


@pytest.mark.parametrize(
    "reader, text, outcome",
    [
        (fileio.load_povm_csv, _POVM_HEAD, DataError),
        (fileio.load_povm_csv, _POVM_HEAD + "\n\n", DataError),
        (fileio.load_povm_csv, _POVM_HEAD + "0,1,0,2\n", DataError),
        (fileio.load_povm_csv, _POVM_HEAD + "0,1,0,0.5\n", DataError),
        (fileio.load_povm_csv, _POVM_HEAD + "0,1,0,nan\n", DataError),
        (fileio.load_povm_csv, _POVM_HEAD + "0,1,0,1\n1,1,1\n", DataError),
        (fileio.load_povm_csv, _POVM_HEAD + "0,1,0,1,\n", DataError),
        (fileio.load_povm_csv, _POVM_HEAD + "0,1,zero,1\n", DataError),
        (fileio.load_povm_csv, _POVM_HEAD + "0,1,0\n", DataError),
        (fileio.load_povm_csv, "fock_index,outcome_0,outcome_1\n0,1,0\n",
         ConfigError),
        (fileio.load_povm_csv, "fock,outcome_0,supported\n0,1,1\n", ConfigError),
        (fileio.load_povm_csv, "", ConfigError),
        (fileio.load_povm_csv, _POVM_HEAD + "0,1,0,1\n\n1,0.5,0.5,0\n",
         [[1, 0], [0.5, 0.5]]),
        (fileio.load_povm_csv, _POVM_HEAD.replace("\n", "\r\n") + "0,1,0,1\r\n",
         [[1, 0]]),
        (fileio.load_outcome_matrix, _MATRIX_HEAD + "1.5,1,0\n", DataError),
        (fileio.load_outcome_matrix, _MATRIX_HEAD + "nan,1,0\n", DataError),
        (fileio.load_outcome_matrix, _MATRIX_HEAD + "1e30,1,0\n", DataError),
        (fileio.load_outcome_matrix, _MATRIX_HEAD + "10,1\n", DataError),
        (fileio.load_outcome_matrix, _MATRIX_HEAD + "10,1,0\n\n \n", DataError),
        (fileio.load_outcome_matrix, "n_pulses,p0\n10,1\n", ConfigError),
        (fileio.load_outcome_matrix, _MATRIX_HEAD + "10,1,0\n100,0.5,0.5\n",
         [[1, 0], [0.5, 0.5]]),
        (fileio.load_band, _BAND_HEAD + "0,1,1,0\n", DataError),
        (fileio.load_band, _BAND_HEAD + "\n", DataError),
        (fileio.load_band, "fock_index,lo_0,hi_0,lo_1\n0,1,1,0\n", ConfigError),
        (fileio.load_band, "fock_index,lo_0,hi_1\n0,1,1\n", ConfigError),
        (fileio.load_band, _BAND_HEAD + "0,0.9,1,0,0.1\n", [[0.9, 0]]),
    ],
)
def test_artifact_csv_reader_table(tmp_path, recwarn, reader, text, outcome):
    path = tmp_path / "a.csv"
    path.write_bytes(text.encode())
    if isinstance(outcome, list):
        result = reader(path)
        values = {fileio.load_povm_csv: lambda r: r.theta,
                  fileio.load_outcome_matrix: lambda r: r.values,
                  fileio.load_band: lambda r: r[0]}[reader](result)
        np.testing.assert_array_equal(values, outcome)
    else:
        with pytest.raises(outcome):
            reader(path)
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


def test_loaded_support_flags_and_pulses(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(_POVM_HEAD + "0,1,0,1\n1,0.5,0.5,0\n")
    np.testing.assert_array_equal(fileio.load_povm_csv(path).supported, [True, False])
    path.write_text(_MATRIX_HEAD + "10,1,0\n100.0,0.5,0.5\n")
    pulses = fileio.load_outcome_matrix(path).n_pulses
    assert pulses.dtype == np.int64
    np.testing.assert_array_equal(pulses, [10, 100])


@pytest.mark.parametrize(
    "loader, text",
    [
        (fileio.load_manifest, "5"),
        (fileio.load_manifest, "null"),
        (fileio.load_manifest, "[]"),
        (fileio.load_manifest, '{"runs": 5}'),
        (fileio.load_manifest, '{"runs": ["x"]}'),
        (fileio.load_manifest, '{"runs": [{"n_pulses": 5}]}'),
        (fileio.load_manifest, '{"runs": [{"histogram": 3, "n_pulses": 5}]}'),
        (fileio.load_manifest, '{"runs": [{"histogram": "h.csv", "n_pulses": 0}]}'),
        (fileio.load_manifest, '{"runs": [{"histogram": "h.csv", "n_pulses": 5.5}]}'),
        (fileio.load_manifest, '{"runs": [{"histogram": "h.csv", "n_pulses": true}]}'),
        (fileio.load_manifest,
         '{"runs": [{"histogram": "h.csv", "n_pulses": 5}], "n_bins": "10"}'),
        (fileio.load_manifest,
         '{"runs": [{"histogram": "h.csv", "n_pulses": 5}], "bin_period_ns": [1]}'),
        (fileio.load_manifest,
         '{"runs": [{"histogram": "h.csv", "n_pulses": 5}], "bin_period_ns": 0}'),
        (fileio.load_histogram_json, "[1, 2]"),
        (fileio.load_histogram_json, "3"),
        (fileio.load_histogram_json, '{"counts": "x", "bin_width_ps": 10}'),
        (fileio.load_histogram_json, '{"counts": [1e400], "bin_width_ps": 10}'),
        (fileio.load_histogram_json, '{"counts": [1.5], "bin_width_ps": 10}'),
        (fileio.load_histogram_json, '{"counts": [5, true], "bin_width_ps": 10}'),
        (fileio.load_histogram_json,
         '{"counts": [18446744073709551616], "bin_width_ps": 10}'),
        (fileio.load_ensemble,
         '{"probes": [{"mean_photon": 1}], "truncation_dim": "x"}'),
        (fileio.load_ensemble, '{"probes": [{"mean_photon": 1}], "tail_sigmas": [6]}'),
        (fileio.load_ensemble, '{"probes": 5}'),
        (fileio.load_params, "5"),
        (fileio.load_fit_params, '{"params": [0.9]}'),
    ],
)
def test_malformed_json_fields_are_config_errors(tmp_path, loader, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ConfigError):
        loader(path)
