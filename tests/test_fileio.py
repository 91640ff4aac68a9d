import itertools
import json
from pathlib import Path

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
    TimeTagHistogram,
    UncertaintyBand,
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

    def test_fit_document_without_period_gets_the_default(self, tmp_path):
        path = tmp_path / "fit.json"
        path.write_text('{"params": {%s}}' % _PARAMS)
        assert fileio.load_fit_params(path) == LoopParams(0.9, 0.9, 0.5, 10)


class TestEnsembleRoundTrip:
    def test_round_trip(self, tmp_path):
        ens = ProbeEnsemble.from_means([0.0, 1.0, 4.0], truncation_dim=30)
        path = tmp_path / "ensemble.json"
        fileio.save_ensemble(ens, path)
        back = fileio.load_ensemble(path)
        np.testing.assert_array_equal(back.means, ens.means)
        assert back.truncation_dim == 30

    def test_saved_bytes(self, tmp_path):
        path = tmp_path / "ens.json"
        ens = ProbeEnsemble.from_means([0.0, 4.0, 9.0], truncation_dim=40)
        fileio.save_ensemble(ens, path)
        assert path.read_text() == (
            '{\n  "probes": [\n'
            '    {\n      "label": 0,\n      "mean_photon": 0.0\n    },\n'
            '    {\n      "label": 1,\n      "mean_photon": 4.0\n    },\n'
            '    {\n      "label": 2,\n      "mean_photon": 9.0\n    }\n'
            '  ],\n  "truncation_dim": 40\n}\n'
        )

    def test_labels_are_rewritten_as_the_probe_index(self, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text('{"probes": [{"label": 7, "mean_photon": 1.0},'
                        ' {"label": 3, "mean_photon": 2.0}], "truncation_dim": 30}')
        fileio.save_ensemble(fileio.load_ensemble(path), tmp_path / "back.json")
        probes = json.loads((tmp_path / "back.json").read_text())["probes"]
        assert probes == [{"label": 0, "mean_photon": 1.0},
                          {"label": 1, "mean_photon": 2.0}]

    def test_keys_it_does_not_read_are_ignored(self, tmp_path):
        # tail_sigmas: a key older files carry
        path = tmp_path / "ens.json"
        path.write_text('{"probes": [{"label": "a", "mean_photon": 1}],'
                        ' "truncation_dim": 30, "tail_sigmas": 6.0}')
        assert fileio.load_ensemble(path) == ProbeEnsemble.from_means([1.0], 30)

    def test_bare_list_rejected(self, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text('[{"label": 0, "mean_photon": 0.0},'
                        ' {"label": 1, "mean_photon": 4.0}]')
        with pytest.raises(ConfigError):
            fileio.load_ensemble(path)


def _line_by_line_histogram_csv(hist, path):
    """The histogram writer that formatted every count through str."""
    values = f"{'%.17g' % hist.bin_width_ps},{'%.17g' % hist.t0_ps}"
    lines = itertools.chain([values], map(str, hist.counts.tolist()))
    with open(path, "w") as fh:
        fh.write("bin_width_ps,t0_ps\n")
        while block := list(itertools.islice(lines, 4096)):
            fh.write("\n".join(block) + "\n")


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

    def test_json_histogram_rejected(self, tmp_path):
        path = tmp_path / "hist.json"
        path.write_text('{"counts": [5, 0, 2, 9], "bin_width_ps": 10, "t0_ps": 1000}')
        with pytest.raises(ConfigError, match="not a histogram CSV"):
            fileio.load_histogram(path)

    def test_byte_determinism(self, tmp_path):
        cfg = BinningConfig(n_detector_bins=4)
        hist = histogram_from_bin_counts([5, 0, 2, 9], cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        fileio.save_histogram_csv(hist, a)
        fileio.save_histogram_csv(hist, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("block_lines", [2, 4096])
    @pytest.mark.parametrize("case", [
        "sparse", "dense", "all_zero", "single_zero", "single_count",
        "leading_and_trailing", "short_zero_runs", "runs_around_block_size",
        "alternating_zero_one", "poisson_one", "bench_layout",
        "runs_around_min_zero_run",
    ])
    def test_csv_bytes_match_line_by_line_writer(
        self, tmp_path, monkeypatch, block_lines, case
    ):
        monkeypatch.setattr(fileio, "_BLOCK_LINES", block_lines)
        rng = np.random.default_rng(3)
        run = 64
        if case == "sparse":  # a simulated histogram: 10 counts in 140,601 bins
            counts = np.zeros(140_601, dtype=np.int64)
            counts[rng.choice(counts.size, 10, replace=False)] = rng.integers(
                1, 10**6, 10)
        elif case == "dense":
            counts = rng.integers(1, 2**62, 10_000)
        elif case == "all_zero":
            counts = np.zeros(10_000, dtype=np.int64)
        elif case == "single_zero":
            counts = np.zeros(1, dtype=np.int64)
        elif case == "single_count":
            counts = np.array([7])
        elif case == "leading_and_trailing":
            counts = np.concatenate([[5], np.zeros(3 * run), [3, 0, 9],
                                     np.zeros(run), [1]])
        elif case == "short_zero_runs":
            counts = np.tile([0, 4, 0, 0, 12], 2000)
        elif case == "alternating_zero_one":
            counts = np.arange(140_601) % 2
        elif case == "poisson_one":
            counts = rng.poisson(1.0, 140_601)
        elif case == "bench_layout":  # 10 window totals 15,600 raw bins apart
            counts = np.zeros(140_601, dtype=np.int64)
            counts[100 + 15_600 * np.arange(10)] = rng.integers(1, 10**6, 10)
        elif case == "runs_around_min_zero_run":
            m = fileio._MIN_ZERO_RUN
            counts = np.concatenate([[1], np.zeros(m - 1), [2], np.zeros(m), [3],
                                     np.zeros(m + 1), [4]])
        else:  # zero runs one shorter than, equal to and one longer than a block
            counts = np.concatenate([[1], np.zeros(block_lines - 1), [2],
                                     np.zeros(block_lines), [3],
                                     np.zeros(block_lines + 1)])
        hist = TimeTagHistogram(counts.astype(np.int64), 12.5, 1000.0 / 3)
        fileio.save_histogram_csv(hist, tmp_path / "new.csv")
        _line_by_line_histogram_csv(hist, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_zero_runs_are_repeated_in_bounded_blocks(self, monkeypatch):
        monkeypatch.setattr(fileio, "_BLOCK_LINES", 100)
        counts = np.concatenate([np.zeros(64), [5, 0, 2, 7], np.zeros(250)])
        blocks = list(fileio._count_blocks(counts.astype(np.int64)))
        # the single zero is shorter than _MIN_ZERO_RUN: formatted in line
        assert blocks == ["0\n" * 64, "5\n0\n2\n7\n", "0\n" * 100,
                          "0\n" * 100, "0\n" * 50]

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("not,a,histogram\n1,2,3\n")
        with pytest.raises(ConfigError):
            fileio.load_histogram(path)

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
            hist = fileio.load_histogram(path)
            np.testing.assert_array_equal(hist.counts, outcome)
            assert hist.counts.dtype == np.int64
            assert (hist.bin_width_ps, hist.t0_ps) == (10.0, 1000.0)
        else:
            with pytest.raises(outcome):
                fileio.load_histogram(path)
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

    def test_povm_without_support_mask_flags_every_row(self, tmp_path):
        path = tmp_path / "povm.csv"
        fileio.save_povm_csv(POVMSet(np.array([[1.0, 0.0], [0.5, 0.5]])), path)
        assert path.read_text() == (
            "fock_index,outcome_0,outcome_1,supported\n0,1,0,1\n1,0.5,0.5,1\n"
        )

    def test_float_round_trip_is_exact(self, params, tmp_path):
        # %.17g preserves doubles bit-exactly
        povm = build_model_povm(params, 200)
        path = tmp_path / "povm.csv"
        fileio.save_povm_csv(povm, path)
        back = fileio.load_povm_csv(path)
        assert np.array_equal(back.theta, povm.theta)


def _line_by_line_table_csv(path, header, labels, values, flags=None):
    """The table writer that formatted every line with one %-format string:
    an integer label, %.17g floats, then the integer flag if given."""
    fmt = ",".join(["%d"] + ["%.17g"] * values.shape[1])
    lines = [fmt % (label, *row) for label, row in zip(labels, values.tolist())]
    if flags is not None:
        lines = [f"{line},{int(flag)}" for line, flag in zip(lines, flags)]
    with open(path, "w") as fh:
        fh.write(header + "\n" + "".join(line + "\n" for line in lines))


class TestTableBytes:
    @pytest.fixture
    def povm(self, params):
        rng = np.random.default_rng(5)
        theta = build_model_povm(params, 3000).theta.copy()
        theta[1:9, -1] = -1e-13 * rng.random(8)  # below 10 photons: tiny negatives
        return POVMSet(theta, rng.random(3001) < 0.7)

    @pytest.mark.parametrize("block_lines", [2, 4096])
    @pytest.mark.parametrize("artifact", ["povm", "band", "outcome_matrix"])
    def test_bytes_match_line_by_line_writer(
        self, tmp_path, monkeypatch, povm, block_lines, artifact
    ):
        monkeypatch.setattr(fileio, "_BLOCK_LINES", block_lines)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        theta, rows = povm.theta, np.arange(3001)
        if artifact == "povm":
            fileio.save_povm_csv(povm, new)
            header = fileio._outcome_header("fock_index", 11) + ",supported"
            _line_by_line_table_csv(old, header, rows, theta, povm.supported)
        elif artifact == "band":
            band = UncertaintyBand(theta * 0.9, np.minimum(theta * 1.1, 1.0), 2, 0.05)
            fileio.save_band(band, new)
            interleaved = np.stack([band.lo, band.hi], axis=2).reshape(3001, -1)
            _line_by_line_table_csv(old, fileio._band_header(11), rows, interleaved)
        else:  # labels past 16 digits and 1e-290 entries take Python's formatting
            rng = np.random.default_rng(6)
            values = rng.dirichlet(np.full(5, 0.3), 500)
            values[::7, 0] = 1e-290
            values /= values.sum(axis=1, keepdims=True)
            values[3] = [1.0, 0.0, 0.0, 0.0, 0.0]
            pulses = (rng.integers(1, 10**18, 500) >> rng.integers(0, 60, 500)) + 1
            matrix = OutcomeMatrix(values, pulses)
            fileio.save_outcome_matrix(matrix, new)
            _line_by_line_table_csv(old, fileio._outcome_header("n_pulses", 5),
                                    matrix.n_pulses, matrix.values)
        assert new.read_bytes() == old.read_bytes()


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
            "primal_residual", "dual_residual",
        ]


class TestEstimateJson:
    def test_no_bootstrap_writes_null_interval(self, params, tmp_path):
        p = coherent_outcome_distribution(params, 40.0)
        est = estimate_mean_photon(p, params)
        path = tmp_path / "est.json"
        fileio.save_estimate(est, path)
        doc = json.loads(path.read_text())
        assert doc["bootstrap_interval"] is None
        assert doc["n_bootstrap"] == 0

    def test_pinned_bytes_with_bootstrap(self, tmp_path):
        est = BrightStateEstimate(71234.567890123, 3.0517578125e-05,
                                  (70980.25, 71490.0), 99)
        path = tmp_path / "est.json"
        fileio.save_estimate(est, path)
        assert path.read_text() == (
            '{\n  "mean_photon": 71234.567890123,\n  "residual": 3.0517578125e-05,\n'
            '  "bootstrap_interval": [\n    70980.25,\n    71490.0\n  ],\n'
            '  "n_bootstrap": 99\n}\n'
        )

    def test_pinned_bytes_without_bootstrap(self, tmp_path):
        est = BrightStateEstimate(40.0, 0.0)
        path = tmp_path / "est.json"
        fileio.save_estimate(est, path)
        assert path.read_text() == (
            '{\n  "mean_photon": 40.0,\n  "residual": 0.0,\n'
            '  "bootstrap_interval": null,\n  "n_bootstrap": 0\n}\n'
        )


class TestManifest:
    def test_round_trip(self, tmp_path):
        runs = [{"histogram": "h0.csv", "n_pulses": 10, "label": 0,
                 "mean_photon": 0.0}]
        path = tmp_path / "manifest.json"
        fileio.save_manifest(runs, path, 7, 0.0, 10, 156.0)
        doc = fileio.load_manifest(path)
        assert doc["seed"] == 7
        assert doc["runs"] == runs
        assert (doc["n_bins"], doc["bin_period_ns"]) == (10, 156.0)

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        fileio.save_manifest([], path, 0, 0.0, 10, 156.0)
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


_RUN = '"runs": [{"histogram": "h.csv", "n_pulses": 5}]'
_PARAMS = '"R": 0.9, "eta_loop": 0.9, "eta_det": 0.5, "n_bins": 10'


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
        (fileio.load_manifest, "{%s}" % _RUN),
        (fileio.load_manifest, '{%s, "bin_period_ns": 156}' % _RUN),
        (fileio.load_manifest, '{%s, "n_bins": 10}' % _RUN),
        (fileio.load_manifest, '{%s, "n_bins": "10", "bin_period_ns": 156}' % _RUN),
        (fileio.load_manifest, '{%s, "n_bins": 0, "bin_period_ns": 156}' % _RUN),
        (fileio.load_manifest, '{%s, "n_bins": 10, "bin_period_ns": [1]}' % _RUN),
        (fileio.load_manifest, '{%s, "n_bins": 10, "bin_period_ns": 0}' % _RUN),
        (fileio.load_manifest, '{%s, "n_bins": 10, "bin_period_ns": NaN}' % _RUN),
        (fileio.load_manifest, '{%s, "n_bins": 10, "bin_period_ns": "156"}' % _RUN),
        (fileio.load_manifest, '{%s, "n_bins": 10, "bin_period_ns": true}' % _RUN),
        (fileio.load_manifest, '{%s, "n_bins": 10, "bin_period_ns": Infinity}' % _RUN),
        (fileio.load_manifest, '{%s, "n_bins": 10, "bin_period_ns": -156}' % _RUN),
        (fileio.load_ensemble,
         '{"probes": [{"mean_photon": 1}], "truncation_dim": "x"}'),
        *[(fileio.load_ensemble,
           '{"probes": [{"mean_photon": 1}], "truncation_dim": %s}' % trunc)
          for trunc in ("60.7", '"60"', "true", "-1", "[60]")],
        (fileio.load_ensemble, '{"probes": [{"mean_photon": "1"}]}'),
        (fileio.load_ensemble, '{"probes": [{"mean_photon": false}]}'),
        # an integer beyond the largest double
        (fileio.load_ensemble, '{"probes": [{"mean_photon": 1%s}]}' % ("0" * 400)),
        (fileio.load_ensemble, '{"probes": 5}'),
        (fileio.load_params, "5"),
        (fileio.load_params, "{%s}" % _PARAMS),
        (fileio.load_params, '{%s, "bin_period_ns": "156"}' % _PARAMS),
        (fileio.load_params, '{%s, "bin_period_ns": true}' % _PARAMS),
        (fileio.load_params, '{%s, "bin_period_ns": 0}' % _PARAMS),
        (fileio.load_params, '{%s, "bin_period_ns": NaN}' % _PARAMS),
        (fileio.load_fit_params,
         '{"params": {%s, "bin_period_ns": "156"}}' % _PARAMS),
        (fileio.load_fit_params, '{"params": [0.9]}'),
        (fileio.load_fit_params,
         '{"R": 0.9, "eta_loop": 0.9, "eta_det": 0.5, "n_bins": 10}'),
    ],
)
def test_malformed_json_fields_are_config_errors(tmp_path, loader, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ConfigError):
        loader(path)


@pytest.mark.parametrize("bullet, save", [
    ("Manifest JSON", lambda path: fileio.save_manifest([], path, 0, 0.0, 10, 156.0)),
    ("Ensemble JSON",
     lambda path: fileio.save_ensemble(ProbeEnsemble.from_means([1.0]), path)),
], ids=["manifest", "ensemble"])
def test_readme_format_lists_every_written_key(tmp_path, bullet, save):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    entry = readme.split(f"\n- **{bullet}**")[1].split("\n- **")[0]
    path = tmp_path / "doc.json"
    save(path)
    missing = [key for key in json.loads(path.read_text()) if f'"{key}"' not in entry]
    assert not missing, missing
