"""The benchmark's own tests: every output check rejects a corrupted artifact.

Artifacts come from the real CLI at small size (15 probes, truncation 60,
2000 extrapolated rows), so each test runs the same check code the
workloads run. ``PYTHONPATH=src python -m pytest bench`` runs them.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from looptomo import cli, fileio, ingest  # noqa: E402


class SmallTomography(workloads._Tomography):
    name = "small"
    means = list(25.0 * np.arange(15) / 14.0)
    truncation_dim = 60

    def reconstruct_args(self):
        return ["--epsilon", "1e-3", "--epsilon-sweep", "1e-5,1e-3,1e-1"]

    def check_solution(self, p_mat, eps, povm):
        checks.check_lcurve(checks.read_lcurve(povm.with_suffix(".lcurve.csv")))


def _run(ops):
    for op in ops:
        assert cli.main(op.argv) == 0, op.argv


@pytest.fixture(scope="module")
def tomography(tmp_path_factory):
    root = tmp_path_factory.mktemp("tomo")
    work = SmallTomography(root / "inputs", seed=5)
    ops = work.operations(root / "out")
    _run(ops)
    return work, ops, root / "out"


@pytest.fixture()
def artifacts(tomography, tmp_path):
    """A fresh copy of the reconstruction outputs, safe to corrupt."""
    work, _, out = tomography
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return work, copy / "data", copy / "povm.csv"


def test_intact_reconstruction_passes(artifacts):
    work, data, povm = artifacts
    work.check_simulate(data)
    work.check_reconstruct(data, povm)


def test_bin_total_beyond_five_sigma_fails(artifacts):
    work, data, _ = artifacts
    hist = data / "hist_014.csv"
    width, t0, counts = checks.read_histogram_csv(hist)
    k = int(np.argmin(np.where(counts > 0, counts, counts.max())))
    counts[k] += int(6 * np.sqrt(counts[k])) + 1  # sigma <= sqrt(count)
    hist.write_text("bin_width_ps,t0_ps\n%r,%r\n" % (width, t0)
                    + "\n".join(map(str, counts)) + "\n")
    with pytest.raises(checks.CheckFailed, match="probe 14"):
        work.check_simulate(data)


def _rewrite_povm(povm: Path, theta):
    lines = povm.read_text().splitlines()
    rows = [f"{i}," + ",".join("%.17g" % v for v in row) + ",1"
            for i, row in enumerate(theta)]
    povm.write_text("\n".join([lines[0], *rows]) + "\n")


def test_row_off_simplex_fails(artifacts):
    work, data, povm = artifacts
    theta = checks.read_povm_csv(povm)
    shifted = theta.copy()
    shifted[30] += 1e-6
    _rewrite_povm(povm, shifted)
    with pytest.raises(checks.CheckFailed, match="row 30 sums"):
        work.check_reconstruct(data, povm)
    negative = theta.copy()
    negative[30, :2] += (-negative[30, 0] - 1e-9, negative[30, 0] + 1e-9)
    _rewrite_povm(povm, negative)
    with pytest.raises(checks.CheckFailed, match="row 30 outcome 0 is negative"):
        work.check_reconstruct(data, povm)


def test_objective_shifted_by_1e6_relative_fails(artifacts):
    work, data, povm = artifacts
    report_path = povm.with_suffix(".report.json")
    report = json.loads(report_path.read_text())
    report["objective"] *= 1.0 + 1e-6
    report_path.write_text(json.dumps(report))
    with pytest.raises(checks.CheckFailed, match="reported objective"):
        work.check_reconstruct(data, povm)


def test_lcurve_with_two_points_swapped_fails(artifacts):
    work, data, povm = artifacts
    curve_path = povm.with_suffix(".lcurve.csv")
    curve = checks.read_lcurve(curve_path)
    lines = curve_path.read_text().splitlines()
    curve_path.write_text("\n".join([lines[0], lines[2], lines[1], *lines[3:]]))
    with pytest.raises(checks.CheckFailed, match="not strictly increasing"):
        work.check_reconstruct(data, povm)
    curve[[0, 1], 1:] = curve[[1, 0], 1:]  # same epsilons, values swapped
    with pytest.raises(checks.CheckFailed, match="residual decreases"):
        checks.check_lcurve(curve)


@pytest.fixture()
def fit_file(tmp_path):
    path = tmp_path / "fit.json"
    r, eta_loop, eta_det = workloads.DEVICE
    path.write_text(json.dumps({"params": {
        "R": r, "eta_loop": eta_loop, "eta_det": eta_det, "n_bins": 10}}))
    return path


def test_fit_off_by_1e3_fails(fit_file):
    checks.check_params(workloads.fitted_params(fit_file), workloads.DEVICE)
    doc = json.loads(fit_file.read_text())
    doc["params"]["eta_loop"] += 1e-3
    fit_file.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckFailed, match="misses"):
        checks.check_params(workloads.fitted_params(fit_file), workloads.DEVICE)


def test_extrapolated_row_from_wrong_parameters_fails(fit_file, tmp_path):
    ext = tmp_path / "ext.csv"
    assert cli.main(["extrapolate", "--fit", str(fit_file), "--outcomes", "50",
                     "--hilbert-dim", "2000", "--out", str(ext)]) == 0
    rows = np.arange(0, 2001, 250)
    workloads.check_extrapolated(fit_file, ext, 50, rows)

    r, eta_loop, eta_det = workloads.DEVICE
    wrong = checks.model_povm(
        checks.per_photon_bin_probs(r, eta_loop * (1 + 1e-3), eta_det, 49), [1000])
    lines = ext.read_text().splitlines()
    lines[1001] = "1000," + ",".join("%.17g" % v for v in wrong[0]) + ",1"
    ext.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="row 1000 differs"):
        workloads.check_extrapolated(fit_file, ext, 50, rows)


def test_bright_histogram_matches_fileio_writer(tmp_path):
    totals = np.arange(1, 120) * 1000
    ours = tmp_path / "ours.csv"
    workloads.write_histogram(totals, ours)
    theirs = tmp_path / "theirs.csv"
    fileio.save_histogram_csv(fileio.load_histogram(ours), theirs)
    assert ours.read_bytes() == theirs.read_bytes()
    cfg = ingest.BinningConfig(119)
    assert np.array_equal(ingest.integrate_histogram(fileio.load_histogram(ours), cfg),
                          totals)


def test_estimate_outside_one_percent_fails():
    checks.check_estimate(7.15e4, 7.1e4)
    with pytest.raises(checks.CheckFailed, match="bright-state"):
        checks.check_estimate(7.2e4, 7.1e4)


def test_recurrence_matches_program_engine():
    from looptomo import detector_model

    q = checks.per_photon_bin_probs(*workloads.DEVICE, 49)
    photons = np.array([0, 1, 7, 500, 71_000])
    ours = checks.model_povm(q, photons)
    params = detector_model.LoopParams(*workloads.DEVICE, 49)
    assert np.abs(ours - detector_model.model_povm_rows(params, photons)).max() < 1e-12


def test_tracer_splits_rows_by_caller_and_restores(fit_file, tmp_path):
    from looptomo import detector_model, model_fit

    original = model_fit.model_povm_rows
    t = tracer.Tracer()
    with t.stage("extrapolate"):
        cli.main(["extrapolate", "--fit", str(fit_file), "--outcomes", "11",
                  "--hilbert-dim", "300", "--out", str(tmp_path / "e.csv")])
    assert model_fit.model_povm_rows is original
    assert detector_model.model_povm_rows is original
    m = tracer.layer_metrics(t, {"extrapolate": 1.0}, None)
    assert m["detector_model.model_povm_rows.extrapolate_povm.rows"] == 301
    assert m["detector_model.model_povm_rows.fit_params.calls"] == 0
    assert m["fileio.save_povm_csv.bytes"] == (tmp_path / "e.csv").stat().st_size
    assert 0 <= m["cli.extrapolate.self_s"] <= m["cli.extrapolate.s"]


def test_benchmark_json_names_what_run_prints():
    import run

    doc = json.loads((Path(__file__).resolve().parent.parent
                      / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == tracer.PER_LAYER
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS)
