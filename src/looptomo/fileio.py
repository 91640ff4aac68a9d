"""Readers and writers for the on-disk artifact formats.

All floats are serialized with round-trip precision (%.17g in CSV), so
identical inputs produce byte-identical files. CSV lines are written in
fixed-size blocks, so no artifact is held in memory as one string.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np

from .detector_model import LoopParams, POVMSet
from .errors import ConfigError, DataError
from .ingest import OutcomeMatrix, TimeTagHistogram
from .model_fit import FitResult
from .probe_states import ProbeEnsemble
from .tomography import ReconstructionReport, SweepResult, UncertaintyBand

_FLOAT_FMT = "%.17g"
_BLOCK_LINES = 4096  # CSV lines joined and written per write call
# zero runs at least this long are written as repeated "0\n"; a shorter run
# costs fewer Python steps formatted along with its neighbours
_MIN_ZERO_RUN = 32


def _write_csv(path, header: str, lines) -> None:
    """Write the header line, then ``lines`` in blocks of _BLOCK_LINES."""
    lines = iter(lines)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        while block := list(itertools.islice(lines, _BLOCK_LINES)):
            fh.write("\n".join(block) + "\n")


def _labelled_lines(labels, values: np.ndarray):
    """Lines "label,v_0,...,v_k": an integer label, then round-trip floats."""
    fmt = "%d," + ",".join([_FLOAT_FMT] * values.shape[1])
    return (fmt % (label, *row.tolist()) for label, row in zip(labels, values))


def _outcome_header(first: str, n_out: int) -> str:
    return first + "," + ",".join(f"outcome_{n}" for n in range(n_out))


def _read_csv(path, header_prefix: str, what: str) -> tuple[list[str], np.ndarray]:
    """Header cells and float body of a numeric CSV artifact.

    A header not starting with ``header_prefix`` is a ConfigError. An empty
    body, an unparsable cell, a ragged row or a body whose width differs
    from the header's is a DataError. Blank lines are skipped.
    """
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            has_body = any(line.strip() for line in fh)
        if not header.startswith(header_prefix):
            raise ConfigError(f"{path}: not {what}")
        if not has_body:  # checked first: loadtxt warns on an empty body
            raise DataError(f"{path}: {what} has no rows")
        body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    cells = header.split(",")
    if body.shape[1] != len(cells):
        raise DataError(f"{path}: {body.shape[1]} values per row, {len(cells)} columns")
    return cells, body


def _write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


@contextlib.contextmanager
def _json_fields(path):
    """Read JSON document fields: a missing or mistyped one is a ConfigError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: missing or malformed field: {exc}") from exc


# -- model parameters ---------------------------------------------------------

def _params_doc(params: LoopParams) -> dict:
    return {
        "R": params.reflectivity,
        "eta_loop": params.loop_efficiency,
        "eta_det": params.det_efficiency,
        "n_bins": params.n_bins,
        "bin_period_ns": params.bin_period_ns,
    }


def _params_from_doc(doc, path) -> LoopParams:
    with _json_fields(path):
        return LoopParams(
            reflectivity=float(doc["R"]),
            loop_efficiency=float(doc["eta_loop"]),
            det_efficiency=float(doc["eta_det"]),
            n_bins=int(doc["n_bins"]),
            bin_period_ns=float(doc.get("bin_period_ns", 156.0)),
        )


def save_params(params: LoopParams, path) -> None:
    _write_json(path, _params_doc(params))


def load_params(path) -> LoopParams:
    return _params_from_doc(_load_json(path), path)


# -- probe ensembles ----------------------------------------------------------

def save_ensemble(ensemble: ProbeEnsemble, path) -> None:
    doc = {
        "probes": [
            {"label": p.label, "mean_photon": p.mean_photon} for p in ensemble.probes
        ],
        "truncation_dim": ensemble.truncation_dim,
        "tail_sigmas": ensemble.tail_sigmas,
    }
    _write_json(path, doc)


def load_ensemble(path) -> ProbeEnsemble:
    doc = _load_json(path)
    if isinstance(doc, list):
        doc = {"probes": doc}
    with _json_fields(path):
        means = [float(p["mean_photon"]) for p in doc["probes"]]
        truncation_dim = doc.get("truncation_dim")
        if truncation_dim is not None:
            truncation_dim = int(truncation_dim)
        tail_sigmas = float(doc.get("tail_sigmas", 6.0))
    return ProbeEnsemble.from_means(means, truncation_dim, tail_sigmas)


# -- histograms ---------------------------------------------------------------

def _count_blocks(counts: np.ndarray):
    """One count per line, as text blocks of at most _BLOCK_LINES lines.

    Zero runs of at least _MIN_ZERO_RUN lines are written as repeated
    "0\\n"; the counts between them are formatted one by one.
    """
    zero = np.concatenate([[False], counts == 0, [False]])
    runs = np.flatnonzero(zero[1:] != zero[:-1]).reshape(-1, 2)  # [start, end)
    runs = runs[runs[:, 1] - runs[:, 0] >= _MIN_ZERO_RUN]
    pos = 0
    for start, end in [*runs.tolist(), (counts.size, counts.size)]:
        for i in range(pos, start, _BLOCK_LINES):
            block = counts[i:min(i + _BLOCK_LINES, start)].tolist()
            yield "\n".join(map(str, block)) + "\n"
        for i in range(start, end, _BLOCK_LINES):
            yield "0\n" * (min(i + _BLOCK_LINES, end) - i)
        pos = end


def save_histogram_csv(hist: TimeTagHistogram, path) -> None:
    values = f"{_FLOAT_FMT % hist.bin_width_ps},{_FLOAT_FMT % hist.t0_ps}"
    with open(path, "w") as fh:
        fh.write(f"bin_width_ps,t0_ps\n{values}\n")
        fh.writelines(_count_blocks(hist.counts))


def load_histogram_csv(path) -> TimeTagHistogram:
    """Header, "bin_width_ps,t0_ps" values, then one integer count per line
    (blank lines skipped), parsed by numpy's C reader."""
    with open(path) as fh:
        header, values = fh.readline(), fh.readline()
        has_counts = any(line.strip() for line in fh)
    if header.strip() != "bin_width_ps,t0_ps" or not has_counts:
        raise ConfigError(f"{path}: not a histogram CSV")
    try:
        bw, t0 = (float(x) for x in values.split(","))
        counts = np.loadtxt(
            path, dtype=np.int64, comments=None, skiprows=2, ndmin=2
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if counts.shape[1] != 1:
        raise DataError(f"{path}: {counts.shape[1]} counts on one line")
    return TimeTagHistogram(counts[:, 0], bw, t0)


def save_histogram_json(hist: TimeTagHistogram, path) -> None:
    doc = {
        "bin_width_ps": hist.bin_width_ps,
        "t0_ps": hist.t0_ps,
        "counts": [int(c) for c in hist.counts],
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def load_histogram_json(path) -> TimeTagHistogram:
    doc = _load_json(path)
    with _json_fields(path):
        # per element: np.asarray truncates 1.5 and reads [5, true] as integers
        if not all(type(c) is int for c in doc["counts"]):
            raise ConfigError(f"{path}: histogram counts must be JSON integers")
        counts = np.asarray(doc["counts"], dtype=np.int64)
        bin_width_ps = float(doc["bin_width_ps"])
        t0_ps = float(doc.get("t0_ps", 1000.0))
    return TimeTagHistogram(counts, bin_width_ps, t0_ps)


def load_histogram(path) -> TimeTagHistogram:
    path = Path(path)
    if path.suffix.lower() == ".json":
        return load_histogram_json(path)
    return load_histogram_csv(path)


# -- run manifests ------------------------------------------------------------

def save_manifest(
    runs: list[dict],
    path,
    seed: int,
    dark_prob: float = 0.0,
    n_bins: int | None = None,
    bin_period_ns: float = 156.0,
) -> None:
    """runs: [{"histogram": relpath, "n_pulses": int, "label": int,
    "mean_photon": float}, ...]"""
    doc = {"seed": seed, "dark_prob": dark_prob, "runs": runs}
    if n_bins is not None:
        doc["n_bins"] = n_bins
        doc["bin_period_ns"] = bin_period_ns
    _write_json(path, doc)


def _is_count(value) -> bool:
    """A JSON integer >= 1 (not a float, not a boolean)."""
    return type(value) is int and value >= 1


def load_manifest(path) -> dict:
    """The manifest document, with every field ``reconstruct`` reads checked."""
    doc = _load_json(path)
    with _json_fields(path):
        if not doc["runs"]:
            raise ConfigError(f"{path}: manifest has no runs")
        if not all(isinstance(run["histogram"], str) and _is_count(run["n_pulses"])
                   for run in doc["runs"]):
            raise ConfigError(f"{path}: a run lacks a histogram path or n_pulses >= 1")
        if doc.get("n_bins") is not None and not _is_count(doc["n_bins"]):
            raise ConfigError(f"{path}: n_bins must be an integer >= 1")
        if not float(doc.get("bin_period_ns", 156.0)) > 0:
            raise ConfigError(f"{path}: bin_period_ns must be > 0")
    return doc


# -- outcome matrices ---------------------------------------------------------

def save_outcome_matrix(matrix: OutcomeMatrix, path) -> None:
    _write_csv(
        path,
        _outcome_header("n_pulses", matrix.n_outcomes),
        _labelled_lines(matrix.n_pulses, matrix.values),
    )


def load_outcome_matrix(path) -> OutcomeMatrix:
    _, body = _read_csv(path, "n_pulses,outcome_0", "an outcome matrix CSV")
    pulses = body[:, 0]
    if not np.all((np.abs(pulses) < 2.0**63) & (pulses == np.round(pulses))):
        raise DataError(f"{path}: n_pulses must be integers")
    return OutcomeMatrix(np.ascontiguousarray(body[:, 1:]), pulses.astype(np.int64))


# -- POVM sets ----------------------------------------------------------------

def save_povm_csv(povm: POVMSet, path) -> None:
    supported = povm.supported if povm.supported is not None else itertools.repeat(1)
    lines = _labelled_lines(itertools.count(), povm.theta)
    _write_csv(
        path,
        _outcome_header("fock_index", povm.n_outcomes) + ",supported",
        (f"{line},{int(sup)}" for line, sup in zip(lines, supported)),
    )


def save_povm_rows_csv(rows: np.ndarray, first_index: int, path) -> None:
    """One streamed block of POVM rows, numbered from first_index.

    The block format of ``looptomo extrapolate`` over its memory budget:
    the POVM CSV columns without the support flag.
    """
    _write_csv(
        path,
        _outcome_header("fock_index", rows.shape[1]),
        _labelled_lines(itertools.count(first_index), rows),
    )


def load_povm_csv(path) -> POVMSet:
    cells, body = _read_csv(path, "fock_index,outcome_0", "a POVM CSV")
    if cells[-1] != "supported":
        raise ConfigError(f"{path}: last POVM CSV column must be 'supported'")
    flags = body[:, -1]
    if not np.all((flags == 0) | (flags == 1)):
        raise DataError(f"{path}: support flags must be 0 or 1")
    return POVMSet(np.ascontiguousarray(body[:, 1:-1]), flags == 1)


def save_report(report: ReconstructionReport, path) -> None:
    """The report's fields in declaration order, without the objective trace."""
    doc = dataclasses.asdict(report)
    del doc["objective_trace"]
    _write_json(path, doc)


def save_lcurve(sweep: SweepResult, path) -> None:
    """One line per smoothing weight of an epsilon sweep."""
    fmt = ",".join([_FLOAT_FMT] * 4)
    _write_csv(
        path,
        "epsilon,residual,smoothness,objective",
        (fmt % (p.epsilon, p.residual, p.smoothness, p.objective)
         for p in sweep.points),
    )


def _band_header(n_out: int) -> str:
    return "fock_index," + ",".join(f"lo_{n},hi_{n}" for n in range(n_out))


def save_band(band: UncertaintyBand, path) -> None:
    interleaved = np.stack([band.lo, band.hi], axis=2).reshape(len(band.lo), -1)
    _write_csv(
        path,
        _band_header(band.lo.shape[1]),
        _labelled_lines(itertools.count(), interleaved),
    )


def load_band(path) -> tuple[np.ndarray, np.ndarray]:
    """The (lo, hi) arrays of a band CSV, one column per outcome."""
    cells, body = _read_csv(path, "fock_index,lo_0", "a band CSV")
    if ",".join(cells) != _band_header((len(cells) - 1) // 2):
        raise ConfigError(f"{path}: band header must be fock_index, lo_n,hi_n pairs")
    return body[:, 1::2], body[:, 2::2]


def save_plot_series(povm: POVMSet, grid, band, out_dir) -> None:
    """One "i,theta[,lo,hi]" CSV per outcome, at the Fock indices ``grid``;
    ``band`` is the (lo, hi) pair of ``load_band``, or None."""
    header = "i,theta" if band is None else "i,theta,lo,hi"
    for n in range(povm.n_outcomes):
        columns = [povm.theta[grid, n]] + [b[grid, n] for b in band or ()]
        _write_csv(Path(out_dir) / f"outcome_{n:03d}.csv", header,
                   _labelled_lines(grid, np.column_stack(columns)))


# -- fit results and estimates ------------------------------------------------

def save_fit_result(result: FitResult, path) -> None:
    doc = {
        "params": _params_doc(result.params),
        "residual": result.residual,
        "uncertainties": {
            "R": result.uncertainties[0],
            "eta_loop": result.uncertainties[1],
            "eta_det": result.uncertainties[2],
        },
        "converged": result.converged,
        "warnings": list(result.warnings),
        "n_evaluations": result.n_evaluations,
    }
    _write_json(path, doc)


def load_fit_params(path) -> LoopParams:
    """Parameters of a fit result, or a bare parameter document."""
    doc = _load_json(path)
    if isinstance(doc, dict) and "params" in doc:
        doc = doc["params"]
    return _params_from_doc(doc, path)


def save_estimate(estimate, path) -> None:
    _write_json(path, dataclasses.asdict(estimate))
