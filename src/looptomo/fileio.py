"""Readers and writers for the on-disk artifact formats.

All floats are serialized with round-trip precision (%.17g in CSV), so
identical inputs produce byte-identical files. Numeric CSV tables are
formatted a block of rows at a time by a numpy kernel that gives exactly the
bytes of "%.17g" % x, handing the values it cannot prove to Python's
formatting; histogram counts are written in blocks of lines. No artifact is
held in memory as one string.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from pathlib import Path

import numpy as np

from .detector_model import LoopParams, POVMSet
from .errors import ConfigError, DataError
from .ingest import BinningConfig, TimeTagHistogram
from .model_fit import FitResult
from .probe_states import ProbeEnsemble
from .tomography import ReconstructionReport, SweepResult, UncertaintyBand

_FLOAT_FMT = "%.17g"
# lines per histogram write; a float CSV block holds 2x this many fields
_BLOCK_LINES = 4096
# zero runs at least this long are written as repeated "0\n"; a shorter run
# costs fewer Python steps formatted along with its neighbours
_MIN_ZERO_RUN = 32

# -- block formatter ----------------------------------------------------------
#
# A CSV block is built as 32 bytes per field, four little-endian uint64 words:
# a head (sign, then "0."-"0.000" and the first digit, or the first digit and
# "."), 16 digits, and a tail (exponent; the separator in the top byte). Unused
# bytes are NUL and squeezed out of the finished block.
#
# A float x with 1e-280 <= |x| < 1 gets the bytes of "%.17g" % x. Its digits
# are N = round(|x| 10^p) with p = 16 - floor(log10 |x|), so that
# 10^16 <= N < 10^17. |x| 10^p is formed as a double plus an error term:
# Dekker's exact TwoProduct of |x| with 10^p rounded to a double, plus |x|
# times the rest of 10^p. Its error is below 1e-13, so N is exact unless the
# fraction is within _TIE_MARGIN of one half, where %.17g rounds an exact tie
# to even. Those values, the values outside the range, non-finite values and
# integers of 17 digits or more go through Python's formatting.

_U8 = np.dtype("<u8")
_TIE_MARGIN = 1e-6
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split into two 26-bit halves


def _pow10_table(n: int) -> tuple[np.ndarray, ...]:
    """10^p for p < n: the nearest double, its Dekker halves, and the rest."""
    exact = [10**p for p in range(n)]
    hi = np.array([float(e) for e in exact])
    rest = np.array([float(e - int(h)) for e, h in zip(exact, hi.tolist())])
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    return hi, hi_h, hi - hi_h, rest


def _digit_table() -> np.ndarray:
    """ASCII words of 0000..9999 in three runs of 10^4: all four digits,
    trailing zeros as NUL, leading zeros as NUL."""
    g = np.arange(10_000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    trailing = np.cumprod(digits[:, ::-1] == 0, axis=1)[:, ::-1] == 1
    leading = np.cumprod(digits == 0, axis=1) == 1
    chars = (digits + ord("0")).astype(np.uint8)
    runs = [chars, np.where(trailing, 0, chars), np.where(leading, 0, chars)]
    return np.concatenate(runs).view("<u4").ravel()


def _words(texts, justify) -> np.ndarray:
    return np.frombuffer(b"".join(justify(t.encode(), 8, b"\0") for t in texts), _U8)


_POW_HI, _POW_HI_H, _POW_HI_L, _POW_REST = _pow10_table(300)
_DIGITS = _digit_table()
_TRAILING, _LEADING = 10_000, 20_000  # offsets of the stripped runs
# head of a float at 70 * sign + 7 * first digit + form; forms 0-3 are fixed
# notation with 0-3 zeros after "0.", 4 and 5 scientific with and without a
# fraction, 6 a zero
_FLOAT_HEADS = _words(
    [head for sign in ("", "-") for d in "0123456789"
     for head in [sign + "0." + "0" * z + d for z in range(4)]
     + [sign + d + ".", sign + d, sign + "0"]],
    bytes.rjust,
)
_INT_HEADS = _words(["", "-", "0"], bytes.rjust)  # by (v < 0) + 2 * (v == 0)
_EXPONENTS = _words([f"e-{e:02d}" if e else "" for e in range(300)], bytes.ljust)
_COMMA, _NEWLINE = (np.uint64(ord(c) << 56) for c in ",\n")


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part and fraction of a 10^(16 - k)."""
    p = 16 - k
    hi, hi_h, hi_l = _POW_HI[p], _POW_HI_H[p], _POW_HI_L[p]
    c = _SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    prod = a * hi
    err = ((a_h * hi_h - prod) + a_h * hi_l + a_l * hi_h) + a_l * hi_l
    rest = err + a * _POW_REST[p]
    whole = np.floor(rest)
    return prod.astype(np.int64) + whole.astype(np.int64), rest - whole


def _digit_words(value: np.ndarray, out: np.ndarray, strip: int) -> None:
    """The 16 digits of value < 10^16 as four ASCII words into out[..., 2:6];
    ``strip`` NULs the trailing (_TRAILING) or leading (_LEADING) zeros."""
    hi8, lo8 = np.divmod(value, 10**8)
    g1, g2 = np.divmod(hi8, 10**4)
    g3, g4 = np.divmod(lo8, 10**4)
    words = out.view("<u4")
    if strip == _TRAILING:
        words[..., 2] = _DIGITS[g1 + _TRAILING * ((g2 == 0) & (lo8 == 0))]
        words[..., 3] = _DIGITS[g2 + _TRAILING * (lo8 == 0)]
        words[..., 4] = _DIGITS[g3 + _TRAILING * (g4 == 0)]
        words[..., 5] = _DIGITS[g4 + _TRAILING]
    else:
        words[..., 2] = _DIGITS[g1 + _LEADING]
        words[..., 3] = _DIGITS[g2 + _LEADING * (g1 == 0)]
        words[..., 4] = _DIGITS[g3 + _LEADING * (hi8 == 0)]
        words[..., 5] = _DIGITS[g4 + _LEADING * ((hi8 == 0) & (g3 == 0))]


def _python_fields(values: np.ndarray, mask: np.ndarray, fmt: bytes, out) -> None:
    """The fields of the values under mask, formatted by Python as ``fmt % v``."""
    if mask.any():
        text = b"".join((fmt % v).ljust(32, b"\0") for v in values[mask].tolist())
        out[mask] = np.frombuffer(text, _U8).reshape(-1, 4)


def _float_fields(x: np.ndarray, out: np.ndarray) -> None:
    """The %.17g fields of float64 x into out, of shape x.shape + (4,)."""
    a = np.abs(x)
    in_range = (a >= 1e-280) & (a < 1.0)
    a = np.where(in_range, a, 0.5)  # zeros and the rest are written below
    k = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, k)
    off = (whole < 10**16) | (whole >= 10**17)  # floor(log10 a) was one off
    if off.any():
        k[off] += np.where(whole[off] < 10**16, -1, 1)
        whole[off], frac[off] = _scaled(a[off], k[off])
    n = whole + (frac > 0.5)
    top = n == 10**17  # rounded up to the next decade
    k += top
    first, rest = np.divmod(np.where(top, 10**16, n), 10**16)
    fixed = k >= -4
    form = np.where(fixed, -1 - k, 5 - (rest != 0))
    form[x == 0] = 6
    out[..., 0] = _FLOAT_HEADS[70 * np.signbit(x) + 7 * first + form]
    _digit_words(rest, out, _TRAILING)
    out[..., 3] = _EXPONENTS[np.where(fixed, 0, -k)]
    tie = np.abs(frac - 0.5) < _TIE_MARGIN
    _python_fields(x, ~in_range & (x != 0) | tie, _FLOAT_FMT.encode(), out)


def _int_fields(v: np.ndarray, out: np.ndarray) -> None:
    """The %d fields of integer array v into out, of shape v.shape + (4,)."""
    v = v.astype(np.int64)
    m = np.abs(v)
    in_range = (m >= 0) & (m < 10**16)  # abs of the int64 minimum is negative
    m = np.where(in_range, m, 0)
    out[..., 0] = _INT_HEADS[(v < 0) + 2 * (v == 0)]
    _digit_words(m, out, _LEADING)
    out[..., 3] = 0
    _python_fields(v, ~in_range, b"%d", out)


def _csv_block(columns) -> bytes:
    """The CSV lines of 2-D columns with equal row counts: an integer or bool
    column gives "%d" fields, a float column "%.17g" fields."""
    rows = len(columns[0])
    fields = np.empty((rows, sum(col.shape[1] for col in columns), 4), _U8)
    start = 0
    for col in columns:
        out = fields[:, start:start + col.shape[1]]
        if col.dtype.kind == "f":
            _float_fields(col.astype(np.float64, copy=False), out)
        else:
            _int_fields(col, out)
        start += col.shape[1]
    fields[:, :-1, 3] |= _COMMA
    fields[:, -1, 3] |= _NEWLINE
    text = fields.view(np.uint8).ravel()
    return text[text != 0].tobytes()


def _write_csv(path, header: str, *columns) -> None:
    """Write the header line, then one line per row of ``columns`` (1-D
    columns give one field), in blocks of about 2 * _BLOCK_LINES fields."""
    columns = [np.asarray(col) for col in columns]
    columns = [col if col.ndim == 2 else col[:, None] for col in columns]
    step = max(1, 2 * _BLOCK_LINES // sum(col.shape[1] for col in columns))
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(columns[0]), step):
            fh.write(_csv_block([col[start:start + step] for col in columns]))


def _povm_header(n_out: int) -> str:
    return "fock_index," + ",".join(f"outcome_{n}" for n in range(n_out)) + ",supported"


def _read_csv(path, header_prefix: str, what: str) -> tuple[list[str], np.ndarray]:
    """Header cells and float body of a CSV artifact indexed by Fock row, the
    body without its leading ``fock_index`` column.

    A header not starting with ``header_prefix`` is a ConfigError. An empty
    body, an unparsable cell, a ragged row, a body whose width differs from
    the header's or a ``fock_index`` column other than 0, 1, ..., M is a
    DataError. Blank lines are skipped.
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
    if not np.array_equal(body[:, 0], np.arange(len(body))):
        raise DataError(f"{path}: fock_index must run 0, 1, ..., {len(body) - 1}")
    return cells, body[:, 1:]


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
    """Read JSON document fields and build their objects: a missing or
    mistyped field, or a value its object refuses, is a ConfigError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: missing or malformed field: {exc}") from exc


_JSON_KINDS = {float: "number", int: "integer", str: "string"}


def _typed(doc, key: str, path, kind=float):
    """``doc[key]`` as ``kind``: a JSON number for float, a JSON integer for
    int, a JSON string for str. A boolean, a string where a number is wanted
    or a float where an integer is wanted is a ConfigError; ranges are left
    to the object the field builds."""
    value = doc[key]
    if type(value) is kind or (kind is float and type(value) is int):
        return kind(value)
    raise ConfigError(f"{path}: {key} must be a JSON {_JSON_KINDS[kind]}, "
                      f"got {value!r}")


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
            reflectivity=_typed(doc, "R", path),
            loop_efficiency=_typed(doc, "eta_loop", path),
            det_efficiency=_typed(doc, "eta_det", path),
            n_bins=_typed(doc, "n_bins", path, int),
            bin_period_ns=_typed(doc, "bin_period_ns", path),
        )


def save_params(params: LoopParams, path) -> None:
    _write_json(path, _params_doc(params))


def load_params(path) -> LoopParams:
    return _params_from_doc(_load_json(path), path)


# -- probe ensembles ----------------------------------------------------------

def save_ensemble(ensemble: ProbeEnsemble, path) -> None:
    doc = {
        "probes": [
            {"label": k, "mean_photon": mean}
            for k, mean in enumerate(ensemble.means.tolist())
        ],
        "truncation_dim": ensemble.truncation_dim,
    }
    _write_json(path, doc)


def load_ensemble(path) -> ProbeEnsemble:
    """The ensemble a save_ensemble document describes: each ``mean_photon``
    a JSON number and ``truncation_dim``, which may be left out, a JSON
    integer. Other keys (``label``) are ignored."""
    doc = _load_json(path)
    with _json_fields(path):
        means = [_typed(p, "mean_photon", path) for p in doc["probes"]]
        truncation_dim = (_typed(doc, "truncation_dim", path, int)
                          if "truncation_dim" in doc else None)
        return ProbeEnsemble.from_means(means, truncation_dim)


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


def load_histogram(path) -> TimeTagHistogram:
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


# -- run manifests ------------------------------------------------------------

def save_manifest(
    runs: list[dict],
    path,
    seed: int,
    dark_prob: float,
    n_bins: int,
    bin_period_ns: float,
) -> None:
    """runs: [{"histogram": relpath, "n_pulses": int, "label": int,
    "mean_photon": float}, ...]"""
    _write_json(path, {"seed": seed, "dark_prob": dark_prob, "runs": runs,
                       "n_bins": n_bins, "bin_period_ns": bin_period_ns})


def load_manifest(path) -> tuple[list[tuple[str, int, float]], BinningConfig]:
    """The manifest's runs as (histogram, n_pulses, mean_photon) and the
    window layout its ``n_bins`` and ``bin_period_ns`` place. Keys that
    ``reconstruct`` does not read (``seed``, ``dark_prob``, ``label``) are
    ignored."""
    doc = _load_json(path)
    with _json_fields(path):
        runs = [(_typed(run, "histogram", path, str),
                 _typed(run, "n_pulses", path, int),
                 _typed(run, "mean_photon", path)) for run in doc["runs"]]
        if not runs:
            raise ConfigError(f"{path}: manifest has no runs")
        return runs, BinningConfig(
            n_detector_bins=_typed(doc, "n_bins", path, int),
            bin_period_ns=_typed(doc, "bin_period_ns", path),
        )


# -- POVM sets ----------------------------------------------------------------

def save_povm_csv(povm: POVMSet, path) -> None:
    _write_csv(path, _povm_header(povm.n_outcomes),
               np.arange(len(povm.theta)), povm.theta, povm.supported)


def load_povm_csv(path) -> POVMSet:
    cells, body = _read_csv(path, "fock_index,outcome_0", "a POVM CSV")
    if cells[-1] != "supported":
        raise ConfigError(f"{path}: last POVM CSV column must be 'supported'")
    flags = body[:, -1]
    if not np.all((flags == 0) | (flags == 1)):
        raise DataError(f"{path}: support flags must be 0 or 1")
    return POVMSet(np.ascontiguousarray(body[:, :-1]), flags == 1)


def save_report(report: ReconstructionReport, path) -> None:
    """The report's fields in declaration order, without the objective trace."""
    doc = dataclasses.asdict(report)
    del doc["objective_trace"]
    _write_json(path, doc)


def save_lcurve(sweep: SweepResult, path) -> None:
    """One line per smoothing weight of an epsilon sweep."""
    values = [(p.epsilon, p.residual, p.smoothness, p.objective) for p in sweep.points]
    _write_csv(path, "epsilon,residual,smoothness,objective",
               np.array(values, dtype=float).reshape(-1, 4))


def _band_header(n_out: int) -> str:
    return "fock_index," + ",".join(f"lo_{n},hi_{n}" for n in range(n_out))


def save_band(band: UncertaintyBand, path) -> None:
    interleaved = np.stack([band.lo, band.hi], axis=2).reshape(len(band.lo), -1)
    _write_csv(path, _band_header(band.lo.shape[1]),
               np.arange(len(interleaved)), interleaved)


def load_band(path) -> tuple[np.ndarray, np.ndarray]:
    """The (lo, hi) arrays of a band CSV, one column per outcome."""
    cells, body = _read_csv(path, "fock_index,lo_0", "a band CSV")
    if ",".join(cells) != _band_header((len(cells) - 1) // 2):
        raise ConfigError(f"{path}: band header must be fock_index, lo_n,hi_n pairs")
    return body[:, 0::2], body[:, 1::2]


def save_plot_series(povm: POVMSet, grid, band, out_dir) -> None:
    """One "i,theta[,lo,hi]" CSV per outcome, at the Fock indices ``grid``;
    ``band`` is the (lo, hi) pair of ``load_band``, or None."""
    header = "i,theta" if band is None else "i,theta,lo,hi"
    for n in range(povm.n_outcomes):
        columns = [povm.theta[grid, n]] + [b[grid, n] for b in band or ()]
        _write_csv(Path(out_dir) / f"outcome_{n:03d}.csv", header,
                   grid, np.column_stack(columns))


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
    """The parameters of a fit result document. A fit never learns the
    window layout, so a document without ``bin_period_ns`` gets the
    ``LoopParams`` default that ``fit`` writes."""
    with _json_fields(path):
        params = {"bin_period_ns": LoopParams.bin_period_ns,
                  **_load_json(path)["params"]}
    return _params_from_doc(params, path)


def save_estimate(estimate, path) -> None:
    _write_json(path, dataclasses.asdict(estimate))
