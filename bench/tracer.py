"""Spans around the public functions of every looptomo module.

A Tracer replaces each traced function by a wrapper at every name the
package's modules look it up under (``model_fit`` imports
``model_povm_rows`` by name, ``ingest`` and ``estimation`` import
``poisson_binomial_pmf``), and puts the originals back on ``uninstall``.
Each call leaves a span (name, start, end, parent, counts); the counts come
from the call's arguments and return value. Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

import numpy as np

_TINY = np.finfo(float).tiny


def _subnormals(args, kwargs, result):
    v = result.values
    return {"subnormal_entries": int(np.count_nonzero((v != 0) & (np.abs(v) < _TINY)))}


def _pulse_bins(args, kwargs, result):
    params, _, n_pulses = args[:3]
    return {"pulse_bins": int(n_pulses) * params.n_bins}


def _rows(args, kwargs, result):
    return {"rows": int(np.shape(args[1])[0])}


def _solve(args, kwargs, result):
    report = result[1]
    return {"iterations": report.iterations, "converged": int(report.converged)}


def _evaluations(args, kwargs, result):
    return {"evaluations": result.n_evaluations}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


#: module -> {function: count extractor or None}
TRACED = {
    "probe_states": {"build_probe_matrix": _subnormals, "poisson_row": None},
    "detector_model": {
        "simulate_bin_clicks": _pulse_bins,
        "model_povm_rows": _rows,
        "poisson_binomial_pmf": None,
    },
    "ingest": {"assemble_outcome_matrix": None, "integrate_histogram": None},
    "tomography": {
        "reconstruct": _solve,
        "project_rows_to_simplex": None,
        "epsilon_sweep": None,
        "uncertainty_band": None,
    },
    "model_fit": {"fit_params": _evaluations, "extrapolate_povm": None},
    "estimation": {"estimate_mean_photon": None},
    "fileio": {
        "save_povm_csv": _file_bytes,
        "save_histogram_csv": None,
        "load_histogram": None,
        "load_povm_csv": None,
    },
}


class Tracer:
    """Span recorder; one per traced round."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.wrapper_s = 0.0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float, counts=None):
        self._stack.pop()
        span = self.spans[idx]
        span[1], span[2], span[4] = start, end, counts

    @contextlib.contextmanager
    def stage(self, name: str):
        """Wrappers installed for one CLI call, inside span 'cli.<name>'."""
        self.install()
        idx = self._open(f"cli.{name}")
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())
            self.uninstall()

    def _wrap(self, name: str, func, count):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            idx = tracer._open(name)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer._close(idx, t0, time.perf_counter())
                raise
            t1 = time.perf_counter()
            counts = count(args, kwargs, result) if count else None
            tracer._close(idx, t0, t1, counts)
            tracer.wrapper_s += (t0 - t_in) + (time.perf_counter() - t1)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "looptomo" or n.startswith("looptomo."))]
        for mod_name, funcs in TRACED.items():
            home = sys.modules[f"looptomo.{mod_name}"]
            for func_name, count in funcs.items():
                original = getattr(home, func_name)
                wrapper = self._wrap(f"{mod_name}.{func_name}", original, count)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- derived figures -------------------------------------------------------

    def caller(self, idx: int, names) -> str | None:
        """Nearest enclosing span whose name is in ``names``."""
        parent = self.spans[idx][3]
        while parent is not None:
            if self.spans[parent][0] in names:
                return self.spans[parent][0]
            parent = self.spans[parent][3]
        return None

    def self_time(self, idx: int) -> float:
        """Duration of span ``idx`` minus the durations of its direct children."""
        name, start, end, _, _ = self.spans[idx]
        children = sum(s[2] - s[1] for s in self.spans if s[3] == idx)
        return (end - start) - children

    def as_records(self, t_origin: float) -> list[dict]:
        return [
            {"name": n, "start_s": s - t_origin, "end_s": e - t_origin,
             "parent": p, **({"counts": c} if c else {})}
            for n, s, e, p, c in self.spans
        ]


STAGES = ("simulate", "reconstruct", "fit", "extrapolate", "estimate")
_ROW_CALLERS = ("fit_params", "extrapolate_povm")

#: Every per-layer metric, in output order, with its unit.
PER_LAYER = [
    ("probe_states.build_probe_matrix.s", "s"),
    ("probe_states.subnormal_entries", "count"),
    ("probe_states.poisson_row.calls", "count"),
    ("probe_states.poisson_row.s", "s"),
    ("detector_model.simulate_bin_clicks.s", "s"),
    ("detector_model.simulate_bin_clicks.pulse_bins_per_s", "1/s"),
    *[(f"detector_model.model_povm_rows.{c}.{m}", u)
      for c in _ROW_CALLERS
      for m, u in (("calls", "count"), ("rows", "count"), ("s", "s"),
                   ("rows_per_s", "1/s"))],
    ("detector_model.poisson_binomial_pmf.calls", "count"),
    ("detector_model.poisson_binomial_pmf.s", "s"),
    ("ingest.assemble_outcome_matrix.s", "s"),
    ("ingest.integrate_histogram.s", "s"),
    ("tomography.reconstruct.calls", "count"),
    ("tomography.reconstruct.s", "s"),
    ("tomography.reconstruct.iterations", "count"),
    ("tomography.reconstruct.s_per_iteration", "s"),
    ("tomography.reconstruct.converged_calls", "count"),
    ("tomography.project_rows_to_simplex.calls", "count"),
    ("tomography.project_rows_to_simplex.s", "s"),
    ("tomography.epsilon_sweep.s", "s"),
    ("tomography.uncertainty_band.s", "s"),
    ("model_fit.fit_params.s", "s"),
    ("model_fit.fit_params.evaluations", "count"),
    ("model_fit.fit_params.s_per_evaluation", "s"),
    ("model_fit.extrapolate_povm.s", "s"),
    ("estimation.estimate_mean_photon.calls", "count"),
    ("estimation.estimate_mean_photon.s", "s"),
    ("fileio.save_povm_csv.s", "s"),
    ("fileio.save_povm_csv.bytes", "B"),
    ("fileio.save_histogram_csv.s", "s"),
    ("fileio.load_histogram.s", "s"),
    ("fileio.load_povm_csv.s", "s"),
    *[(f"cli.{st}.{m}", "s") for st in STAGES for m in ("s", "self_s")],
    ("cli.reconstruct.objective", "1"),
    *[(f"rss_mb.{st}", "MB") for st in STAGES],
    ("trace.spans", "count"),
    ("trace.wrapper_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "1"),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, rss_mb: dict, objective) -> dict[str, float]:
    """Per-layer figures of one traced round.

    ``rss_mb`` maps a stage to the process high-water mark after it;
    ``objective`` is the reconstruction objective the round's report holds.
    Times are inclusive of nested spans, except ``cli.<stage>.self_s``.
    The ``trace.overhead_*`` entries are filled in by the caller.
    """
    agg: dict[str, dict[str, float]] = {}
    row_callers = {f"model_fit.{c}" for c in _ROW_CALLERS}
    for idx, (name, start, end, _, counts) in enumerate(tracer.spans):
        if name == "detector_model.model_povm_rows":
            caller = tracer.caller(idx, row_callers)
            if caller is None:
                continue
            name = f"{name}.{caller.split('.')[1]}"
        if name.startswith("cli."):
            entry = agg.setdefault(name, {"s": 0.0, "self_s": 0.0})
            entry["self_s"] += tracer.self_time(idx)
        else:
            entry = agg.setdefault(name, {"s": 0.0, "calls": 0})
            entry["calls"] += 1
        entry["s"] += end - start
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    out = {}
    for name, _ in PER_LAYER:
        base, _, key = name.rpartition(".")
        if key in ("s", "calls", "self_s", "rows", "evaluations", "iterations",
                   "bytes"):
            out[name] = get(base, key)
    rows = "detector_model.model_povm_rows"
    for c in _ROW_CALLERS:
        out[f"{rows}.{c}.rows_per_s"] = _ratio(get(f"{rows}.{c}", "rows"),
                                                get(f"{rows}.{c}", "s"))
    sim = "detector_model.simulate_bin_clicks"
    out["probe_states.subnormal_entries"] = get(
        "probe_states.build_probe_matrix", "subnormal_entries")
    out[f"{sim}.pulse_bins_per_s"] = _ratio(get(sim, "pulse_bins"), get(sim, "s"))
    rec = "tomography.reconstruct"
    out[f"{rec}.s_per_iteration"] = _ratio(get(rec, "s"), get(rec, "iterations"))
    out[f"{rec}.converged_calls"] = get(rec, "converged")
    fit = "model_fit.fit_params"
    out[f"{fit}.s_per_evaluation"] = _ratio(get(fit, "s"), get(fit, "evaluations"))
    out["cli.reconstruct.objective"] = objective or 0.0
    for st in STAGES:
        out[f"rss_mb.{st}"] = rss_mb.get(st, 0.0)
    out["trace.spans"] = len(tracer.spans)
    out["trace.wrapper_s"] = tracer.wrapper_s
    return out
