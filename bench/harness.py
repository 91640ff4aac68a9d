"""Rounds of CLI operations: timing, output checks, traced runs.

An operation is one ``looptomo.cli.main(argv)`` call. It fails when the
call raises or returns a code other than 0, or when its artifacts fail the
workload's check; the call's own output is kept and shown only on failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer, layer_metrics


def _rss_mb() -> float:
    """High-water resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Round:
    seconds: dict = field(default_factory=dict)  # stage -> summed call time
    rss_mb: dict = field(default_factory=dict)  # stage -> high-water mark after
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # operations whose artifacts failed a check
    checks_s: float = 0.0
    tracer: Tracer | None = None
    objective: float | None = None

    @property
    def pipeline_s(self) -> float:
        return sum(self.seconds.values())


def run_round(cli_main, workload, out: Path, tracer: Tracer | None) -> Round:
    rnd = Round(tracer=tracer)
    out.mkdir(parents=True)
    workload.objective = None
    for op in workload.operations(out):
        rnd.attempted += 1
        log = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), \
                    (tracer.stage(op.stage) if tracer else contextlib.nullcontext()):
                code = cli_main(op.argv)
        except Exception:  # a traceback is a failed operation, not a crash
            code = None
            log.write(traceback.format_exc())
        rnd.seconds[op.stage] = rnd.seconds.get(op.stage, 0.0) + (
            time.perf_counter() - t0)
        rnd.rss_mb[op.stage] = _rss_mb()
        if code != 0:
            rnd.failed += 1
            print(f"{op.stage}: exit {code}\n{log.getvalue()}", file=sys.stderr)
            continue
        t0 = time.perf_counter()
        try:
            op.check()
        except Exception:  # CheckFailed, or an artifact too broken to read
            rnd.failed += 1
            rnd.wrong += 1
            print(f"{op.stage}: check failed\n{traceback.format_exc()}",
                  file=sys.stderr)
        rnd.checks_s += time.perf_counter() - t0
    rnd.objective = workload.objective
    shutil.rmtree(out, ignore_errors=True)
    return rnd


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    end_to_end: dict
    layer: dict
    record: dict


def run(workload_cls, args, home: Path) -> Result:
    """Write the inputs, then run rounds (with --trace 1, traced + untraced
    pairs) while another one still fits in ``args.seconds``."""
    work = home / ".work" / f"{args.workload}-{os.getpid()}"
    from looptomo.cli import main as cli_main

    rounds: list[Round] = []
    traced: list[Round] = []
    try:
        t0 = time.perf_counter()
        workload = workload_cls(work / "inputs", args.seed)
        inputs_s = time.perf_counter() - t0
        t_start = time.perf_counter()
        while True:
            k = len(rounds)
            if args.trace:  # first, so rss_mb.<stage> is this round's own
                traced.append(
                    run_round(cli_main, workload, work / f"traced{k}", Tracer()))
            rounds.append(run_round(cli_main, workload, work / f"round{k}", None))
            elapsed = time.perf_counter() - t_start
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = rounds + traced
    record = {
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "inputs_s": inputs_s,
        "stage_s": {st: [r.seconds.get(st) for r in rounds]
                    for st in rounds[0].seconds},
        "objective": [r.objective for r in rounds],
        "checks_s": [r.checks_s for r in every],
    }
    layer = {}
    if traced:
        per_round = []
        for plain, tr in zip(rounds, traced):
            m = layer_metrics(tr.tracer, tr.rss_mb, tr.objective)
            m["trace.overhead_s"] = tr.pipeline_s - plain.pipeline_s
            m["trace.overhead_share"] = m["trace.overhead_s"] / plain.pipeline_s
            per_round.append(m)
        layer = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        _write_trace(home, args, traced, t_start, record)
    return Result(
        correct=not any(r.wrong for r in every),
        attempted=sum(r.attempted for r in every),
        failed=sum(r.failed for r in every),
        end_to_end={
            "pipeline_s": statistics.median(r.pipeline_s for r in rounds),
            "peak_rss_mb": _rss_mb(),
        },
        layer=layer,
        record=record,
    )


def _write_trace(home: Path, args, traced, t_origin, record):
    """All spans of the traced rounds, written once at the end of the run."""
    out = home / ".traces" / f"{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed, "record": record,
           "rounds": [r.tracer.as_records(t_origin) for r in traced]}
    out.write_text(json.dumps(doc) + "\n")


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
