"""Benchmark of the looptomo CLI pipeline.

    python3 bench/run.py --workload tomo_paper --seed 1 --seconds 30 --trace 0

Runs the checkout's ``src/looptomo`` in this one process, with no install
step: every operation is one ``looptomo.cli.main(argv)`` call, one stage
after another (closed loop), on inputs generated from ``--seed``. Whole
rounds of the workload's stages are repeated while another round still fits
in ``--seconds``; there is always at least one.

``--trace 0`` times the rounds with nothing wrapped and reports the
end-to-end metrics. ``--trace 1`` runs each round twice, first with spans
around the public functions of every module and then untraced, and reports
the per-layer metrics, including the tracing overhead as the difference of
the two. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, versions, BLAS threads, seed and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Every end-to-end metric, with its unit.
END_TO_END = [("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB")]


def _process_age_s() -> float:
    """Seconds since this process started (clock-tick resolution)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    blas_threads = len(os.sched_getaffinity(0))
    for var in _BLAS_VARS:
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(SRC))
    try:
        import looptomo
        import looptomo.cli
    except ImportError as exc:
        print(f"cannot import looptomo from {SRC}: {exc}", file=sys.stderr)
        return 2
    setup_s = _process_age_s()
    if Path(looptomo.__file__).resolve().parent != SRC / "looptomo":
        print(f"looptomo came from {looptomo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness
    from tracer import PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = harness.run(WORKLOADS[args.workload], args, HERE)
    record = {
        **harness.machine_record(),
        "blas_threads": blas_threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result.record,
    }
    if args.trace:
        metrics = result.layer
        units = dict(PER_LAYER)
    else:
        metrics = {"setup_s": setup_s, **result.end_to_end}
        units = dict(END_TO_END)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
