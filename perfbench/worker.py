"""Workload process: set up, then run whole rounds of ops in a closed loop.

Started by run.py with the environment it pins (one BLAS thread, the
library's sources on PYTHONPATH).  Protocol on stdout, one JSON object per
line: {"ready": ...} once set-up (import plus one untimed warm-up op) is
done, then, in run mode, {"result": ...} when the loop ends.

    python3 perfbench/worker.py --workload double-sweep --seed 1 --seconds 26 \
        --mode run --trace 0 [--tiny] [--time-box] [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _info():
    import mpmath
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_loop(workload, seed, seconds, tiny, tracer, whole_rounds):
    """Closed loop over the workload's ops (see workloads.measured_ops)."""
    import workloads

    execute = (workloads.run_double_op if workload == "double-sweep"
               else workloads.run_extended_op)
    span = tracer.span if tracer else workloads.NULL_SPAN_FACTORY
    return [_run_one(execute, spec, span, tracer)
            for spec in workloads.measured_ops(workload, seed, seconds, tiny,
                                               whole_rounds)]


def _run_one(execute, spec, span, tracer):
    record = {"spec": spec}
    if tracer:
        tracer.op = spec["op"]
    t0 = time.perf_counter()
    try:
        with span("op"):
            outcome = execute(spec, span)
    except Exception as err:       # the op failed; the loop goes on
        record.update(latency_s=time.perf_counter() - t0, raised=repr(err)[:300],
                      checks=[], counts={})
        return record
    record["latency_s"] = time.perf_counter() - t0
    record["checks"] = outcome.checks
    record["counts"] = outcome.counts
    return record


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--time-box", action="store_true",
                    help="stop after --seconds instead of after whole rounds")
    ap.add_argument("--spans", help="write the trace's spans here (JSON lines)")
    ap.add_argument("--scratch", default=".", help="directory for warm-up files")
    args = ap.parse_args(argv)

    import workloads
    workloads.warm_up(args.workload, args.scratch)
    _emit({"ready": _info()})
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(workloads.MEMORY_SPANS)
    ops = run_loop(args.workload, args.seed, args.seconds, args.tiny, tracer,
                   whole_rounds=not args.time_box)
    result = {"ops": ops,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        result["layers"] = tracer.layers()
        if args.spans:
            tracer.write(args.spans)
    _emit({"result": result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
