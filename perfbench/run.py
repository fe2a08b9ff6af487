"""statmean benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload double-sweep --seed 1 --seconds 26 --trace 0

Run from the repository root; the library is imported from src/ there.

Workloads (see workloads.py for the op lists):

* double-sweep    one warm process; each op draws a fresh model from eight
                  rotating families and calls covariance, both BLUE solvers,
                  the OPUC recursion, three competitor variances and the
                  finite-sample efficiency at an order in {256, ..., 4096}.
* extended-decay  one warm process; arc spectra (dd decay fit, dd solve,
                  Lawson minimax), power laws (dd curves) and flat zeros
                  (mpmath covariances, dd curve, decay fit).
* cli-oneshot     a fresh `python -m statmean.cli` process per op over a
                  fixed mix of subcommands with seed-drawn model files.

The loop is closed (one caller; the next op starts when the last ended) and
measures whole rounds of the op list, as many as fit in --seconds.  Every op's
results are checked; an op that raises or fails a check counts as failed,
except checks that reproduce a known defect listed in workloads.KNOWN_DEFECTS,
which are listed separately.  Failed ops are listed on stdout.

--trace 0 prints the end-to-end metrics: setup_s (median of five fresh
interpreters, each importing the library and doing one untimed warm-up op),
ops_per_s, op_p50_ms, op_tail_ms (11th-largest latency, with its percentile
and sample count), peak_rss_mb and, on the summary lines, fail_ratio.
--trace 1 runs the same op list untraced and then traced, for half of
--seconds each, in two fresh processes, and prints per-layer metrics from
spans the benchmark records around its calls into each module, plus the
tracing overhead.

Every child runs with one BLAS thread.  A first, discarded set-up pass warms
the file cache.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Spans, per-op records and machine
facts are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 5
#: generous per-process limits; a run must still end within 180 s
WORKER_TIMEOUT_S = 150.0
CLI_TIMEOUT_S = 60.0

SPAN_LAYERS = (
    "covariance.covariance_sequence.exact",
    "covariance.covariance_sequence.quadrature",
    "covariance.covariance_sequence.dd",
    "toeplitz.blue_solve.double",
    "toeplitz.blue_solve.dd",
    "toeplitz.blue_variance_curve.double",
    "toeplitz.blue_variance_curve.dd",
    "toeplitz.quadratic_form",
    "opuc.szego_recursion",
    "opuc.christoffel_curve",
    "estimators.variance_under.lse",
    "estimators.variance_under.parabolic",
    "estimators.variance_under.adenstedt",
    "efficiency.efficiency_finite",
    "deterministic.decay_rate_from_variances",
    "deterministic.chebyshev_min_max",
)
#: layers with a tracemalloc peak per call (workloads.MEMORY_SPANS)
MEMORY_LAYERS = (
    "covariance.covariance_sequence.exact",
    "covariance.covariance_sequence.quadrature",
    "estimators.variance_under.lse",
    "deterministic.chebyshev_min_max",
)

END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def per_layer_specs():
    """(name, unit, better) of every metric --trace 1 prints."""
    specs = []
    for layer in SPAN_LAYERS:
        specs += [(f"{layer}.calls", "count", "higher"), (f"{layer}.busy_s", "s", "lower"),
                  (f"{layer}.p50_ms", "ms", "lower"), (f"{layer}.fail", "count", "lower")]
    specs += [(f"{layer}.peak_alloc_mb", "MB", "lower") for layer in MEMORY_LAYERS]
    specs += [
        ("covariance.quadrature_share", "1", "lower"),
        ("toeplitz.levinson_flops_computed", "flop", "lower"),
        ("deterministic.decay_rate_from_variances.dd_share", "1", "lower"),
        ("deterministic.decay_rate_from_variances.truncated_share", "1", "lower"),
        ("deterministic.chebyshev_min_max.iterations_mean", "count", "lower"),
        ("deterministic.chebyshev_min_max.converged_share", "1", "higher"),
    ]
    for sub in workloads.CLI_SUBCOMMANDS:
        specs += [(f"cli.{sub}.wall_s", "s", "lower"), (f"cli.{sub}.startup_s", "s", "lower"),
                  (f"cli.{sub}.run_s", "s", "lower"), (f"cli.{sub}.peak_rss_mb", "MB", "lower")]
    specs += [("trace.ops_per_s_untraced", "ops/s", "higher"),
              ("trace.ops_per_s_traced", "ops/s", "higher"),
              ("trace.overhead_share", "1", "lower"),
              ("bench.known_defect_ops", "count", "lower")]
    return specs


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("STATMEAN_THREADS", None)
    return env


class Child:
    """A subprocess with a watchdog that kills it after `timeout` seconds."""

    live: set = set()

    def __init__(self, cmd, timeout, **kw):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), **kw)
        self.timer = threading.Timer(timeout, self.proc.kill)
        self.timer.start()
        Child.live.add(self)

    def wait4(self):
        """Reap the process; (exit code, peak RSS in MB)."""
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.timer.cancel()
        Child.live.discard(self)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, usage.ru_maxrss / 1024.0

    @classmethod
    def stop_all(cls):
        """Kill and reap every child still running (the run was interrupted)."""
        for child in list(cls.live):
            child.proc.kill()
            child.wait4()


def start_worker(workload, mode, seed=0, seconds=0.0, trace=0, tiny=False, time_box=False,
                 spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--mode", mode,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--scratch", str(OUT)]
    if tiny:
        cmd.append("--tiny")
    if time_box:
        cmd.append("--time-box")
    if spans:
        cmd += ["--spans", str(spans)]
    return Child(cmd, WORKER_TIMEOUT_S, stdout=subprocess.PIPE, text=True)


def read_message(child, key):
    line = child.proc.stdout.readline()
    if not line:
        child.wait4()
        raise RuntimeError(f"worker exited with code {child.proc.returncode} before '{key}'")
    return json.loads(line)[key]


def setup_sample(workload):
    """Seconds from spawning a fresh interpreter to its warm-up op being done."""
    child = start_worker(workload, "setup")
    info = read_message(child, "ready")
    elapsed = time.perf_counter() - child.started
    child.proc.stdout.read()
    child.wait4()
    return elapsed, info


def run_worker(workload, seed, seconds, trace, tiny, time_box=False, spans=None):
    child = start_worker(workload, "run", seed, seconds, trace, tiny, time_box, spans)
    info = read_message(child, "ready")
    setup = time.perf_counter() - child.started
    result = read_message(child, "result")
    child.proc.stdout.read()
    code, _ = child.wait4()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return setup, info, result


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------

def _schema():
    return json.loads((ROOT / "src" / "statmean" / "schema.json").read_text())


def run_cli_op(spec, model_dir, validator, manifest_validator, tracer):
    argv = list(spec["argv"])
    if "model" in spec:
        path = model_dir / f"op{spec['op']}.json"
        path.write_text(json.dumps(spec["model"]))
        argv[1:1] = ["--model", str(path)]
    out_path = model_dir / f"op{spec['op']}.out"
    err_path = model_dir / f"op{spec['op']}.err"
    record = {"spec": spec, "counts": {}}
    if tracer:
        tracer.op = spec["op"]
    span = tracer.span(f"cli.{spec['subcommand']}") if tracer else workloads.NULL_SPAN_FACTORY("")
    with open(out_path, "w") as out, open(err_path, "w") as err, span:
        child = Child([sys.executable, "-m", "statmean.cli", *argv], CLI_TIMEOUT_S,
                      stdout=out, stderr=err)
        code, rss = child.wait4()
        wall = time.perf_counter() - child.started
    record.update(latency_s=wall, peak_rss_mb=rss, checks=[])
    checks = record["checks"]
    checks.append(("exit_code", code == 0, f"exit {code}: {err_path.read_text()[-300:]}"))
    if code != 0:
        return record
    text = out_path.read_text()
    try:
        if text.startswith("{"):
            doc = json.loads(text)
            errors = sorted(e.message for e in validator.iter_errors(doc))
            manifest = doc["manifest"]
            result = doc["result"]
        else:
            first, _header, *rows = text.splitlines()
            manifest = json.loads(first[len("# "):])
            errors = sorted(e.message for e in manifest_validator.iter_errors(manifest))
            for row in rows:
                index, value = row.split(",")[:2]
                int(index), float(value)
            result = None
    except (ValueError, KeyError) as err:
        checks.append(("output_parses", False, repr(err)[:200]))
        return record
    checks.append(("schema", not errors, "; ".join(errors)[:300]))
    record["run_s"] = float(manifest["elapsed_seconds"])
    if spec["subcommand"] == "simulate":
        gap = abs(result["estimate"] - result["analytic"])
        checks.append(("monte_carlo_agreement", gap <= 4.5 * result["standard_error"],
                       f"|estimate-analytic| {gap:.3g} vs 4.5 SE {4.5 * result['standard_error']:.3g}"))
    return record


def run_cli_loop(seed, seconds, tiny, tracer, time_box=False):
    import jsonschema

    schema = _schema()
    validator = jsonschema.Draft202012Validator(schema)
    manifest_validator = jsonschema.Draft202012Validator(schema["properties"]["manifest"])
    model_dir = OUT / f"cli-oneshot-{seed}-{'traced' if tracer else 'untraced'}"
    model_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for spec in workloads.measured_ops("cli-oneshot", seed, seconds, tiny,
                                       whole_rounds=not time_box):
        with (tracer.span("op") if tracer else workloads.NULL_SPAN_FACTORY("op")):
            ops.append(run_cli_op(spec, model_dir, validator, manifest_validator, tracer))
    return ops


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def classify_ops(ops):
    """(failed records, known-defect records, checks run)."""
    failed, known, checks_run = [], [], 0
    for rec in ops:
        checks_run += len(rec["checks"])
        if "raised" in rec:
            failed.append((rec, f"raised {rec['raised']}"))
            continue
        spec = rec["spec"]
        bad = [(name, detail) for name, ok, detail in rec["checks"] if not ok]
        unexplained = [(n, d) for n, d in bad if workloads.known_defect(spec, n) is None]
        if unexplained:
            failed.append((rec, "; ".join(f"{n}: {d}" for n, d in unexplained)))
        elif bad:
            defect = workloads.known_defect(spec, bad[0][0])
            known.append((rec, defect, "; ".join(f"{n}: {d}" for n, d in bad)))
    return failed, known, checks_run


def ops_per_s(ops):
    done = [r for r in ops if "raised" not in r]
    busy = sum(r["latency_s"] for r in ops)
    return len(done) / busy if busy > 0 else 0.0


def levinson_flops(spans):
    """Double-precision Levinson flops of the benchmark's toeplitz calls.

    Computed from the order, not counted: about 4n^2 for a solve with the
    all-ones right-hand side, 4.5n^2 with the variance curve, plus 6n^2 for
    the refinement step (dense residual and a general Levinson) at n <= 2048.
    """
    total = 0.0
    for name, n in spans:
        if name == "toeplitz.blue_solve.double":
            total += 4.0 * n * n + (6.0 * n * n if n <= 2048 else 0.0)
        elif name == "toeplitz.blue_variance_curve.double":
            total += 4.5 * n * n
    return total


def layer_metrics(workload, result, untraced_rate, traced_rate, known_count):
    values = {name: 0 if unit == "count" else 0.0 for name, unit, _ in per_layer_specs()}
    layers = result.get("layers", {})
    for layer, stats in layers.items():
        for key in ("calls", "busy_s", "p50_ms", "fail"):
            if f"{layer}.{key}" in values:
                values[f"{layer}.{key}"] = stats[key]
        if f"{layer}.peak_alloc_mb" in values:
            values[f"{layer}.peak_alloc_mb"] = stats["peak_alloc_mb"]
    ops = result["ops"]
    provs = [r["counts"]["provenance"] for r in ops if "provenance" in r.get("counts", {})]
    if provs:
        values["covariance.quadrature_share"] = provs.count("quadrature") / len(provs)
    calls = []
    for r in ops:
        if workload == "double-sweep" and "raised" not in r:
            calls += [("toeplitz.blue_solve.double", r["spec"]["n"]),
                      ("toeplitz.blue_variance_curve.double", r["spec"]["n"])]
    values["toeplitz.levinson_flops_computed"] = levinson_flops(calls)
    decays = [r["counts"] for r in ops if "decay_precision" in r.get("counts", {})]
    if decays:
        values["deterministic.decay_rate_from_variances.dd_share"] = (
            sum(c["decay_precision"] == "dd" for c in decays) / len(decays))
        values["deterministic.decay_rate_from_variances.truncated_share"] = (
            sum(c["decay_truncated"] for c in decays) / len(decays))
    lawson = [r["counts"] for r in ops if "lawson_iterations" in r.get("counts", {})]
    if lawson:
        values["deterministic.chebyshev_min_max.iterations_mean"] = (
            sum(c["lawson_iterations"] for c in lawson) / len(lawson))
        values["deterministic.chebyshev_min_max.converged_share"] = (
            sum(c["lawson_converged"] for c in lawson) / len(lawson))
    if workload == "cli-oneshot":
        for sub in workloads.CLI_SUBCOMMANDS:
            recs = [r for r in ops if r["spec"]["subcommand"] == sub and "run_s" in r]
            if not recs:
                continue
            values[f"cli.{sub}.wall_s"] = tracing.median([r["latency_s"] for r in recs])
            values[f"cli.{sub}.run_s"] = tracing.median([r["run_s"] for r in recs])
            values[f"cli.{sub}.startup_s"] = tracing.median(
                [r["latency_s"] - r["run_s"] for r in recs])
            values[f"cli.{sub}.peak_rss_mb"] = max(r["peak_rss_mb"] for r in recs)
    values["trace.ops_per_s_untraced"] = untraced_rate
    values["trace.ops_per_s_traced"] = traced_rate
    values["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0
    values["bench.known_defect_ops"] = known_count
    return values


def src_line_count():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "statmean").glob("*.py"))


def execute(workload, seed, seconds, trace, tiny):
    """Run one workload; (result, set-up samples, facts)."""
    facts = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
             "tiny": tiny, "src_statmean_lines": src_line_count(),
             "blas_threads_pinned": 1, "loop": "closed, one caller"}
    if not tiny:
        facts["machine"] = setup_sample(workload)[1]     # discarded: warms the file cache
    # the warm workloads' run process gives one set-up sample itself
    wanted = 0 if trace else (1 if tiny else SETUP_SAMPLES)
    own = 1 if wanted and workload != "cli-oneshot" else 0
    setups = []
    for _ in range(wanted - own):
        elapsed, facts["machine"] = setup_sample(workload)
        setups.append(elapsed)
    spans_path = OUT / f"spans-{workload}-{seed}.jsonl"

    # the traced comparison: the same op list untraced, then traced, each for
    # half the time, so a trace run lasts as long as an untraced one
    half = seconds / 2.0
    if workload == "cli-oneshot":
        if trace:
            untraced = run_cli_loop(seed, half, tiny, None, time_box=True)
            tracer = tracing.Tracer()
            ops = run_cli_loop(seed, half, tiny, tracer, time_box=True)
            tracer.write(spans_path)
            result = {"ops": ops, "untraced_ops": untraced}
        else:
            ops = run_cli_loop(seed, seconds, tiny, None)
            result = {"ops": ops, "peak_rss_mb": max(r["peak_rss_mb"] for r in ops)}
    elif trace:
        _, _, untraced = run_worker(workload, seed, half, 0, tiny, time_box=True)
        _, facts["machine"], result = run_worker(workload, seed, half, 1, tiny, time_box=True,
                                                 spans=spans_path)
        result["untraced_ops"] = untraced["ops"]
    else:
        setup, facts["machine"], result = run_worker(workload, seed, seconds, 0, tiny)
        setups.append(setup)
    return result, setups, facts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny orders and one round, for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "statmean" / "__init__.py").is_file():
        sys.stderr.write(f"no statmean sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        result, setups, facts = execute(args.workload, args.seed, args.seconds, args.trace,
                                        args.tiny)
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        sys.stderr.write(f"benchmark failed: {err}\n")
        return 1
    finally:
        Child.stop_all()

    ops = result["ops"]
    failed, known, checks_run = classify_ops(ops)
    print(f"# {json.dumps(facts)}")
    print(f"# ops {len(ops)}, checks run {checks_run}, failed ops {len(failed)}, "
          f"known-defect ops {len(known)}")
    print(f"fail_ratio = {len(failed) / len(ops):.6g} 1")
    for rec, why in failed:
        print(f"FAILED {workloads.describe(rec['spec'])}: {why}")
    for defect in sorted({defect for _, defect, _ in known}):
        print(f"# known defect {defect}: {workloads.KNOWN_DEFECTS[defect]}")
    for rec, defect, why in known:
        print(f"KNOWN-DEFECT [{defect}] {workloads.describe(rec['spec'])}: {why}")

    if args.trace:
        # overhead over the ops both halves completed, so the mix is the same
        common = min(len(ops), len(result["untraced_ops"]))
        metrics = layer_metrics(args.workload, result, ops_per_s(result["untraced_ops"][:common]),
                                ops_per_s(ops[:common]), len(known))
        units = {name: unit for name, unit, _ in per_layer_specs()}
        for layer, moves in workloads.LAYER_MAP.items():
            print(f"# layer {layer} -> {moves}")
    else:
        latencies = [r["latency_s"] for r in ops]
        tail_s, pct, count = tracing.tail(latencies)
        metrics = {"setup_s": tracing.median(setups), "ops_per_s": ops_per_s(ops),
                   "op_p50_ms": 1e3 * tracing.median(latencies), "op_tail_ms": 1e3 * tail_s,
                   "peak_rss_mb": result["peak_rss_mb"]}
        units = dict(END_TO_END)
        print(f"# op_tail_ms is p{pct:.1f} of {count} ops; setup samples {setups}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")

    record = {"facts": facts, "metrics": metrics, "ops": ops,
              "failed": [rec["spec"]["op"] for rec, _ in failed],
              "known_defects": [[rec["spec"]["op"], defect] for rec, defect, _ in known]}
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, default=str))
    print(json.dumps({"correct": not failed and checks_run > 0, "attempted": len(ops),
                      "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
