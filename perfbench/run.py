"""Benchmark runner for resum: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload odm-trajectory --seed 1 --seconds 5 --trace 0

Workloads are described in ``perfbench/workloads.py``.  A run measures set-up
(interpreter start, import of resum with mpmath, numpy and scipy, and input
generation) in separate processes, runs one untimed warm-up operation, then
runs whole passes over the workload's fixed job set until ``--seconds`` have
elapsed (at least one pass), and verifies every output.  ``--trace 1`` runs
the same passes untraced and then traced (see ``perfbench/tracer.py``) and
reports the per-layer numbers instead of the end-to-end ones.

End-to-end times are in reference seconds (``perfbench/clock.py``): wall
time corrected for the host's CPU speed, which is sampled throughout the run.
Per-layer span times are raw wall seconds, including the speed probes that
interrupt them (about 1 % of the run).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output was verified, 1 when any check failed, 2 on a usage or
environment error (for example when ``src/resum`` is not in the checkout).
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference" / "select_rho.json"
SETUP_REPEATS = 3
# Relative tolerance of the select_rho trajectory against the stored reference.
RHO_TOLERANCE = "1e-50"
VERIFY_OP = "verify"
TABLE_IDS = ("saddle-table", "odm-d0-strong", "odm-d0-g5", "odm-oscillator",
             "phi4-fixed-point", "phi4-exponents", "borel-map-exponents")


def pin_environment():
    """One compute thread for BLAS (eig_banded runs in the oscillator oracle),
    and no precision override from the caller's environment."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("RESUM_PRECISION", None)


def environment(seed):
    import mpmath
    import mpmath.libmp
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure_setup(clock, workload, seed):
    """Fresh processes that import resum and build inputs: (start, end) each."""
    stamps = []
    for _ in range(SETUP_REPEATS):
        with clock.around():
            start = time.perf_counter()
            subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                            str(seed), str(WORKDIR)], check=True, cwd=str(ROOT))
            stamps.append((start, time.perf_counter()))
    return stamps


def run_passes(workload, seconds, begin_op=None, passes=None):
    """Closed loop over whole passes: until ``seconds`` elapsed, or ``passes``.

    Returns one list of operations per pass.
    """
    done = []
    start = time.perf_counter()
    while (len(done) < passes) if passes is not None else (
            not done or time.perf_counter() - start < seconds):
        done.append([workload.run_op(item, begin_op)
                     for item in workload.pass_items(len(done))])
    return done


def timed(clock, passes):
    """Set each operation's latency in reference seconds; return pass times,
    each the sum of its operations' latencies."""
    for ops in passes:
        for op in ops:
            op.seconds = clock.seconds(*op.stamp)
    return [sum(op.seconds for op in ops) for ops in passes]


def raw_seconds(ops):
    return sum(op.stamp[1] - op.stamp[0] for op in ops)


def tail_latency(latencies):
    """Latency at the highest percentile with at least 10 samples beyond it.

    Below 11 samples no such percentile exists and the maximum is reported.
    Returns (value, percentile, sample count).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def repeat_share(workload, ops):
    """Share of operations whose input already appeared earlier in the run."""
    seen, repeats = set(), 0
    for op in ops:
        ident = workload.input_key(op.item)
        repeats += ident in seen
        seen.add(ident)
    return repeats / len(ops)


def end_to_end(workload, ops, pass_times, setup_s):
    latencies = workload.latencies(ops)
    tail, percentile, count = tail_latency(latencies)
    digits = [d for op in ops if op.failure is None for d in (op.digits or ())]
    metrics = {
        "wall_s": (statistics.median(pass_times), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "digits_min": (min(digits) if digits else 0.0, "digits"),
    }
    return metrics, {"percentile": percentile, "samples": count}


def load_reference():
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["ops"]


def rho_mismatches(picks, reference):
    """Count select_rho picks that differ from the stored trajectory."""
    from mpmath import mp, mpc, mpf
    mismatches, details = 0, []
    with mp.workdps(80):
        tol = mpf(RHO_TOLERANCE)
        for key, got in picks:
            want = reference.get(key, [])
            if len(want) != len(got):
                mismatches += max(len(got), len(want))
                details.append("%s: %d picks, reference has %d" % (key, len(got), len(want)))
                continue
            for a, b in zip(got, want):
                same = all(a[f] == b[f] for f in ("k", "mode", "flagged", "is_complex"))
                ra = mpc(a["rho"], a["rho_imag"] or 0)
                rb = mpc(b["rho"], b["rho_imag"] or 0)
                if not same or abs(ra - rb) > tol * abs(rb):
                    mismatches += 1
                    details.append("%s k=%d: %s vs reference %s" % (key, a["k"], a, b))
    return mismatches, details


def per_layer(tracer, traced_raw_s, traced_times, untraced_times, mismatches, warmup_s,
              share):
    """Per-layer metrics of the traced passes.

    Spans are in raw seconds, so shares divide by the raw time of the traced
    operations.  Spans of the verification step (the sum-mix oracles) count
    in calls and self time but not in the shares.
    """
    from tracer import BOUNDARIES, TRACED
    from workloads import TABLES
    calls, self_s, total_by_op = tracer.layer_times()
    total_s = defaultdict(float)
    for (name, op), seconds in total_by_op.items():
        if op != VERIFY_OP:
            total_s[name] += seconds
    counts = tracer.counts
    metrics = {}
    for name, _, _ in TRACED:
        metrics[name + ".calls"] = (calls[name], "count")
        metrics[name + ".self_s"] = (self_s[name], "s")
    for name in BOUNDARIES:
        metrics[name + ".total_s"] = (total_s[name], "s")
    for table in TABLE_IDS:
        metrics["benchmarks.run_benchmark.total_s." + table] = (
            total_by_op["benchmarks.run_benchmark", table], "s")
    n_select = calls["odm.select_rho"]
    for field in ("candidates", "flagged", "complex"):
        metrics["odm.select_rho." + field] = (counts["odm.select_rho." + field], "count")
    metrics["odm.select_rho.pass_ratio"] = (
        (n_select - counts["odm.select_rho.flagged"]) / n_select if n_select else 0.0, "1")
    metrics["odm.select_rho.rho_mismatch"] = (mismatches, "count")
    flagged = {}
    for key, picks in tracer.picks:
        flagged[key] = flagged.get(key, 0) + sum(p["flagged"] for p in picks)
    for table in TABLES["odm-trajectory"]:
        metrics["odm.select_rho.flagged." + table] = (flagged.get(table, 0), "count")
    metrics["mpmath.polyroots.degree_sum"] = (counts["mpmath.polyroots.degree_sum"], "count")
    metrics["mpmath.quad.integrand_evals"] = (counts["mpmath.quad.integrand_evals"], "count")
    for name in ("odm.select_rho", "borel.borel_sum", "mpmath.quad"):
        metrics[name + ".share"] = (total_s[name] / traced_raw_s, "1")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_times) / statistics.median(untraced_times), "1")
    metrics["run.warmup_s"] = (warmup_s, "s")
    metrics["run.input_repeat_share"] = (share, "1")
    return metrics


def run(workload_name, seed, seconds, trace):
    """Run one workload; return (result object, report dict)."""
    import workloads
    from clock import SpeedClock
    from tracer import Tracer
    WORKDIR.mkdir(exist_ok=True)
    report = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(seed)}
    workload = workloads.make(workload_name, seed, WORKDIR)
    tracer = Tracer()
    with SpeedClock() as clock:
        setup_stamps = [] if trace else measure_setup(clock, workload_name, seed)
        workload.prepare()
        warmup_key, warmup_stamp = workload.warmup()
        passes = run_passes(workload, seconds)
        if trace:
            tracer.install()
            try:
                traced_passes = run_passes(workload, seconds, tracer.begin_op,
                                           passes=len(passes))
                tracer.begin_op(VERIFY_OP)
                workload.verify([op for ops in traced_passes for op in ops])
            finally:
                tracer.restore()
    setup_runs = [clock.seconds(a, b) for a, b in setup_stamps]
    warmup_s = clock.seconds(*warmup_stamp)
    pass_times = timed(clock, passes)
    ops = [op for pass_ops in passes for op in pass_ops]
    workload.verify(ops)
    failures = [op for op in ops if op.failure]
    share = repeat_share(workload, ops)
    report.update({
        "setup_runs_s": setup_runs,
        "warmup": {"op": warmup_key, "seconds": warmup_s},
        "passes": len(pass_times), "pass_times_s": pass_times,
        "raw_pass_times_s": [raw_seconds(pass_ops) for pass_ops in passes],
        "speed_probes": len(clock.durations),
        "input_repeat_share": share,
        "checks_failed": workload.checks_failed(ops),
        "fail_ratio": {"failed": len(failures), "attempted": len(ops)},
        "failures": [{"op": workload.describe(op.item), "reason": op.failure}
                     for op in failures],
        "known_defects": [{"op": op, "reason": reason}
                          for op, reason in workload.probe_defects()],
    })
    correct = not failures
    attempted, failed = len(ops), len(failures)

    if trace:
        traced_times = timed(clock, traced_passes)
        traced_ops = [op for pass_ops in traced_passes for op in pass_ops]
        differ = [a.key for a, b in zip(ops, traced_ops) if a.output != b.output]
        mismatches, mismatch_details = rho_mismatches(tracer.picks, load_reference())
        spans_path = WORKDIR / ("spans-%s-seed%d.jsonl" % (workload_name, seed))
        tracer.write_spans(spans_path)
        metrics = per_layer(tracer, raw_seconds(traced_ops), traced_times, pass_times,
                            mismatches, warmup_s, share)
        traced_failures = [op.key for op in traced_ops if op.failure]
        report.update({"traced_outputs_differ": differ, "rho_mismatch": mismatch_details[:20],
                       "spans": str(spans_path.relative_to(ROOT)),
                       "traced_pass_times_s": traced_times})
        attempted += len(traced_ops)
        failed += len(traced_failures)
        correct = correct and not differ and not traced_failures and mismatches == 0
    else:
        metrics, tail_info = end_to_end(workload, ops, pass_times,
                                        statistics.median(setup_runs))
        report["op_tail"] = tail_info
    report["correct"] = correct
    report["ops"] = [{"op": op.key, "seconds": op.seconds, "failure": op.failure,
                      "digits": op.digits} for op in ops]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, report


def summarize(result, report, out):
    env = report["environment"]
    print("environment: " + " ".join("%s=%s" % kv for kv in env.items()), file=out)
    print("warm-up %s: %.3f s (untimed)" % (report["warmup"]["op"],
                                           report["warmup"]["seconds"]), file=out)
    failed, attempted = report["fail_ratio"]["failed"], report["fail_ratio"]["attempted"]
    print("passes: %d  input repeat share: %.3f  fail_ratio: %.4f (%d of %d operations)"
          % (report["passes"], report["input_repeat_share"], failed / attempted,
             failed, attempted), file=out)
    if report.get("checks_failed") is not None:
        print("checks_failed: %d" % report["checks_failed"], file=out)
    for failure in report["failures"]:
        print("FAILED %s: %s" % (failure["op"], failure["reason"]), file=out)
    for defect in report["known_defects"]:
        print("known defect, outside the gated draw: %s: %s"
              % (defect["op"], defect["reason"]), file=out)
    for name in report.get("traced_outputs_differ", ()):
        print("traced output differs: %s" % name, file=out)
    for line in report.get("rho_mismatch", ()):
        print("rho mismatch: %s" % line, file=out)
    if "op_tail" in report:
        print("op_tail_s at p%.1f of %d operations" % (report["op_tail"]["percentile"],
                                                      report["op_tail"]["samples"]), file=out)
    for name, metric in result["metrics"].items():
        print("%-52s %14.6g %s" % (name, metric["value"], metric["unit"]), file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "resum" / "__init__.py").is_file():
        print("error: %s/resum not found; run from a resum checkout" % SRC, file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    import resum
    if Path(resum.__file__).resolve().parent != (SRC / "resum").resolve():
        print("error: imported resum from %s, not from the checkout" % resum.__file__,
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (choices: %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = WORKDIR / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"result": result, "report": report}, handle, indent=1, default=str)
    summarize(result, report, sys.stdout)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
