"""Alternating before/after runs of the benchmark, summarised into one JSON.

Usage, from anywhere::

    python3 tools/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \\
        --pairs 10 --first-seed 1701 --out BENCH_17.json --description TEXT

Each tree is a checkout (for example ``git archive`` of one commit).  For
every workload of ``BENCHMARK.json`` the script runs ``--pairs`` pairs of
``python3 perfbench/run.py --workload W --seed S --seconds 5 --trace 0``, one
on each tree with the same seed.  Even pairs run the parent first, odd pairs
the change.  Workload ``i`` (in ``BENCHMARK.json`` order) takes the seeds
``first_seed + 100 i + p`` for pair ``p``; pick a ``--first-seed`` no earlier
run used.  With ``--traced`` it then runs ``--trace 1 --seed 1`` once per side
for each named workload.  The output holds every pair, the median and the
inclusive quartiles of each end-to-end metric per side, ``change_wins``:
the pairs where the change is better, ties counting for neither, and
``within_bound``: whether the change's median is worse than the parent's by
at most the metric's ``BENCHMARK.json`` ``bound``, relative to the parent
median, and ``gain_shown``: whether the change wins at least nine tenths of
the pairs and its median differs from the parent's by more than the parent's
interquartile range ``q3 - q1``.  Each run of a pair also records, from the
report file the run left, its ``passes`` and its ``op_tail`` (the percentile
``op_tail_s`` was read at, and over how many latencies): perfbench reads
the tail at the highest percentile with ten latencies beyond it, or at the
maximum below eleven, so one pass more or fewer can move ``op_tail_s`` by
a switch of percentile alone.  Before the first pair it deletes every
``__pycache__`` directory under both trees, so neither side starts with
bytecode the other lacks (it changes ``setup_s``), and records how many it
deleted per side.

After the pairs it times, per side, the traced run of perfbench's own self-test
(``perfbench/tests/test_harness.py``): ``run.run("sum-mix", 3, 0, trace=True)``
on that test's ``TINY`` deck, ``SELF_TEST_RUNS`` times after one untraced
warm-up, each in wall seconds.  ``self_test_traced_run_s`` holds their min and
median, and what any run raised: a run shorter than the speed clock's first
0.1 s sample fails that self-test.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 5
SIDES = ("parent", "change")
SELF_TEST_RUNS = 8
# Run in a tree's root: the self-test's traced run on the self-test's own deck.
SELF_TEST_SCRIPT = """
import json, sys, time
sys.path.insert(0, "perfbench/tests")
import test_harness
test_harness.workloads.DECK = test_harness.TINY
test_harness.run.run("sum-mix", 3, 0, trace=False)
seconds, raised = [], []
for _ in range(%d):
    start = time.perf_counter()
    try:
        test_harness.run.run("sum-mix", 3, 0, trace=True)
    except Exception as exc:
        raised.append(repr(exc))
    seconds.append(time.perf_counter() - start)
print(json.dumps({"seconds": seconds, "raised": raised}))
""" % SELF_TEST_RUNS


def run_once(tree, workload, seed, trace):
    """One benchmark run in ``tree``: its result object (last stdout line).

    A run that exits nonzero or reports ``correct: false`` (its outputs
    failed the benchmark's own check) stops the script: it is no timing."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if result.get("correct") is not True:
        sys.exit("run failed in %s (%s, seed %d, exit %d):\n%s"
                 % (tree, workload, seed, proc.returncode, proc.stderr))
    return result


def clear_bytecode(tree):
    """Delete every ``__pycache__`` directory under ``tree``; their number."""
    caches = [path for path in Path(tree).rglob("__pycache__") if path.is_dir()]
    for path in caches:
        shutil.rmtree(path)
    return len(caches)


def summary(pairs, metrics):
    """Median, inclusive quartiles and wins of each end-to-end metric,
    ``within_bound``: whether the change's median is worse than the parent's
    by no more than the metric's ``bound``, relative to the parent median, and
    ``gain_shown``: whether the change wins at least 9/10 of the pairs (ties
    count for neither) and the medians differ by more than the parent's
    ``q3 - q1``."""
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        wins = ties = 0
        for a, b in zip(values["parent"], values["change"]):
            ties += a == b
            wins += (b < a) if lower else (b > a)
        quartiles = {side: statistics.quantiles(values[side], n=4, method="inclusive")
                     for side in SIDES}
        stats = {side: {"median": round(q[1], 4), "q1": round(q[0], 4), "q3": round(q[2], 4)}
                 for side, q in quartiles.items()}
        (q1, parent, q3), change = quartiles["parent"], quartiles["change"][1]
        worse = change - parent if lower else parent - change
        out[name] = dict(stats, change_wins=wins, ties=ties, pairs=len(pairs),
                         change_over_parent_median=round(
                             stats["change"]["median"] / stats["parent"]["median"], 4),
                         within_bound=worse <= spec["bound"] * abs(parent),
                         gain_shown=10 * wins >= 9 * len(pairs)
                         and abs(change - parent) > q3 - q1)
    return out


def self_test_runs(tree):
    """``{"seconds": [...], "raised": [...]}``: the wall seconds of each traced
    self-test run in ``tree``, and the exceptions the runs raised (a run that
    raises is timed too).  A failed warm-up stops the script."""
    proc = subprocess.run([sys.executable, "-c", SELF_TEST_SCRIPT], cwd=tree,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("self-test warm-up failed in %s (exit %d):\n%s"
                 % (tree, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def span_summary(runs):
    """Min and median of the self-test's traced run times, every run, and
    what the runs raised."""
    seconds = runs["seconds"]
    return {"min": round(min(seconds), 4), "median": round(statistics.median(seconds), 4),
            "runs": [round(s, 4) for s in seconds], "raised": runs["raised"]}


def run_report(tree, workload, seed, trace):
    """The ``report`` of the result file a run in ``tree`` left."""
    path = Path(tree, ".perfbench_work", "result-%s-seed%d-trace%d.json"
                % (workload, seed, trace))
    return json.loads(path.read_text(encoding="utf-8"))["report"]


def pass_facts(tree, workload, seed):
    """``passes`` and ``op_tail`` of the untraced run in ``tree``."""
    report = run_report(tree, workload, seed, 0)
    return {"passes": report["passes"], "op_tail": report["op_tail"]}


def per_pass(tree, workload, result):
    """Traced counts and times divided by the passes the traced run made."""
    passes = run_report(tree, workload, 1, 1)["passes"]
    return passes, {name: round(m["value"] / passes, 4)
                    for name, m in result["metrics"].items()
                    if m["unit"] != "1" and name != "run.warmup_s"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--traced", nargs="*", default=[], metavar="WORKLOAD")
    parser.add_argument("--out", required=True)
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    bench = json.loads(Path(trees["change"], "BENCHMARK.json").read_text(encoding="utf-8"))
    import mpmath
    import mpmath.libmp
    out = {
        "description": args.description,
        "command": "python3 perfbench/run.py --workload <w> --seed <s> --seconds %d "
                   "--trace <0|1>" % SECONDS,
        "units": "times in reference seconds (perfbench/clock.py); peak_rss_mb in MB; "
                 "digits_min in digits",
        "environment": {"python": platform.python_version(), "mpmath": mpmath.__version__,
                        "mpmath_backend": mpmath.libmp.BACKEND,
                        "nproc": len(os.sched_getaffinity(0)),
                        "host": "%s, %s" % (platform.machine(), platform.system())},
        "order": "pairs alternate which side runs first: even pair index parent first, "
                 "odd change first; the workloads ran one after another in "
                 "BENCHMARK.json order",
        "seeds_note": "workload i of BENCHMARK.json takes seeds %d + 100 i + pair; "
                      "traced runs use seed 1" % args.first_seed,
        "summary_note": "median and inclusive quartiles over the pairs; change_wins "
                        "counts pairs where the change is better, ties counting for neither; "
                        "within_bound: the change's median is worse than the parent's by at "
                        "most the metric's BENCHMARK.json bound, relative to the parent median; "
                        "gain_shown: the change wins at least 9/10 of the pairs and the medians "
                        "differ by more than the parent's q3 - q1; each run of a pair "
                        "records its passes and the percentile op_tail_s was read at",
        "workloads": {},
    }
    out["bytecode_cleared"] = {side: clear_bytecode(trees[side]) for side in SIDES}
    print("deleted __pycache__ directories before the first pair: %s" % ", ".join(
        "%s %d" % item for item in out["bytecode_cleared"].items()), file=sys.stderr)
    if args.traced:
        out["traced"] = ("traced_seed_1 holds one --trace 1 run per side (seed 1); span times "
                         "are raw wall seconds, counts totals over the passes each run made (a "
                         "faster side runs more passes). traced_passes gives the pass count of "
                         "each side, and traced_per_pass the counts and times divided by it.")
    for i, workload in enumerate(w["name"] for w in bench["workloads"]):
        seeds = [args.first_seed + 100 * i + p for p in range(args.pairs)]
        pairs = []
        for p, seed in enumerate(seeds):
            order = SIDES if p % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, 0)
                pair[side].update(pass_facts(trees[side], workload, seed))
                print("%s seed %d %s wall_s %.4f" % (workload, seed, side,
                      pair[side]["metrics"]["wall_s"]["value"]), file=sys.stderr)
            pairs.append(pair)
        entry = {"seeds": seeds, "pairs": pairs,
                 "summary": summary(pairs, bench["end_to_end"])}
        if workload in args.traced:
            entry["traced_seed_1"], entry["traced_passes"], entry["traced_per_pass"] = {}, {}, {}
            for side in SIDES:
                result = run_once(trees[side], workload, 1, 1)
                entry["traced_seed_1"][side] = result
                entry["traced_passes"][side], entry["traced_per_pass"][side] = per_pass(
                    trees[side], workload, result)
        out["workloads"][workload] = entry
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    out["self_test_traced_run_s"] = {side: span_summary(self_test_runs(trees[side]))
                                     for side in SIDES}
    print("self-test traced run: %s" % out["self_test_traced_run_s"], file=sys.stderr)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
