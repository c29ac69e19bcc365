"""Write the reference select_rho trajectory that traced runs are compared with.

Runs every graded table and every ``sum-mix`` request once with the tracer
installed and stores each operation's select_rho picks (k, rho to 64 digits,
mode, flagged, complex).  Regenerate it only from a commit whose picks are
the accepted ones::

    python3 perfbench/make_reference.py
"""

import json
import sys

import run


def main():
    run.pin_environment()
    sys.path.insert(0, str(run.SRC))
    import resum.benchmarks
    import workloads
    from tracer import Tracer

    run.WORKDIR.mkdir(exist_ok=True)
    mix = workloads.SumMix(0, run.WORKDIR)
    mix.prepare()
    tracer = Tracer()
    tracer.install()
    try:
        for table_id in run.TABLE_IDS:
            tracer.begin_op(table_id)
            resum.benchmarks.run_benchmark(table_id)
        for request in mix.deck:
            mix.run_op(request, tracer.begin_op)
    finally:
        tracer.restore()
    ops = {key: picks for key, picks in tracer.picks if picks}
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"tolerance": run.RHO_TOLERANCE, "ops": ops}, handle, indent=0,
                  sort_keys=True)
        handle.write("\n")
    flagged = {key: sum(p["flagged"] for p in picks) for key, picks in ops.items()
               if key in workloads.TABLES["odm-trajectory"]}
    print("wrote %d operations, %d picks; flagged per ODM table: %s"
          % (len(ops), sum(len(p) for p in ops.values()), flagged))


if __name__ == "__main__":
    main()
