"""Check that two trees give the same program outputs, byte for byte.

Usage, from anywhere::

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout (for example ``git archive`` of one commit).  In
each, one subprocess dumps as JSON:

- every table of ``resum.benchmarks.run_benchmark`` at its own digits: its
  rows, checks and config;
- every ``resum.odm.select_rho`` pick those tables make, in call order: the
  order, mode and flag, and the ``repr`` of rho and of each candidate
  triple, or the ``repr`` of what the call raised;
- the exit code, stdout and stderr of every ``resum sum`` request of
  ``perfbench/workloads.DECK``, run as the benchmark runs them;
- the ``--out`` JSON report of each of those requests, run a second time
  with ``--out`` into the temporary directory: without its ``wall_time_s``,
  and with the temporary directory written ``<tmp>``, as in stdout (None
  where the request wrote no report, ``{"raised": ...}`` where it raised).

The script prints how much each dump holds, the first differences, how
many differences fall in each section, how many picks differ and the
largest relative difference of rho among them, and exits 1 on any
difference, else 0.
"""

import json
import re
import subprocess
import sys

from mpmath import mp, mpc, mpf

SHOWN = 20  # differences printed
# Run in a tree's root: prints the dump as one JSON line.
DUMP_SCRIPT = """
import contextlib, dataclasses, io, json, sys, tempfile
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import resum.benchmarks, resum.odm, workloads

picks, select = [], resum.odm.select_rho

def recording(*args, **kwargs):
    try:
        rep = select(*args, **kwargs)
    except Exception as exc:
        picks.append(["raised", repr(exc)])
        raise
    picks.append([rep.k, rep.mode.value, rep.flagged, repr(rep.rho),
                  [[repr(v) for v in c] for c in rep.candidates]])
    return rep

resum.odm.select_rho = recording
dump = {"tables": {}, "picks": {}, "sum_mix": {}, "out_reports": {}}
for table_id in resum.benchmarks.TABLE_IDS:
    picks.clear()
    result = resum.benchmarks.run_benchmark(table_id)
    dump["tables"][table_id] = {"rows": result.rows, "config": result.config,
                                "checks": [dataclasses.astuple(c) for c in result.checks]}
    dump["picks"][table_id] = list(picks)
with tempfile.TemporaryDirectory() as tmp:
    mix = workloads.SumMix(0, Path(tmp))
    mix.prepare()
    for i, request in enumerate(workloads.DECK):
        op = mix.run_op(request)
        dump["sum_mix"][request.key] = [
            part.replace(tmp, "<tmp>") if isinstance(part, str) else part
            for part in (op.output if op.failure is None else (op.failure,))]
        out = Path(tmp, "report-%d.json" % i)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                resum.cli.main(mix.argv(request) + ["--out", str(out)], stdout=io.StringIO())
            report = out.read_text() if out.exists() else None
        except Exception as exc:  # recorded, as the run above records it
            report = json.dumps({"raised": repr(exc)})
        dump["out_reports"][request.key] = report
    dump["tmp"] = tmp
print(json.dumps(dump, default=repr))
"""


def normalized_report(text, tmp):
    """The ``--out`` report ``text`` as data, without the run's
    ``wall_time_s`` and with the temporary directory ``tmp`` written
    ``<tmp>``; None stays None."""
    if text is None:
        return None
    report = json.loads(text.replace(tmp, "<tmp>"))
    report.pop("wall_time_s", None)
    return report


def dump(tree):
    """The outputs of ``tree`` (see :data:`DUMP_SCRIPT`), each ``--out``
    report normalized; a failed dump stops the script."""
    proc = subprocess.run([sys.executable, "-c", DUMP_SCRIPT], cwd=tree,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("dump failed in %s (exit %d):\n%s" % (tree, proc.returncode, proc.stderr))
    dumped = json.loads(proc.stdout.strip().splitlines()[-1])
    tmp = dumped.pop("tmp")
    dumped["out_reports"] = {key: normalized_report(text, tmp)
                             for key, text in dumped["out_reports"].items()}
    return dumped


def differences(parent, change):
    """Every place where the two dumps differ, one line each, in dump order:
    a leaf value, a key or item only one side has, or dict keys in another
    order (table rows are dicts in CSV column order)."""
    out = []

    def walk(path, a, b):
        where = "/".join(path) or "<dump>"
        if isinstance(a, dict) and isinstance(b, dict):
            if list(a) != list(b) and set(a) == set(b):
                out.append("%s: key order %s != %s" % (where, list(a), list(b)))
            for key in list(a) + [k for k in b if k not in a]:
                if key not in a or key not in b:
                    out.append("%s: only in %s" % ("/".join(path + (str(key),)),
                                                  "parent" if key in a else "change"))
                else:
                    walk(path + (str(key),), a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list):
            for i, (x, y) in enumerate(zip(a, b)):
                walk(path + (str(i),), x, y)
            if len(a) != len(b):
                out.append("%s: %d items != %d" % (where, len(a), len(b)))
        elif a != b:
            out.append("%s: %r != %r" % (where, a, b))

    walk((), parent, change)
    return out


def section_counts(found, sections):
    """How many of the ``found`` differences fall in each section, the
    first component of a difference's path: every name in ``sections`` (a
    dump's keys), with 0 where nothing differs, then any other section."""
    counts = dict.fromkeys(sections, 0)
    for line in found:
        section = re.split("[/:]", line, maxsplit=1)[0]
        counts[section] = counts.get(section, 0) + 1
    return counts


def _rho(text):
    """The mpf or mpc whose ``repr`` is ``text``, at more digits than the
    text holds."""
    with mp.workdps(len(text) + 20):
        return eval(text, {"__builtins__": {}, "mpf": mpf, "mpc": mpc})


def pick_differences(parent, change):
    """``(count, largest)``: how many picks differ between the two dumps,
    each table's picks paired in call order, and the largest relative
    difference of rho among the differing pairs where both sides picked
    (None where no such pair differs)."""
    count, largest = 0, None
    for table_id, picks in parent["picks"].items():
        for a, b in zip(picks, change["picks"].get(table_id, [])):
            if a == b:
                continue
            count += 1
            if a[0] != "raised" and b[0] != "raised":
                x, y = _rho(a[3]), _rho(b[3])
                with mp.workdps(max(len(a[3]), len(b[3])) + 20):
                    rel = abs(x - y) / abs(x)
                largest = rel if largest is None else max(largest, rel)
    return count, largest


def sizes(dumped):
    """How many tables, picks, ``sum`` requests and ``--out`` reports a dump
    holds."""
    return {"tables": len(dumped["tables"]),
            "picks": sum(len(p) for p in dumped["picks"].values()),
            "sum_mix": len(dumped["sum_mix"]),
            "out_reports": sum(r is not None for r in dumped["out_reports"].values())}


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.exit(__doc__)
    parent, change = (dump(tree) for tree in args)
    print("parent %s, change %s" % (sizes(parent), sizes(change)))
    found = differences(parent, change)
    for line in found[:SHOWN]:
        print(line)
    if found:
        counts = section_counts(found, parent)
        print("differences by section: %s"
              % ", ".join("%s %d" % item for item in counts.items()))
        count, largest = pick_differences(parent, change)
        print("%d picks differ; largest relative rho difference %s"
              % (count, "none" if largest is None else mp.nstr(largest, 3)))
        print("%d differences" % len(found))
        return 1
    print("identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
