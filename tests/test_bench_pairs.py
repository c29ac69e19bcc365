"""The summary of ``tools/bench_pairs.py`` on synthetic pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _pairs(name, parent, change):
    return [{side: {"metrics": {name: {"value": v}}} for side, v in zip(bench_pairs.SIDES, pv)}
            for pv in zip(parent, change)]


@pytest.mark.parametrize("better, change, within", [
    # Parent median 1.0 and a 0.2 bound: lower-better allows up to 1.2.
    ("lower", [1.1, 1.19, 1.3], True),
    ("lower", [1.2, 1.3, 1.3], False),
    ("lower", [0.5, 0.6, 0.7], True),
    # Higher-better allows down to 0.8.
    ("higher", [0.7, 0.81, 0.9], True),
    ("higher", [0.7, 0.75, 0.9], False),
    ("higher", [2.0, 2.0, 2.0], True),
])
def test_within_bound_reads_the_bound_relative_to_the_parent_median(better, change, within):
    spec = {"name": "m", "better": better, "bound": 0.2}
    got = bench_pairs.summary(_pairs("m", [0.9, 1.0, 1.1], change), [spec])["m"]
    assert got["parent"]["median"] == 1.0
    assert got["within_bound"] is within


# Ten parent runs 1.00 .. 1.18: median 1.09, q1 1.045, q3 1.135, spread 0.09.
PARENT = [1 + 0.02 * i for i in range(10)]


@pytest.mark.parametrize("better, change, shown", [
    # Ten wins, and the medians 0.59 apart: shown.
    ("lower", [v - 0.5 for v in PARENT], True),
    # Ten wins, but the medians only 0.05 apart, inside the parent's spread.
    ("lower", [v - 0.05 for v in PARENT], False),
    # Nine wins and one tie: the tie counts for neither, and 9/10 suffice.
    ("lower", [v - 0.5 for v in PARENT[:9]] + PARENT[9:], True),
    # Eight wins and two ties: not enough.
    ("lower", [v - 0.5 for v in PARENT[:8]] + PARENT[8:], False),
    # Eight wins and two losses.
    ("lower", [v - 0.5 for v in PARENT[:8]] + [v + 0.5 for v in PARENT[8:]], False),
    # Higher-better: a large drop is ten losses, a large rise ten wins.
    ("higher", [v - 0.5 for v in PARENT], False),
    ("higher", [v + 0.5 for v in PARENT], True),
])
def test_gain_shown_needs_nine_tenths_and_a_gap_beyond_the_parent_spread(better, change,
                                                                          shown):
    spec = {"name": "m", "better": better, "bound": 0.2}
    got = bench_pairs.summary(_pairs("m", PARENT, change), [spec])["m"]
    assert (got["parent"]["q1"], got["parent"]["median"], got["parent"]["q3"]) == (
        1.045, 1.09, 1.135)
    assert got["gain_shown"] is shown


def test_clear_bytecode_deletes_every_pycache_and_nothing_else(tmp_path):
    for cache in ("__pycache__", "src/pkg/__pycache__", "tests/__pycache__"):
        (tmp_path / cache).mkdir(parents=True)
        (tmp_path / cache / "mod.cpython-311.pyc").write_bytes(b"")
    (tmp_path / "src/pkg/mod.py").write_text("")
    assert bench_pairs.clear_bytecode(tmp_path) == 3
    assert not list(tmp_path.rglob("__pycache__"))
    assert (tmp_path / "src/pkg/mod.py").is_file()
    assert bench_pairs.clear_bytecode(tmp_path) == 0


def test_span_summary_gives_the_min_and_median_of_the_runs():
    seconds = [0.21, 0.183, 0.19, 0.25, 0.1875, 0.2, 0.186, 0.3]
    got = bench_pairs.span_summary({"seconds": seconds, "raised": []})
    assert (got["min"], got["median"]) == (0.183, 0.195)
    assert got["runs"] == seconds and got["raised"] == []
    raised = ["RuntimeError('no speed samples taken; the clock was not active')"]
    got = bench_pairs.span_summary({"seconds": [0.123456, 0.09], "raised": raised})
    assert (got["min"], got["median"], got["raised"]) == (0.09, 0.1067, raised)


def _result_file(tree, workload, seed, trace, report):
    work = tree / ".perfbench_work"
    work.mkdir(exist_ok=True)
    path = work / ("result-%s-seed%d-trace%d.json" % (workload, seed, trace))
    path.write_text(json.dumps({"result": {"correct": True}, "report": report}))


def test_pass_facts_read_the_passes_and_tail_percentile_of_the_untraced_run(tmp_path):
    # 11 latencies: the tail is read at their minimum, p9.1; 10: at the maximum.
    _result_file(tmp_path, "rg-tables", 7401, 0, {
        "passes": 11, "op_tail": {"percentile": 100 / 11, "samples": 11}, "seed": 7401})
    _result_file(tmp_path, "rg-tables", 7402, 0, {
        "passes": 10, "op_tail": {"percentile": 100.0, "samples": 10}})
    _result_file(tmp_path, "rg-tables", 7401, 1, {"passes": 3})
    assert bench_pairs.pass_facts(tmp_path, "rg-tables", 7401) == {
        "passes": 11, "op_tail": {"percentile": 100 / 11, "samples": 11}}
    assert bench_pairs.pass_facts(tmp_path, "rg-tables", 7402) == {
        "passes": 10, "op_tail": {"percentile": 100.0, "samples": 10}}
    assert bench_pairs.run_report(tmp_path, "rg-tables", 7401, 1) == {"passes": 3}
