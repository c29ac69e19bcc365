"""The summary of ``tools/bench_pairs.py`` on synthetic pairs."""

import importlib.util
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
