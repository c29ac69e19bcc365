"""Self-check of the benchmark harness on a tiny sum-mix draw.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.pin_environment()
sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from mpmath import mp  # noqa: E402
from tracer import TRACED  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# One request per method, two of them odm so the pick log is exercised.
TINY = tuple(r for r in workloads.DECK
             if r.generator == "d0" and r.order == 8
             and (r.g == "2" or (r.method == "odm" and r.g == "inf")))


def _bound_functions():
    """Every (module, attribute, object) that the tracer may replace."""
    return [(name, key, value) for name, mod in sorted(sys.modules.items())
            if name == "resum" or name.startswith("resum.")
            for key, value in vars(mod).items() if callable(value)]


@pytest.fixture
def tiny_deck(monkeypatch):
    monkeypatch.setattr(workloads, "DECK", TINY)
    return TINY


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_tiny_draw_covers_every_method(tiny_deck):
    assert {r.method for r in tiny_deck} == {"odm", "borel-map", "borel-pade", "pade"}


def test_untraced_run_emits_every_end_to_end_metric(tiny_deck):
    result, report = run.run("sum-mix", 3, 0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(tiny_deck)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["environment"]["mpmath_backend"] and report["environment"]["seed"] == 3


def test_traced_run_matches_untraced_and_restores_originals(tiny_deck):
    before = _bound_functions()
    quad_was_instance_attr = "quad" in vars(mp)
    result, report = run.run("sum-mix", 3, 0, trace=True)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("per_layer")
    assert report["traced_outputs_differ"] == []
    assert result["metrics"]["odm.select_rho.rho_mismatch"]["value"] == 0
    assert result["metrics"]["odm.select_rho.calls"]["value"] == 2
    assert result["metrics"]["cli.main.calls"]["value"] == len(tiny_deck)
    assert result["correct"]
    after = _bound_functions()
    assert [(n, k) for n, k, _ in before] == [(n, k) for n, k, _ in after]
    assert all(a is b for (_, _, a), (_, _, b) in zip(before, after))
    assert ("quad" in vars(mp)) == quad_was_instance_attr


def test_every_traced_layer_exists():
    for name, module_name, attr in TRACED:
        owner = mp if module_name is None else sys.modules[module_name]
        assert callable(getattr(owner, attr)), name


def test_tail_latency_needs_ten_samples_beyond():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    value, percentile, count = run.tail_latency([float(i) for i in range(100)])
    assert (value, percentile, count) == (89.0, 90.0, 100)
