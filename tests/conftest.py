from functools import cache

import pytest
from hypothesis import HealthCheck, settings
from mpmath import mp

from resum import benchmarks, borel

settings.register_profile(
    "mpf", deadline=None, max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("mpf")


@pytest.fixture(autouse=True)
def working_precision():
    """Every test runs at the package's default 64-digit precision."""
    with mp.workdps(64):
        yield


@pytest.fixture(scope="session")
def table_result():
    """``table_result(table_id)``: ``benchmarks.run_benchmark(table_id)`` at
    the table's own digits, built once per session for every test that reads
    that table."""
    return cache(benchmarks.run_benchmark)


@pytest.fixture
def node_count(monkeypatch):
    """A one-item list that sums, from now on, the tanh-sinh nodes handed to
    a Laplace ``level_sums``: one count per node visit."""
    count = [0]
    weighted_nodes = borel._weighted_nodes

    def counted(*args):
        nodes = weighted_nodes(*args)
        count[0] += len(nodes[0])
        return nodes

    monkeypatch.setattr(borel, "_weighted_nodes", counted)
    return count
