from functools import cache

import pytest
from hypothesis import HealthCheck, settings
from mpmath import mp

from resum import benchmarks

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
