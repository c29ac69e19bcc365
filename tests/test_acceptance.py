"""Acceptance suite: every graded criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.  The heavy table rebuilds come from the session fixture
``table_result`` (``tests/conftest.py``), each run through ``run_benchmark``
at its table's own digits and compared against the committed golden rows and
checks in ``tests/golden/``.
"""

import json
import random
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest
from mpmath import mp, mpf

from resum import (
    MappingFamily,
    MappingSpec,
    PowerSeries,
    RhoSelectionCriterion,
    SelectionMode,
    SolverError,
    binomial_series,
    borel_sum,
    build_rho_table,
    compose,
    d0_partition_coeffs,
    anharmonic_ground_coeffs,
    fixed_point,
    multiply,
    pade_eval,
    pade_fit,
    rg_series,
    zeta_series,
)
from resum import benchmarks
from resum.borel import borel_leroy_transform, conformal_map_coeffs, laplace_moments
from resum.poly import bracket_solve
from series_helpers import revert, scale

GOLDEN = Path(__file__).resolve().parent / "golden"


def report(criterion, name, result):
    line = "ACCEPTANCE %s [%s]: %s" % (criterion, name, "PASS" if result else "FAIL")
    print(line)
    return result


def assert_benchmark(criterion, result, names=None):
    checks = result.checks if names is None else [
        c for c in result.checks if any(c.name.startswith(n) for n in names)
    ]
    ok = all(c.passed for c in checks)
    detail = "; ".join("%s (observed %s, target %s)" % (c.name, c.observed, c.target)
                       for c in checks if not c.passed)
    report(criterion, result.table_id, ok)
    assert ok, detail


@pytest.fixture(scope="module")
def precision():
    with mp.workdps(64):
        yield


# The id under which each table's golden test runs, and the table.
RESULTS = {"saddle_result": "saddle-table", "d0_strong_result": "odm-d0-strong",
           "d0_g5_result": "odm-d0-g5", "oscillator_result": "odm-oscillator",
           "phi4_fixed_point_result": "phi4-fixed-point",
           "phi4_exponents_result": "phi4-exponents", "borel_map_result": "borel-map-exponents"}


@pytest.mark.parametrize("name", RESULTS)
def test_table_matches_golden(name, table_result):
    """Rows and graded checks are exactly the committed golden output."""
    result = table_result(RESULTS[name])
    golden = json.loads((GOLDEN / ("%s.json" % result.table_id)).read_text())
    assert result.rows == golden["rows"]
    assert [[c.name, c.passed, c.observed, c.target] for c in result.checks] == golden["checks"]


def test_criterion_1_saddle_constants(table_result):
    assert_benchmark("1", table_result("saddle-table"), names=("mu[", "lambda[", "residuals["))


def test_criterion_2_exact_rate(table_result):
    assert_benchmark("2", table_result("saddle-table"), names=("exact-rate", "R/A"))


def test_criterion_3_d0_strong_coupling(table_result):
    assert_benchmark("3", table_result("odm-d0-strong"))


def test_criterion_4_d0_alternative_mapping(table_result):
    assert_benchmark("4", table_result("odm-d0-g5"))


def test_criterion_5_oscillator(table_result):
    assert_benchmark("5", table_result("odm-oscillator"))


def test_criterion_6_phi4_fixed_point(table_result):
    assert_benchmark("6", table_result("phi4-fixed-point"))


def test_criterion_7_phi4_exponents(table_result):
    assert_benchmark("7", table_result("phi4-exponents"))


def test_criterion_8_borel_mapping(table_result):
    assert_benchmark("8", table_result("borel-map-exponents"))


def test_borel_map_config_names_the_chosen_shift(table_result):
    assert table_result("borel-map-exponents").config == {
        "digits": 30, "sigma": "1", "a": "0.147774232", "sigma_grid": "0,1,2,3"}


def test_borel_map_solves_only_the_zeros_it_reports(monkeypatch, node_count):
    """Orders 6 and 7 of each of the four shifts pick the winner, and only
    the winner's orders 5..2 follow: 12 zero solves, where every shift at
    every order would take 24.  Only the winner's zeros are integrated for
    nu and gamma, so the losers' orders 6 and 7 build no further moments.
    Each shift keeps at most three builds alive: the two bracket ends and
    its latest.  Each solve after a shift's first starts on the half-window
    its latest splits off: 63 builds, where the full window took 75, and
    21,923 node visits."""
    zeros, builds = [], []

    def zero(*args):
        zeros.append(args)
        return borel_zero(*args)

    def moments(*args, **kwargs):
        build = laplace_moments(*args, **kwargs)
        builds.append(weakref.ref(build))
        assert sum(ref() is not None for ref in builds) <= 12
        return build

    borel_zero, laplace_moments = benchmarks._borel_zero, benchmarks.laplace_moments
    monkeypatch.setattr(benchmarks, "_borel_zero", zero)
    monkeypatch.setattr(benchmarks, "laplace_moments", moments)
    result = benchmarks.run_benchmark("borel-map-exponents")
    assert len(zeros) == 12
    assert len(builds) <= 63
    assert node_count[0] <= 21923
    golden = json.loads((GOLDEN / "borel-map-exponents.json").read_text())
    assert result.rows == golden["rows"]


def test_borel_map_zeros_match_a_tight_resolve(monkeypatch):
    """Each zero the table reports, orders 2..7 of the chosen shift, lies
    within 1e-15 relative of a 1e-18 re-solve of the undivided Borel sum."""
    solved = {}

    def zero(coeffs, laplace):
        solved[tuple(coeffs)] = g = borel_zero(coeffs, laplace)
        return g

    borel_zero = benchmarks._borel_zero
    monkeypatch.setattr(benchmarks, "_borel_zero", zero)
    result = benchmarks.run_benchmark("borel-map-exponents")
    with mp.workdps(result.config["digits"]):
        rg, sigma = rg_series(), int(result.config["sigma"])
        a = rg.large_order_a
        for k in range(2, 8):
            beta = conformal_map_coeffs(borel_leroy_transform(rg.beta.truncate(k), sigma), a).coeffs
            ref = bracket_solve(lambda g: laplace_moments(a, sigma, g, 7).integral(beta)[0],
                                mpf("0.5"), mpf(3), mpf("1e-18"))
            assert abs(solved[tuple(beta)] - ref) <= mpf("1e-15") * ref, k


def scripted_laplace(F, latest=None):
    """Stand-in for a ``_kept_moments`` store: every point's build integrates
    any coefficients to ``F(g)``; ``latest`` is the point the store kept last.
    ``reads`` records every point read, in order."""
    def laplace(g):
        laplace.reads.append(g)
        return SimpleNamespace(integral=lambda coeffs: (F(g), mpf(0)))
    laplace.latest = {} if latest is None else {mpf(latest): None}
    laplace.reads = []
    return laplace


def test_borel_zero_reports_no_zero_from_the_window_ends_alone():
    """F of one sign at 0.5 and at 3 has no zero, even where the latest point
    has the other sign."""
    laplace = scripted_laplace(lambda g: (g - 1) * (g - 2), "1.5")
    assert benchmarks._borel_zero((), laplace) is None
    assert laplace.reads == [mpf("0.5"), mpf(3)]


def test_borel_zero_raises_when_its_solve_does_not_converge(monkeypatch):
    def stuck(f, lo, hi, rtol):
        raise SolverError("bracketed root did not converge")

    monkeypatch.setattr(benchmarks, "bracket_solve", stuck)
    with pytest.raises(SolverError, match="did not converge"):
        benchmarks._borel_zero((), scripted_laplace(lambda g: g - 1, "1.5"))


@pytest.mark.parametrize("start", ["1.3", "1.45"])
def test_borel_zero_warm_start_finds_the_cold_zero(start):
    """From a latest point on either side of the zero ln 4, the solve reads
    only its half-window and lands within 1e-15 of the full-window zero."""
    F = lambda g: mp.exp(g) - 4
    cold = benchmarks._borel_zero((), scripted_laplace(F))
    laplace = scripted_laplace(F, start)
    warm = benchmarks._borel_zero((), laplace)
    assert abs(warm - cold) <= mpf("1e-15") * cold
    assert abs(cold - mp.log(4)) <= mpf("1e-15")
    half = (mpf(start), mpf(3)) if mpf(start) < mp.log(4) else (mpf("0.5"), mpf(start))
    assert all(half[0] <= g <= half[1] for g in laplace.reads[3:])


class TestCriterion9PropertySuite:
    """Always-runnable identities, independent of any published number."""

    def test_series_algebra_identities(self, precision):
        a = PowerSeries(("1", "0.5", "-2", "1/3"))
        b = PowerSeries(("2", "-1", "0.25", "4"))
        c = PowerSeries(("-1", "3", "1", "0.125"))
        assert multiply(a, b) == multiply(b, a)
        left = multiply(multiply(a, b), c)
        right = multiply(a, multiply(b, c))
        assert all(abs(x - y) <= mpf("1e-58") * max(1, abs(x))
                   for x, y in zip(left.coeffs, right.coeffs))
        prod = multiply(binomial_series("1.75", 8), binomial_series("-1.75", 8))
        assert abs(prod.coeffs[0] - 1) < mpf("1e-58")
        assert all(abs(x) < mpf("1e-58") for x in prod.coeffs[1:])
        ok = report("9", "series-algebra", True)
        assert ok

    def test_reexpansion_identity_three_sources(self, precision):
        rng = random.Random(20260808)
        cases = (
            (d0_partition_coeffs(10),
             MappingSpec(MappingFamily.POWER_CUT, 2, prefactor_p="0.5")),
            (anharmonic_ground_coeffs(10),
             MappingSpec(MappingFamily.POWER_CUT, "1.5", prefactor_p="-0.5")),
            (rg_series().beta,
             MappingSpec(MappingFamily.SHIFTED_POWER, "1.5")),
        )
        ok = True
        for source, mapping in cases:
            order = source.order
            table = build_rho_table(source, mapping)
            for _ in range(2):
                rho = mpf(str(round(rng.uniform(0.2, 3.0), 6)))
                lam_of_g = revert(scale(zeta_series(mapping, order), rho), var=source.var)
                mapped = PowerSeries(table.lambda_coeffs(rho, order), "lambda")
                back = multiply(
                    compose(binomial_series(mapping.prefactor_p, order, "lambda"), lam_of_g),
                    compose(mapped, lam_of_g),
                )
                for k in range(order + 1):
                    scale_k = max(1, abs(source.coeffs[k]))
                    ok = ok and abs(back.coeffs[k] - source.coeffs[k]) < scale_k * mpf("1e-45")
        assert report("9", "odm-reexpansion", ok)

    def test_pade_rational_exactness(self, precision):
        # source = (1 + 2g) / (1 + g/2 - g^2/4), expanded then refit
        num = (mpf(1), mpf(2))
        den = (mpf(1), mpf("0.5"), mpf("-0.25"))
        coeffs = []
        for k in range(9):
            acc = num[k] if k < len(num) else mpf(0)
            for j in range(1, min(k, 2) + 1):
                acc -= den[j] * coeffs[k - j]
            coeffs.append(acc)
        approx = pade_fit(PowerSeries(tuple(coeffs)), 1, 2)
        ok = all(abs(x - y) < mpf("1e-55") for x, y in zip(approx.numerator, num))
        ok = ok and all(abs(x - y) < mpf("1e-55") for x, y in zip(approx.denominator, den))
        g = mpf("0.37")
        want = (1 + 2 * g) / (1 + g / 2 - g * g / 4)
        ok = ok and abs(pade_eval(approx, g) - want) < mpf("1e-55")
        assert report("9", "pade-exactness", ok)

    def test_borel_polynomial_consistency(self, precision):
        poly = PowerSeries((mpf(1), mpf(-2), mpf(3), mpf("0.5")) + (mpf(0),) * 157)
        ok = True
        for g in (mpf("0.5"), mpf(1)):
            want = poly.eval(g)
            got, _ = borel_sum(poly, 1, "0.5", g)
            ok = ok and abs(got - want) < mpf("1e-12") * max(1, abs(want))
        assert report("9", "borel-polynomial", ok)

    def test_borel_alternating_factorial_oracle(self, precision):
        s = PowerSeries(tuple((-1) ** k * mp.factorial(k) for k in range(35)))
        ok = True
        for g in (mpf("0.5"), mpf(1), mpf(2)):
            oracle = mp.quad(lambda t: mp.exp(-t) / (1 + g * t), [0, mp.inf])
            ok = ok and abs(borel_sum(s, 1, 0, g)[0] - oracle) < mpf("1e-8")
        assert report("9", "borel-oracle", ok)

    def test_toy_fixed_point_exact(self, precision):
        toy = PowerSeries((mpf(0), mpf(-1), mpf(1), mpf(0), mpf(0), mpf(0)), "gtilde")
        table = build_rho_table(toy, MappingSpec(
            MappingFamily.SHIFTED_POWER, 1, beta_covariant=True))
        criterion = RhoSelectionCriterion(mode=SelectionMode.STATIONARY_FIRST,
                                          smallness_factor=1)
        ok = True
        for k in range(2, 6):
            fp = fixed_point(table, k, criterion)
            ok = ok and abs(fp.g_star - 1) < mpf("1e-55")
            ok = ok and abs(fp.omega - 1) < mpf("1e-55")
        assert report("9", "toy-fixed-point", ok)
