"""Numeric kernel: Horner, polynomial roots, the bracketed solver, and the
rule that no public call leaves the working precision changed."""

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from resum import (
    BorelConfig,
    DomainError,
    MappingFamily,
    MappingSpec,
    RhoSelectionCriterion,
    SolverError,
    UsageError,
    borel_sum,
    build_rho_table,
    d0_exact_rate,
    d0_partition_coeffs,
    lambda_of_g,
    odm_value,
    select_rho,
    solve_saddle,
)
from resum.cli import main
from resum.poly import bracket_solve, horner, polynomial_real_roots, positive_roots


def recorded(fn, seen):
    def wrapped(x):
        seen.append(x)
        return fn(x)
    return wrapped


def test_horner_real_complex_and_empty():
    coeffs = [mpf(1), mpf(-3), mpf(2)]
    assert horner(coeffs, mpf(3)) == 10
    assert horner(coeffs, mp.mpc(0, 1)) == mp.mpc(-1, -3)
    assert horner((), mpf(5)) == 0


def test_newton_mode_cube_root_of_two():
    rtol = mpf("1e-50")
    seen = []
    root = bracket_solve(recorded(lambda x: x ** 3 - 2, seen), mpf(1), mpf(2), rtol,
                         df=recorded(lambda x: 3 * x ** 2, seen))
    exact = mp.cbrt(2)
    assert abs(root - exact) <= rtol * exact
    assert all(1 <= x <= 2 for x in seen)


def test_false_position_mode_cosine_fixed_point():
    rtol = mpf("1e-50")
    with mp.workdps(90):
        exact = mp.findroot(lambda x: mp.cos(x) - x, mpf("0.74"))
    seen = []
    root = bracket_solve(recorded(lambda x: mp.cos(x) - x, seen), mpf(0), mpf(1), rtol)
    assert abs(root - exact) <= rtol * exact
    assert all(0 <= x <= 1 for x in seen)
    # Illinois steps converge superlinearly; bisection would need ~170.
    assert len(seen) < 30


@pytest.mark.parametrize("newton", [True, False])
def test_steps_that_leave_the_bracket_fall_back_to_bisection(newton):
    # atan is flat far from its root, so raw Newton and secant steps from
    # the right end overshoot well past the left end of [-1, 9].
    seen = []
    df = recorded(lambda x: 1 / (1 + x * x), seen) if newton else None
    root = bracket_solve(recorded(mp.atan, seen), mpf(9), mpf(-1), mpf("1e-40"), df=df)
    assert abs(root) <= mpf("1e-40")
    assert all(-1 <= x <= 9 for x in seen)


@pytest.mark.parametrize("newton", [True, False])
def test_no_sign_change_raises(newton):
    df = (lambda x: 2 * x) if newton else None
    with pytest.raises(SolverError):
        bracket_solve(lambda x: x * x + 1, mpf(-1), mpf(1), mpf("1e-20"), df=df)


def _expand(roots, lead):
    """Ascending coefficients of ``lead * prod (x - r)``."""
    coeffs = [mpf(lead)]
    for r in roots:
        coeffs = [(coeffs[j - 1] if j else 0) - r * (coeffs[j] if j < len(coeffs) else 0)
                  for j in range(len(coeffs) + 1)]
    return coeffs


# Degree 13-20, so positive_roots takes the scan; positive roots sit on a
# 1.25-ratio ladder, wider than the scan's 2^(1/8) grid cells.
SEPARATED_ROOTS = st.integers(13, 20).flatmap(lambda n: st.lists(
    st.tuples(st.booleans(), st.integers(-12, 12)), unique=True, min_size=n, max_size=n))


@given(SEPARATED_ROOTS, st.sampled_from(["1", "-0.3", "7.5"]))
def test_scan_matches_complete_solver_on_separated_roots(factors, lead):
    roots = [mpf("1.25") ** e if positive else -mpf("1.4") ** e for positive, e in factors]
    coeffs = _expand(roots, lead)
    scanned = positive_roots(coeffs)
    complete = sorted((r for r in polynomial_real_roots(coeffs) if r > 0), reverse=True)
    assert len(scanned) == len(complete) == sum(1 for r in roots if r > 0)
    for a, b in zip(scanned, complete):
        assert abs(a - b) <= mpf("1e-30") * b


@pytest.fixture(scope="module")
def small_table():
    with mp.workdps(64):
        return build_rho_table(d0_partition_coeffs(10), MappingSpec(
            MappingFamily.POWER_CUT, 2, prefactor_p="0.5"))


def test_public_calls_leave_working_precision_unchanged(small_table, tmp_path, monkeypatch):
    crit = RhoSelectionCriterion()
    spec = MappingSpec(MappingFamily.POWER_CUT, 2)
    cfg = BorelConfig(a=1 / mpf("1.5"))
    series = d0_partition_coeffs(8)
    calls = [
        (lambda: select_rho(small_table, 6, crit), None),
        (lambda: select_rho(small_table, 0, crit), UsageError),
        (lambda: odm_value(small_table, 6, crit, mpf(2)), None),
        (lambda: odm_value(small_table, 6, crit, mpf(-2)), DomainError),
        (lambda: lambda_of_g(mpf(3), mpf(1), spec), None),
        (lambda: lambda_of_g(mp.nan, mpf(1), spec), DomainError),
        (lambda: borel_sum(series, cfg, mpf("0.5")), None),
        (lambda: borel_sum(series, cfg, 0), UsageError),
        (lambda: solve_saddle(2, digits=40), None),
        (lambda: solve_saddle(1, digits=40), UsageError),
        (lambda: d0_exact_rate(digits=40), None),
        (lambda: d0_exact_rate(digits=5), UsageError),
    ]
    for call, raises in calls:
        if raises is None:
            call()
        else:
            with pytest.raises(raises):
                call()
        assert mp.dps == 64
    path = tmp_path / "series.txt"
    path.write_text("coefficients: 1, -1, 1, -1\n", encoding="utf-8")
    argv = ["sum", str(path), "--method", "pade", "--L", "0", "--M", "1"]
    assert main(["-p", "40"] + argv + ["--g", "1"]) == 0
    assert mp.dps == 64
    assert main(["-p", "40"] + argv + ["--g", "nan"]) == 1
    assert mp.dps == 64
    monkeypatch.setenv("RESUM_PRECISION", "abc")
    assert main(argv + ["--g", "1"]) == 1
    assert mp.dps == 64
