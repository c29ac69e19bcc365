"""Rational fits: exactness, re-expansion, degeneracy and pole handling."""

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from resum import (
    DegeneracyError,
    PadeApproximant,
    PoleError,
    PowerSeries,
    UsageError,
    pade_eval,
    pade_fit,
)


def geometric(order):
    return PowerSeries(tuple(mpf(1) for _ in range(order + 1)))


def test_rational_recovery():
    approx = pade_fit(geometric(4), 0, 1)
    assert approx.numerator == (mpf(1),)
    assert approx.denominator == (mpf(1), mpf(-1))


def test_exponential_two_two():
    e = PowerSeries(tuple(1 / mp.factorial(k) for k in range(5)))
    approx = pade_fit(e, 2, 2)
    tol = mpf("1e-58")
    for got, want in zip(approx.numerator, (1, mpf("0.5"), mpf(1) / 12)):
        assert abs(got - want) < tol
    for got, want in zip(approx.denominator, (1, mpf("-0.5"), mpf(1) / 12)):
        assert abs(got - want) < tol
    assert abs(pade_eval(approx, 1) - mpf(19) / 7) < mpf("1e-57")


def test_polynomial_passthrough():
    s = PowerSeries((mpf(3), mpf(-2), mpf(7)))
    approx = pade_fit(s, 2, 0)
    assert approx.numerator == s.coeffs
    assert approx.denominator == (mpf(1),)


def test_zero_zero_fit_keeps_the_constant_term():
    # mp.pade's [0/0] has numerator 1 whatever c_0 is.
    approx = pade_fit(PowerSeries((mpf(3), mpf(1))), 0, 0)
    assert approx.numerator == (mpf(3),)
    assert approx.denominator == (mpf(1),)


def test_alternating_geometric_value():
    s = PowerSeries((mpf(1), mpf(-1), mpf(1), mpf(-1)))
    approx = pade_fit(s, 0, 1)
    assert abs(pade_eval(approx, 1) - mpf("0.5")) < mpf("1e-60")


def test_eval_at_origin_returns_constant():
    s = PowerSeries((mpf("2.5"), mpf(4), mpf(-3), mpf(1)))
    approx = pade_fit(s, 1, 2)
    assert pade_eval(approx, 0) == s.coeffs[0]


def test_degenerate_system_rejected():
    constant = PowerSeries((mpf(1), mpf(0), mpf(0)))
    with pytest.raises(DegeneracyError):
        pade_fit(constant, 1, 1)


def test_all_zero_pivot_column_rejected():
    # Every pivot candidate of one column is zero: mpmath's LU cannot pick a
    # pivot there, and the fit must report the rank, not a TypeError.
    for coeffs, L, M, rank in (((1, 1, 1, 1, 0, 0), 1, 3, "rank 2 < 3"),
                               ((0, 0, 0), 1, 1, "rank 0 < 1")):
        s = PowerSeries(tuple(mpf(c) for c in coeffs))
        with pytest.raises(DegeneracyError, match=rank):
            pade_fit(s, L, M)


def test_rank_not_determined_when_the_svd_does_not_converge(monkeypatch):
    # c_0..c_4 = 2, 1, -1, 2, 1 make the [2/3] system [[-1,1,2],[2,-1,1],[1,2,-1]],
    # on which mp.svd_r does not converge.  The matrix is nonsingular, so the
    # LU solve is made to fail as it would on a singular one.
    s = PowerSeries(tuple(mpf(c) for c in (2, 1, -1, 2, 1, 0)))

    def singular(A, b):
        assert A.tolist() == [[-1, 1, 2], [2, -1, 1], [1, 2, -1]]
        with pytest.raises(RuntimeError, match="no convergence"):
            mp.svd_r(A, compute_uv=False)
        raise ZeroDivisionError

    monkeypatch.setattr(mp, "lu_solve", singular)
    with pytest.raises(DegeneracyError, match=r"\[2/3\] \(rank not determined\)"):
        pade_fit(s, 2, 3)


def test_order_budget_enforced():
    with pytest.raises(UsageError):
        pade_fit(geometric(3), 2, 2)


def test_pole_detection():
    approx = pade_fit(geometric(4), 0, 1)  # 1/(1-g), pole at 1
    with pytest.raises(PoleError):
        pade_eval(approx, 1)


def test_denominator_normalization():
    with pytest.raises(UsageError):
        PadeApproximant((mpf(1),), (mpf(2), mpf(1)))


@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=2),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=1),
)
def test_exact_on_rationals(num, den_tail):
    # Build N(g)/D(g) with deg N = 1, deg D = 1, expand, refit [1/1].
    num = [mpf(n) for n in num]
    den = [mpf(1)] + [mpf(d) / 10 for d in den_tail]
    if num[0] == 0 and num[1] == 0:
        return
    order = 6
    coeffs = []
    for k in range(order + 1):
        acc = num[k] if k < len(num) else mpf(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * coeffs[k - j]
        coeffs.append(acc / den[0])
    s = PowerSeries(tuple(coeffs))
    try:
        approx = pade_fit(s, 1, 1)
    except DegeneracyError:
        return  # genuinely degenerate draw (e.g. numerator multiple of denominator)
    g = mpf("0.3")
    want = (num[0] + num[1] * g) / (den[0] + den[1] * g)
    assert abs(pade_eval(approx, g) - want) < mpf("1e-50") * max(1, abs(want))


def test_reexpansion_matches_source():
    s = PowerSeries(tuple(mpf((-2) ** k) / mp.factorial(k) for k in range(7)))
    approx = pade_fit(s, 3, 3)
    # evaluate the fitted rational's Taylor coefficients by divided recursion
    got = []
    for k in range(7):
        acc = approx.numerator[k] if k < len(approx.numerator) else mpf(0)
        for j in range(1, min(k, len(approx.denominator) - 1) + 1):
            acc -= approx.denominator[j] * got[k - j]
        got.append(acc)
    for a, b in zip(got, s.coeffs):
        assert abs(a - b) < mpf("1e-55") * max(1, abs(b))
