"""Series algebra: arithmetic, composition, and the growth-rate estimator."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

from resum import (
    DiagnosticError,
    DomainError,
    PowerSeries,
    UsageError,
    binomial_series,
    compose,
    multiply,
    ratio_growth_constant,
)
from series_helpers import revert, scale

small_coeffs = st.lists(
    st.integers(min_value=-9, max_value=9).map(mpf), min_size=4, max_size=4
)


def series(coeffs, var="g"):
    return PowerSeries(tuple(coeffs), var)


def test_multiply_difference_of_squares():
    a = series([1, 1, 0], "x")
    b = series([1, -1, 0], "x")
    assert multiply(a, b).coeffs == (mpf(1), mpf(0), mpf(-1))


def test_multiply_identity():
    s = series(["1", "-0.125", "35/384"])
    one = series([1, 0, 0])
    assert multiply(one, s) == s


def test_multiply_square():
    s = series([1, 1, 1], "x")
    assert multiply(s, s).coeffs == (mpf(1), mpf(2), mpf(3))


def test_multiply_var_mismatch():
    with pytest.raises(UsageError):
        multiply(series([1], "x"), series([1], "y"))


def test_binomial_polynomial_case():
    assert binomial_series(1, 3).coeffs == (mpf(1), mpf(-1), mpf(0), mpf(0))


def test_binomial_half_integer():
    b = binomial_series("-0.5", 2)
    assert b.coeffs == (mpf(1), mpf("0.5"), mpf("0.375"))
    b = binomial_series("-1.5", 2)
    assert b.coeffs == (mpf(1), mpf("1.5"), mpf(15) / 8)


def test_compose_linear():
    outer = series([1, 1], "z")
    inner = series([0, 2], "lambda")
    assert compose(outer, inner).coeffs == (mpf(1), mpf(2))


def test_compose_geometric():
    outer = series([1, 1, 1, 1], "z")
    inner = series([0, 1, 1, 0], "lambda")
    assert compose(outer, inner).coeffs == (mpf(1), mpf(1), mpf(2), mpf(3))


def test_compose_identity_inner():
    s = series(["0.5", "0.03125", "-1/219"])
    ident = series([0, 1, 0], s.var)
    assert compose(s, ident) == s


def test_compose_rejects_constant_term():
    with pytest.raises(DomainError):
        compose(series([1, 1]), series([1, 1]))


def test_ratio_growth_exact_factorial():
    s = series([(-1) ** k * mp.factorial(k) for k in range(41)])
    est = ratio_growth_constant(s, 10)
    assert abs(est - 1) < mpf("0.01")


@pytest.mark.parametrize("a0", ["0.5", "1.5", "8"])
def test_ratio_growth_recovers_scaled_factorial(a0):
    a0 = mpf(a0)
    s = series([(-a0) ** (-k) * mp.gamma(k + 1) for k in range(41)])
    est = ratio_growth_constant(s, 10)
    assert abs(est - a0) / a0 < mpf("1e-3")


def test_ratio_growth_rejects_non_alternating():
    s = series([mp.factorial(k) for k in range(20)])
    with pytest.raises(DiagnosticError):
        ratio_growth_constant(s, 10)


def test_ratio_growth_tail_validation():
    s = series([1, -1, 1, -1, 1])
    with pytest.raises(UsageError):
        ratio_growth_constant(s, 3)
    with pytest.raises(UsageError):
        ratio_growth_constant(s, 10)


@given(small_coeffs, small_coeffs)
def test_multiply_commutative(a, b):
    sa, sb = series(a), series(b)
    assert multiply(sa, sb) == multiply(sb, sa)


@given(small_coeffs, small_coeffs, small_coeffs)
def test_multiply_associative(a, b, c):
    sa, sb, sc = series(a), series(b), series(c)
    left = multiply(multiply(sa, sb), sc)
    right = multiply(sa, multiply(sb, sc))
    assert left == right


@given(small_coeffs, small_coeffs, small_coeffs)
def test_compose_associative(a, b, c):
    outer = series(a, "z")
    mid = series([mpf(0)] + b[1:], "w")
    inner = series([mpf(0)] + c[1:], "lambda")
    left = compose(compose(outer, mid), inner)
    right = compose(outer, compose(mid, inner))
    tol = mpf(10) ** (6 - mp.dps)
    for x, y in zip(left.coeffs, right.coeffs):
        assert abs(x - y) <= tol * max(1, abs(x))


@given(st.fractions(min_value=-4, max_value=4))
def test_binomial_inverse_pair(p):
    order = 8
    prod = multiply(binomial_series(p, order), binomial_series(-p, order))
    tol = mpf(10) ** (6 - mp.dps)
    assert abs(prod.coeffs[0] - 1) <= tol
    for c in prod.coeffs[1:]:
        assert abs(c) <= tol


def test_revert_round_trip():
    s = series([0, 1, "0.5", "-0.25", "1/3"], "lambda")
    inv = revert(s, var="w")
    back = compose(s, inv)
    assert abs(back.coeffs[1] - 1) < mpf("1e-58")
    for c in back.coeffs[2:]:
        assert abs(c) < mpf("1e-58")
    with pytest.raises(DomainError):
        revert(series([1, 1]))
    with pytest.raises(DomainError):
        revert(series([0, 0, 1]))
    with pytest.raises(DomainError, match="nonzero linear term"):
        revert(series([0]))  # order 0: no linear term at all


def test_truncate_pad_eval():
    s = series([1, 2, 3])
    assert s.truncate(1).coeffs == (mpf(1), mpf(2))
    assert s.eval(mpf("0.5")) == 1 + 2 * mpf("0.5") + 3 * mpf("0.25")
    assert s.truncate(1).eval(mpf("0.5")) == 2
    assert scale(s, -1).coeffs == (mpf(-1), mpf(-2), mpf(-3))


def test_rejects_non_finite():
    with pytest.raises(UsageError):
        PowerSeries((mpf(1), mp.inf))


@pytest.mark.parametrize("dps", [30, 64, 110])
def test_integer_rationals_are_rounded_once(dps):
    # mpf(p) and mpf(q) were each rounded before their quotient: at 64 digits
    # about a third of these missed the correctly rounded value.
    from resum.precision import to_mpf

    rng = random.Random(4701)
    cases = [(3 ** 140, 7 ** 90), (-308, 729), (1, 6)] + [
        (rng.getrandbits(400) - 2 ** 399, rng.getrandbits(300) | 1) for _ in range(300)]
    with mp.workdps(dps):
        for p, q in cases:
            reference = mp.make_mpf(from_rational(p, q, mp.prec, round_nearest))
            assert to_mpf("%d/%d" % (p, q)) == reference, (p, q)
            assert to_mpf(" %d / %d " % (p, q)) == reference, (p, q)
            assert to_mpf(Fraction(p, q)) == reference, (p, q)


def test_precision_type_bounds():
    from resum.precision import DEFAULT_DIGITS, MIN_DIGITS, workdps

    assert DEFAULT_DIGITS == 64
    assert MIN_DIGITS == 30
    with workdps(30):
        assert mp.dps == 30
    assert mp.dps == 64
    with pytest.raises(UsageError, match="whole number >= 30, got 29"):
        workdps(29)
    with pytest.raises(UsageError, match="got 31.5"):
        workdps(31.5)


def test_nstr_prints_none_blank_and_numbers_as_mpmath():
    from resum.precision import nstr

    assert nstr(None, 8) == ""
    for x in (mp.pi, -mpf("1e-30") / 3, mpf(0)):
        for digits in (3, 8, 17):
            assert nstr(x, digits) == mp.nstr(x, digits)
