"""Numeric kernel: Horner, polynomial roots, the bracketed solver, and the
rules that no public call leaves the working precision changed, that every
summation entry ends in a finite value or a ``ResumError``, and that a bad
public input is a ``ResumError`` naming that input."""

import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from resum import (
    DomainError,
    MappingFamily,
    MappingSpec,
    PadeApproximant,
    PowerSeries,
    ResumError,
    RhoPolynomialTable,
    ResourceError,
    RhoSelectionCriterion,
    SolverError,
    UsageError,
    binomial_series,
    borel_pade_sum,
    borel_sum,
    build_rho_table,
    conformal_map_coeffs,
    convergence_study,
    d0_exact_rate,
    d0_partition_coeffs,
    d0_partition_value,
    g_of_lambda,
    lambda_of_g,
    odm_value,
    pade_eval,
    pade_fit,
    predicted_R,
    select_rho,
    solve_saddle,
    zeta_series,
)
from resum.benchmarks import run_benchmark
from resum.borel import laplace_moments
from resum.cli import main
from resum import poly
from resum.poly import (
    Polynomial,
    _fujiwara_log2,
    all_roots,
    bracket_solve,
    horner,
    polynomial_real_roots,
    positive_roots,
)


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
    root = bracket_solve(recorded(lambda x: x ** 3 - 2, seen), mpf(1), mpf(2), rtol)
    exact = mp.cbrt(2)
    assert abs(root - exact) <= rtol * exact
    assert all(1 <= x <= 2 for x in seen)
    assert len(seen) < 30


def test_false_position_mode_cosine_fixed_point():
    rtol = mpf("1e-50")
    with mp.workdps(90):
        exact = mp.findroot(lambda x: mp.cos(x) - x, mpf("0.74"))
    seen = []
    root = bracket_solve(recorded(lambda x: mp.cos(x) - x, seen), mpf(0), mpf(1), rtol)
    assert abs(root - exact) <= rtol * exact
    assert all(0 <= x <= 1 for x in seen)
    # Anderson-Bjorck steps converge superlinearly; bisection would need ~170.
    assert len(seen) < 30


def test_steps_that_leave_the_bracket_fall_back_to_bisection():
    # atan is flat far from its root, so raw secant steps from the right end
    # overshoot well past the left end of [-1, 9].
    seen = []
    root = bracket_solve(recorded(mp.atan, seen), mpf(9), mpf(-1), mpf("1e-40"))
    assert abs(root) <= mpf("1e-40")
    assert all(-1 <= x <= 9 for x in seen)


def test_a_step_that_does_not_shrink_f_halves_the_kept_end():
    # x**60 - x - 0.5 grows in size away from 0 before it turns up near 1.01:
    # the second step lands where |f| is larger than at the first, so the
    # Anderson-Bjorck factor m = 1 - f(x2)/f(x1) is negative, and the end
    # kept twice running, 1.1, has its value halved instead.
    def f(x):
        return x ** 60 - x - mpf("0.5")

    seen = []
    root = bracket_solve(recorded(f, seen), mpf(0), mpf("1.1"), mpf("1e-50"))
    lo, hi, x1, x2, x3 = seen[:5]
    assert f(x1) / f(lo) >= 1 and f(x2) / f(x1) >= 1
    f_hi = f(hi) / 2
    assert x3 == (x2 * f_hi - hi * f(x2)) / (f_hi - f(x2))
    assert all(0 <= x <= hi for x in seen)
    with mp.workdps(90):
        exact = mp.findroot(f, root)
    assert abs(root - exact) <= mpf("1e-50") * exact


def test_no_sign_change_raises():
    with pytest.raises(SolverError):
        bracket_solve(lambda x: x * x + 1, mpf(-1), mpf(1), mpf("1e-20"))


def _expand(roots, lead):
    """Ascending coefficients of ``lead * prod (x - r)``."""
    coeffs = [mpf(lead)]
    for r in roots:
        coeffs = [(coeffs[j - 1] if j else 0) - r * (coeffs[j] if j < len(coeffs) else 0)
                  for j in range(len(coeffs) + 1)]
    return coeffs


# Degree 1-20; positive roots sit on a 1.25-ratio ladder, wider than the
# scan's 2^(1/8) grid cells.
SEPARATED_ROOTS = st.integers(1, 20).flatmap(lambda n: st.lists(
    st.tuples(st.booleans(), st.integers(-12, 12)), unique=True, min_size=n, max_size=n))


@given(SEPARATED_ROOTS, st.sampled_from(["1", "-0.3", "7.5"]))
def test_scan_matches_complete_solver_on_separated_roots(factors, lead):
    roots = [mpf("1.25") ** e if positive else -mpf("1.4") ** e for positive, e in factors]
    coeffs = _expand(roots, lead)
    scanned = list(positive_roots(Polynomial(coeffs)))
    complete = sorted((r for r in polynomial_real_roots(coeffs) if r > 0), reverse=True)
    assert len(scanned) == len(complete) == sum(1 for r in roots if r > 0)
    for a, b in zip(scanned, complete):
        assert abs(a - b) <= mpf("1e-30") * b


# Integer polynomials of degree 1-12 with nonzero constant and leading
# terms; about half the inner coefficients are zero.
SPARSE_POLYS = st.integers(0, 11).flatmap(lambda inner: st.tuples(
    st.integers(-50, -1) | st.integers(1, 50),
    st.lists(st.just(0) | st.integers(-50, 50), min_size=inner, max_size=inner),
    st.integers(-50, -1) | st.integers(1, 50)))


@given(SPARSE_POLYS)
def test_lower_bound_below_every_root_modulus(parts):
    c0, inner, lead = parts
    coeffs = [mpf(c) for c in [c0] + inner + [lead]]
    bound = mpf(2) ** -_fujiwara_log2(coeffs[::-1])
    assert bound > 0
    # Certificate: on |x| <= bound the constant term outweighs all others.
    assert mp.fsum(abs(c) * bound ** j for j, c in enumerate(coeffs) if j) < abs(coeffs[0])
    # Coefficients in [-50, 50] allow a root multiplicity of at most 7.
    assert bound <= min(abs(r) for r in all_roots(coeffs))


@pytest.mark.parametrize("coeffs, root", [([1, 3, 3, 1], -1), ([-8, 12, -6, 1], 2),
                                          ([1, 4, 6, 4, 1], -1)])
def test_roots_of_multiplicity_three_and_four(coeffs, root):
    roots = polynomial_real_roots(coeffs)
    assert len(roots) == 1
    assert abs(roots[0] - root) <= mpf("1e-50")


def test_roots_far_from_modulus_one_converge_after_scaling():
    # Roots +-1e200 i: unscaled, they never meet polyroots' absolute tolerance.
    assert polynomial_real_roots(["1e400", 0, 1]) == []
    assert polynomial_real_roots(["-1e400", 0, 1]) == [mpf("-1e200"), mpf("1e200")]


def test_a_root_lost_below_the_working_precision_raises():
    # Roots 3 and 2/3 * 10^-70: the small one is under polyroots' absolute
    # cleanup at 64 digits, and comes back at 75.
    coeffs = [2, mpf("-3e70"), mpf("1e70")]
    with pytest.raises(ResourceError, match="64 working digits"):
        polynomial_real_roots(coeffs)
    with mp.workdps(75):
        small, three = polynomial_real_roots(coeffs)
        assert abs(small * mpf("1.5e70") - 1) < mpf("1e-70")
        assert abs(three - 3) < mpf("1e-70")


def _unseeded_roots(coeffs):
    """mpmath's ``polyroots`` from its own start, in :func:`all_roots`'s order."""
    roots = mp.polyroots(list(reversed(coeffs)), maxsteps=400, extraprec=max(mp.prec, 120))
    return sorted(roots, key=lambda r: (abs(mp.im(r)), mp.re(r), mp.im(r)))


def test_seeded_roots_equal_the_unseeded_ones_on_the_phi4_tables(monkeypatch):
    # Every polynomial the complex-pair tables hand the complete solver.
    seen, solve = [], poly.polyroots

    def recording(monic, **kwargs):
        seen.append((list(reversed(monic)), mp.prec, kwargs["roots_init"]))
        return solve(monic, **kwargs)

    monkeypatch.setattr(poly, "polyroots", recording)
    for table_id in ("phi4-fixed-point", "phi4-exponents"):
        assert run_benchmark(table_id).passed
    monkeypatch.undo()
    assert seen and all(start is not None for _, _, start in seen)
    for coeffs, prec, _ in seen:
        with mp.workprec(prec):
            got, unseeded = all_roots(coeffs), _unseeded_roots(coeffs)
            assert got == unseeded
            assert [type(r) for r in got] == [type(r) for r in unseeded]


def test_seeded_roots_equal_the_unseeded_ones_on_separated_roots():
    # Real coefficients: real roots and conjugate pairs whose parts are both
    # well away from zero (a part below 2^-extraprec of its root's modulus
    # is iteration noise and may differ in its last bits).
    rng = random.Random(1966)
    for degree in range(2, 9):
        for _ in range(2):
            pairs = rng.randint(0, degree // 2)
            parts = rng.sample([p for p in range(-40, 41) if p], degree)
            roots = [mpf(p) / 8 for p in parts[2 * pairs:]]
            for re, im in zip(parts[:pairs], parts[pairs:2 * pairs]):
                roots += [mp.mpc(re, im) / 8, mp.mpc(re, -im) / 8]
            coeffs = [mp.re(c) for c in _expand(roots, rng.choice(["1", "-0.3", "7.5"]))]
            assert poly._float_start(list(reversed(coeffs))) is not None
            assert all_roots(coeffs) == _unseeded_roots(coeffs)


@pytest.mark.parametrize("coeffs", [[c * mpf("1e400") for c in (2, -3, 1)],
                                    [c * mpf("1e-400") for c in (2, -3, 1)],
                                    [c * 10 ** 400 for c in (2, -3, 1)],
                                    [1, mpf("1e-400"), 1]])
def test_coefficients_beyond_float64_solve_from_mpmaths_start(coeffs):
    assert poly._float_start(list(reversed(coeffs))) is None
    roots = all_roots(coeffs)
    assert roots == _unseeded_roots(coeffs)
    for r in roots:
        assert abs(horner(coeffs, r)) <= mpf("1e-50") * mp.fsum(
            abs(c) * abs(r) ** j for j, c in enumerate(coeffs))


def test_scan_with_a_root_at_the_origin_yields_the_positive_roots():
    # c_0 = 0: no lower bound, so the scan walks 20 decades below the top.
    assert list(positive_roots(Polynomial([mpf(c) for c in (0, 3, -1)]))) == [3]
    assert list(positive_roots(Polynomial([mpf(c) for c in (0, 0, -6, 5, -1)]))) == [3, 2]


def test_fujiwara_log2_brackets_the_direct_mp_formula():
    def direct(coeffs):
        d, cd, c0 = len(coeffs) - 1, abs(coeffs[-1]), abs(coeffs[0])
        upper = max(((abs(c) / cd) ** (mpf(1) / (d - j))
                     for j, c in enumerate(coeffs[:-1]) if c != 0), default=0)
        upper = 2 * upper if upper > 0 else mpf(1)
        if c0 == 0:
            return upper, mpf(0)
        lower = max((abs(c) / c0) ** (mpf(1) / j) for j, c in enumerate(coeffs) if j and c != 0)
        return upper, 1 / (2 * lower)

    wide = [mpf(10) ** (300 - 60 * j) * (-1) ** j for j in range(11)]
    cases = [
        [1, 0, 4, 0, 16],           # every candidate of both bounds ties at 1/2
        [16, 0, 4, 0, 1], [1, -2, 4, -8, 16, -32],
        [0, 0, 3, 0, -1], [5, 0, 0, 0, 0, 0, 2], [7, 3],
        wide, wide[::-1], [mpf("1e-300"), 1, mpf("1e300")],
        [mpf(2) ** 4000, 1, mpf(2) ** -4000, 3],  # beyond float64 range
    ]
    # Binary exponents of +-2^25, where a float64 log2 resolves only 2^-27.
    huge = [[mpf(2) ** (2 ** 25), 3, mpf(2) ** -(2 ** 25)],
            [mpf(2) ** -(2 ** 25), 5, 1, mpf(2) ** (2 ** 25)],
            [mpf(3) * mpf(2) ** (2 ** 25), 0, mpf(-7) * mpf(2) ** -(2 ** 25), 1]]
    for coeffs, slack in [(c, mpf("1e-8")) for c in cases] + [(c, mp.inf) for c in huge]:
        coeffs = [mpf(c) for c in coeffs]
        upper = mpf(2) ** _fujiwara_log2(coeffs)
        lower = mpf(2) ** -_fujiwara_log2(coeffs[::-1]) if coeffs[0] != 0 else mpf(0)
        exact_upper, exact_lower = direct(coeffs)
        assert exact_upper <= upper <= exact_upper * (1 + slack), coeffs
        assert exact_lower * (1 - slack) <= lower <= exact_lower, coeffs


def test_scan_evaluates_the_grid_only_as_far_as_read(monkeypatch):
    # Positive roots 1, 1/2, ..., 2^-13: the largest sits near the top of
    # the grid, so reading it alone leaves most of the walk undone.
    roots = [mpf(2) ** -e for e in range(14)]
    coeffs = _expand(roots, 1)
    calls = []
    # Every scan point, on the grid or in the polish, runs the float64 tier
    # first (the Polynomial value only where it defers), so it counts them.
    evaluate = poly._float_horner
    monkeypatch.setattr(poly, "_float_horner", lambda c, x: calls.append(x) or evaluate(c, x))
    first = list(islice(positive_roots(Polynomial(coeffs)), 1))
    first_calls = len(calls)
    scanned = list(positive_roots(Polynomial(coeffs)))
    assert first == scanned[:1]
    assert first_calls < (len(calls) - first_calls) / 4
    assert len(scanned) == len(roots)
    for a, b in zip(scanned, roots):
        assert abs(a - b) <= mpf("1e-30") * b


@pytest.fixture(scope="module")
def d0_alpha2_table():
    with mp.workdps(64):
        return build_rho_table(d0_partition_coeffs(62), MappingSpec(
            MappingFamily.POWER_CUT, 2, prefactor_p="0.5"))


def _raw(value):
    """The libmp tuple of an mpf or mpc."""
    return value._mpc_ if isinstance(value, mp.mpc) else value._mpf_


@pytest.mark.parametrize("coeffs", [
    (mpf(2), mpf(-3), mpf(1)),
    tuple(_expand([mpf(2) ** -e for e in range(6)], "-0.3")),
    (mpf("1e-400"), mpf(-1), mpf("1e400")),  # beyond float64, which defers
])
def test_zero_highest_terms_change_no_value_and_no_root(coeffs):
    padded, plain = Polynomial(coeffs + (mpf(0),) * 2), Polynomial(coeffs)
    for x in (mpf(3) / 7, mpf(-5), mpf(2) ** 100, mp.mpc(1, 2), mp.mpc("0.3", "-4")):
        assert _raw(padded(x)) == _raw(plain(x)), x
    assert list(positive_roots(padded)) == list(positive_roots(plain))


def test_an_all_zero_polynomial_evaluates_to_zero_and_scans_to_nothing():
    zero = Polynomial((mpf(0),) * 4)
    assert zero(mpf(3)) == 0 and zero(mp.mpc(1, 2)) == 0
    assert list(positive_roots(zero)) == []
    pool, wide = poly.complex_pools(zero)
    assert list(pool) == [] and wide == []


def test_polish_keeps_both_roots_of_the_alpha4_order2_polynomial():
    # Both roots of this quadratic are simple: the polish must return the
    # root inside each bracket, 5.411 and 0.7603, not a bracket end or
    # midpoint (the scan hands it [5.260, 5.734] for the upper root).
    table = build_rho_table(d0_partition_coeffs(4), MappingSpec(
        MappingFamily.POWER_CUT, 4, prefactor_p="0.5"))
    scanned = list(positive_roots(table.rows[2]))
    complete = sorted(polynomial_real_roots(table.rows[2].coeffs), reverse=True)
    assert [mp.nstr(r, 6) for r in scanned] == ["5.41108", "0.760344"]
    assert len(complete) == 2
    for a, b in zip(scanned, complete):
        assert abs(a - b) <= mpf("1e-50") * b


def test_polish_stops_at_the_rounding_floor(d0_alpha2_table, monkeypatch):
    # The first stationary point at order 58: the Anderson-Bjorck steps, on
    # certified float64 values and then on the rounded-once Polynomial
    # values at the guard precision, reach the solve's tolerance within a
    # few evaluations of the Polynomial value.
    base, polish_calls = mp.prec, []
    evaluate = Polynomial.__call__

    def counted(p, x):
        if mp.prec > base:
            polish_calls.append(x)
        return evaluate(p, x)

    monkeypatch.setattr(Polynomial, "__call__", counted)
    dpoly = poly.derivative_coeffs(d0_alpha2_table.rows[58].coeffs)
    root = next(positive_roots(Polynomial(dpoly)))
    assert len(polish_calls) <= 30
    assert abs(horner(dpoly, root)) <= mpf("1e-40") * mp.fsum(
        abs(c) * root ** j for j, c in enumerate(dpoly))


def test_polish_on_a_convex_bracket(d0_alpha2_table, monkeypatch):
    # The first stationary point at order 60: on the scan's bracket
    # [0.07334, 0.07995], P_60' runs from -2.4e-16 to 2.6e-13, with the root
    # in the first quarter.  The Anderson-Bjorck steps take 25 evaluations;
    # halving the kept end's value (the Illinois rule) took 40.
    solves, solve = [], poly.bracket_solve

    def recorded_solve(f, lo, hi, rtol):
        seen = []
        solves.append((seen, lo, hi))
        return solve(recorded(f, seen), lo, hi, rtol)

    monkeypatch.setattr(poly, "bracket_solve", recorded_solve)
    dpoly = poly.derivative_coeffs(d0_alpha2_table.rows[60].coeffs)
    root = next(positive_roots(Polynomial(dpoly)))
    [(seen, lo, hi)] = solves
    assert all(lo <= x <= hi for x in seen)
    assert len(seen) <= 30
    with mp.workdps(200):
        exact = mp.findroot(lambda x: horner(dpoly, x), root)
    assert abs(root - exact) <= mpf("1e-60") * exact


# Relative offsets from a root: on it, and 1e-60 to 1e-2 to either side.
ROOT_OFFSETS = [0] + [side * mpf(10) ** e for side in (1, -1)
                      for e in (-60, -40, -20, -15, -10, -5, -2)]


@st.composite
def float_tier_cases(draw, table):
    """A polynomial (integer coefficients, or a row ``P_k`` or ``P_k'`` of
    the d0 alpha=2 table) and a point on or near one of its real roots, or
    a power of two."""
    if draw(st.booleans()):
        c0, inner, lead = draw(SPARSE_POLYS)
        coeffs = [mpf(c) for c in [c0] + inner + [lead]]
        roots = polynomial_real_roots(coeffs)
    else:
        coeffs = table.rows[draw(st.integers(1, 60))].coeffs
        if draw(st.booleans()):
            coeffs = poly.derivative_coeffs(coeffs)
        roots = list(positive_roots(Polynomial(coeffs)))
    if roots and draw(st.booleans()):
        return coeffs, draw(st.sampled_from(roots)) * (1 + draw(st.sampled_from(ROOT_OFFSETS)))
    return coeffs, mpf(2) ** draw(st.integers(-30, 30))


def _fraction(x):
    """The finite mpf ``x`` as an exact fraction."""
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


# Roots 2^-8000, 1 and 2^8000 under a leading 2^-4000: coefficient exponents
# from -4000 to 4000, far outside float64, which defers there.
WIDE_ROOTS = [mpf(2) ** -8000, mpf(1), mpf(2) ** 8000]
WIDE_CASES = st.tuples(st.sampled_from(WIDE_ROOTS), st.sampled_from(ROOT_OFFSETS)).map(
    lambda case: (_expand(WIDE_ROOTS, mpf(2) ** -4000), case[0] * (1 + case[1])))


def _exact_value(coeffs, x):
    """``P(x)`` as an exact fraction."""
    exact = 0
    for c in reversed(coeffs):
        exact = exact * _fraction(x) + _fraction(c)
    return exact


@settings(derandomize=True, max_examples=150)
@given(st.data())
def test_float_tier_radius_holds_the_exact_and_the_working_value(d0_alpha2_table, data):
    # The working value is the rounded-once Polynomial value, which the scan
    # reads wherever the float64 tier defers.
    coeffs, x = data.draw(float_tier_cases(d0_alpha2_table))
    got = poly._float_horner(poly._float_form(Polynomial(coeffs).coeffs), x)
    if got is None:
        return
    y, r = got
    exact, working = _exact_value(coeffs, x), _fraction(Polynomial(coeffs)(x))
    lo, hi = Fraction(y) - Fraction(r), Fraction(y) + Fraction(r)
    assert lo <= exact <= hi
    assert lo <= working <= hi
    if abs(y) > r:
        assert (working > 0) == (y > 0)


@settings(derandomize=True, max_examples=50)
@given(st.data())
def test_polynomial_value_lies_within_the_proved_bound(d0_alpha2_table, data):
    # Within half an ulp plus 2^-62 (n + 1) u S of the exact value, also
    # beside roots 2^8000 apart and with coefficient exponents thousands of
    # bits apart (WIDE_CASES), where the float64 tier defers.
    coeffs, x = data.draw(float_tier_cases(d0_alpha2_table) | WIDE_CASES)
    working, exact = _fraction(Polynomial(coeffs)(x)), _exact_value(coeffs, x)
    u, ax = Fraction(1, 2 ** mp.prec), abs(_fraction(x))
    size = sum(abs(_fraction(c)) * ax ** j for j, c in enumerate(coeffs))
    assert abs(working - exact) <= u * abs(working) + Fraction(len(coeffs), 2 ** 62) * u * size


# A coefficient m 2^e with an odd mantissa m of 402 to 601 bits, about twice
# the 213 bits of 64 digits, and a size in float64's range.
WIDE_MANTISSA_COEFFS = st.lists(st.tuples(
    st.integers(1, 2 ** 200), st.integers(0, 2 ** 200), st.booleans(), st.integers(-650, -350)),
    min_size=1, max_size=21)


@settings(derandomize=True, max_examples=60)
@given(WIDE_MANTISSA_COEFFS, st.integers(2 ** 52, 2 ** 53), st.integers(-61, -45))
def test_a_polynomial_reads_coefficients_wider_than_the_working_precision(terms, xm, xe):
    # The exact column sums of a table's prefix rows carry more bits than
    # the working precision: the value is still within half an ulp plus
    # 2^-62 (n + 1) u S of the exact one, and the float64 radius holds both.
    with mp.workprec(1000):  # exact: no mantissa here exceeds 602 bits
        coeffs = [mp.ldexp((-1) ** neg * ((a << 401) + 2 * b + 1), e) for a, b, neg, e in terms]
    x = mp.ldexp(xm, xe)
    p = Polynomial(coeffs)
    assert all(c._mpf_[3] > 400 > mp.prec for c in p.coeffs)
    working, exact = _fraction(p(x)), _exact_value(coeffs, x)
    u, ax = Fraction(1, 2 ** mp.prec), abs(_fraction(x))
    size = sum(abs(_fraction(c)) * ax ** j for j, c in enumerate(coeffs))
    assert abs(working - exact) <= u * abs(working) + Fraction(len(coeffs), 2 ** 62) * u * size
    y, r = poly._float_horner(poly._float_form(p.coeffs), x)
    lo, hi = Fraction(y) - Fraction(r), Fraction(y) + Fraction(r)
    assert lo <= exact <= hi and lo <= working <= hi
    if abs(y) > r:
        assert (working > 0) == (y > 0)


def test_a_scan_beyond_float64_range_finds_the_roots_it_should():
    # Grid points from 2^8000 down to 2^-8000, and from 2^1050 to 2^-1100,
    # which float64 cannot hold: those samples take the Polynomial value.
    # The roots below 10^(-dps/2) are dropped, as the docstring says.
    assert list(positive_roots(Polynomial(_expand(WIDE_ROOTS, mpf(2) ** -4000)))) == [
        mpf(2) ** 8000, 1]
    roots = [mpf(2) ** 1050, mpf(3)]
    scanned = list(positive_roots(Polynomial(_expand(roots + [mpf(2) ** -1100], 1))))
    assert len(scanned) == 2
    for a, b in zip(scanned, roots):
        assert abs(a - b) <= mpf("1e-60") * b


def test_float_tier_leaves_every_scan_decision_unchanged(d0_alpha2_table, monkeypatch):
    # Each run records, row by row, the brackets the scan hands to the polish
    # (its decisions), the roots, and the Polynomial evaluations at working
    # precision (the scan's) and above it (the polish's).  The reference runs
    # on the Polynomial value alone, with the float64 tier switched off.
    polys = [d0_alpha2_table.rows[k].coeffs for k in range(1, 61)]
    rows = polys + [poly.derivative_coeffs(p) for p in polys]
    base, evaluate, polish, mp_horner = mp.prec, Polynomial.__call__, poly._polish, poly.horner

    def complex_only(coeffs, x):
        if not isinstance(x, mp.mpc):
            raise AssertionError("the scan called horner at a real point")
        return mp_horner(coeffs, x)

    def run():
        brackets, roots, calls = [], [], [0, 0]

        def counted(p, x):
            calls[mp.prec > base] += 1
            return evaluate(p, x)

        def recorded(row, lo, hi):
            brackets[-1].append((lo.x, hi.x))
            return polish(row, lo, hi)

        monkeypatch.setattr(Polynomial, "__call__", counted)
        monkeypatch.setattr(poly, "_polish", recorded)
        for p in rows:
            brackets.append([])
            roots.append(list(positive_roots(Polynomial(p))))
        return brackets, roots, calls

    monkeypatch.setattr(poly, "horner", complex_only)
    tiered = run()
    # The polish's steps read the Polynomial value 725 times on these rows.
    assert tiered[2][1] <= 1000
    # The grid is held in float64 log2 space: every bracket end is exact at 53 bits.
    assert all(x._mpf_[3] <= 53 for row in tiered[0] for ends in row for x in ends)
    # Each scan cell is visited once, so no row polishes a bracket twice.
    assert all(len(set(row)) == len(row) for row in tiered[0])
    monkeypatch.setattr(poly, "_float_horner", lambda fcoeffs, x: None)
    brackets, roots, calls = run()
    # The float64 tier decides most scan points on its own.
    assert 4 * tiered[2][0] < calls[0]
    assert tiered[0] == brackets
    assert [len(r) for r in tiered[1]] == [len(r) for r in roots]
    for a, b in zip(sum(tiered[1], []), sum(roots, [])):
        assert abs(a - b) <= mpf("1e-50") * b


def test_only_the_scan_builds_a_float_form(monkeypatch):
    # Rows, prefix rows and the complex-pair tables never read float64
    # coefficients; only the positive-root scan does, once per scan.
    def refused(coeffs):
        raise AssertionError("a float form was built outside the scan")

    monkeypatch.setattr(poly, "_float_form", refused)
    for table_id in ("phi4-exponents", "phi4-fixed-point"):
        run_benchmark(table_id)
    with mp.workdps(64):
        table = build_rho_table(d0_partition_coeffs(62), MappingSpec(
            MappingFamily.POWER_CUT, 2, prefactor_p="0.5"))
        assert mp.isfinite(table.prefix_row(61)(mpf(3)))
        with pytest.raises(AssertionError, match="outside the scan"):
            next(positive_roots(table.rows[5]))


@pytest.fixture(scope="module")
def small_table():
    with mp.workdps(64):
        return build_rho_table(d0_partition_coeffs(10), MappingSpec(
            MappingFamily.POWER_CUT, 2, prefactor_p="0.5"))


def test_public_calls_leave_working_precision_unchanged(small_table, tmp_path):
    crit = RhoSelectionCriterion()
    spec = MappingSpec(MappingFamily.POWER_CUT, 2)
    a = 1 / mpf("1.5")
    series = d0_partition_coeffs(8)
    calls = [
        (lambda: select_rho(small_table, 6, crit), None),
        (lambda: select_rho(small_table, 0, crit), UsageError),
        (lambda: odm_value(small_table, 6, crit, mpf(2)), None),
        (lambda: odm_value(small_table, 6, crit, mpf(-2)), DomainError),
        (lambda: lambda_of_g(mpf(3), mpf(1), spec), None),
        (lambda: lambda_of_g(mp.nan, mpf(1), spec), DomainError),
        (lambda: borel_sum(series, a, 0, mpf("0.5")), None),
        (lambda: borel_sum(series, a, 0, 0), UsageError),
        (lambda: borel_pade_sum(series, 0, 2, 2, mpf("0.5")), None),
        (lambda: borel_pade_sum(series, 0, 2, 2, mp.inf), UsageError),
        (lambda: solve_saddle(2), None),
        (lambda: solve_saddle(1), UsageError),
        (lambda: d0_exact_rate(), None),
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


@st.composite
def short_series(draw):
    """1-6 small integer coefficients padded with 0-4 zeros, an [L/M] split
    with ``L + M`` up to the order, an ODM order and a coupling, possibly
    complex.  Few distinct values make exactly singular Pade systems likely."""
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    coeffs += [0] * draw(st.integers(0, 4))
    order = len(coeffs) - 1
    L = draw(st.integers(0, order))
    M = draw(st.integers(0, order - L))
    k = draw(st.integers(1, max(order, 1)))
    g = draw(st.sampled_from(["0.5", "2", "5", "1e6", "-1", "inf", "1j"]))
    return PowerSeries(coeffs), L, M, k, (mp.inf if g == "inf" else 1j if g == "1j" else mpf(g))


@settings(derandomize=True, max_examples=100)
@given(short_series())
# A Pade system whose second LU column is exactly zero below the pivot.
@example((PowerSeries([1, 1, 1, 1, 0, 0]), 1, 3, 2, mpf(2)))
def test_summation_entries_end_in_a_finite_value_or_a_resum_error(case):
    s, L, M, k, g = case
    mapping = MappingSpec(MappingFamily.POWER_CUT, 2, prefactor_p="0.5")

    def odm():
        report = odm_value(build_rho_table(s, mapping), k, RhoSelectionCriterion(), g)
        return report.value, report.error_estimate

    borel_calls = [
        lambda: borel_sum(s, 1 / mpf("1.5"), 0, g),
        lambda: borel_pade_sum(s, 0, L, M, g),
    ]
    for call in [odm] + borel_calls + [lambda: (pade_eval(pade_fit(s, L, M), g), None)]:
        try:
            value, error = call()
        except ResumError:
            continue
        assert mp.isfinite(value)
        # Pade has no estimate, ODM none at the table's last order.
        if error is not None or call in borel_calls:
            assert mp.isfinite(error) and error >= 0


SPEC = MappingSpec(MappingFamily.POWER_CUT, 2)


# Each call ended in a TypeError, KeyError or IndexError, a wrong value or no
# error at all.
PROBES = {
    "family-string": ("family", lambda t: MappingSpec("power-cut", 2)),
    "mode-string": ("mode", lambda t: RhoSelectionCriterion(mode="mixed")),
    "predicted_R-A-inf": ("A", lambda t: predicted_R(2, mp.inf)),
    "conformal-a-inf": ("a", lambda t: conformal_map_coeffs(d0_partition_coeffs(6), mp.inf)),
    "g_of_lambda-rho-negative": ("rho", lambda t: g_of_lambda(mpf("0.5"), -1, SPEC)),
    "g_of_lambda-lambda-inf": ("lambda", lambda t: g_of_lambda(mp.inf, 1, SPEC)),
    "g_of_lambda-lambda-2": ("lambda", lambda t: g_of_lambda(
        2, 1, MappingSpec(MappingFamily.POWER_CUT, "1.5"))),
    "d0_partition_coeffs-2.5": ("K", lambda t: d0_partition_coeffs(2.5)),
    "zeta_series-2.5": ("order", lambda t: zeta_series(SPEC, 2.5)),
    "select_rho-2.5": ("k", lambda t: select_rho(t, 2.5, RhoSelectionCriterion())),
    "convergence_study-2.5": ("K", lambda t: convergence_study(
        t, RhoSelectionCriterion(), 2.5, mp.inf)),
    "pade_fit-2.5": ("L", lambda t: pade_fit(d0_partition_coeffs(6), 2.5, 1)),
    "borel_pade_sum-2.5": ("M", lambda t: borel_pade_sum(d0_partition_coeffs(6), 0, 2, 2.5, 1)),
    "lambda_of_g-complex": ("g", lambda t: lambda_of_g(1j, 1, SPEC)),
    "lambda_of_g-None": ("g", lambda t: lambda_of_g(None, 1, SPEC)),
    "pade_eval-None": ("g", lambda t: pade_eval(pade_fit(d0_partition_coeffs(6), 1, 1), None)),
    "d0_partition_value-complex": ("g", lambda t: d0_partition_value(1j)),
    "d0_partition_value-None": ("g", lambda t: d0_partition_value(None)),
    "odm_value-None": ("g", lambda t: odm_value(t, 6, RhoSelectionCriterion(), None)),
    "polynomial_real_roots-nan": ("coeffs[0]", lambda t: polynomial_real_roots([mp.nan, 1])),
    "polynomial_real_roots-inf": ("coeffs[0]", lambda t: polynomial_real_roots([mp.inf, 1])),
    "polynomial_real_roots-inner-nan": ("coeffs[1]", lambda t: polynomial_real_roots(
        [1, mp.nan, 1])),
    "eval-None": ("x", lambda t: d0_partition_coeffs(6).eval(None)),
    "eval-abc": ("x", lambda t: d0_partition_coeffs(6).eval("abc")),
    "eval-nan": ("x", lambda t: d0_partition_coeffs(6).eval(mp.nan)),
    "PadeApproximant-empty": ("denominator", lambda t: PadeApproximant((), ())),
    "PadeApproximant-inf-numerator": ("numerator[1]", lambda t: PadeApproximant(
        (1, mp.inf), (1,))),
    "PadeApproximant-nan-denominator": ("denominator[1]", lambda t: PadeApproximant(
        (1,), (1, mp.nan))),
    "PowerSeries-abc": ("coeffs[1]", lambda t: PowerSeries(["1", "abc"])),
    "PowerSeries-inf": ("coeffs[1]", lambda t: PowerSeries([1, mp.inf])),
    "binomial_series-p-inf": ("p", lambda t: binomial_series(mp.inf, 3)),
    "RhoPolynomialTable-nan-row": ("rows[1]", lambda t: RhoPolynomialTable(
        ((mpf(1),), (mpf(1), mp.nan)), SPEC)),
    "RhoPolynomialTable-int-row": ("rows[0]", lambda t: RhoPolynomialTable(((1,),), SPEC)),
    "Polynomial-x-inf": ("x", lambda t: poly.Polynomial((mpf(1), mpf(1)))(mp.inf)),
    "Polynomial-x-minus-inf": ("x", lambda t: poly.Polynomial((mpf(1), mpf(1)))(-mp.inf)),
    "Polynomial-x-nan": ("x", lambda t: poly.Polynomial((mpf(1), mpf(1)))(mp.nan)),
    "Polynomial-x-None": ("x", lambda t: t.rows[3](None)),
    "Polynomial-x-abc": ("x", lambda t: t.prefix_row(3)("abc")),
    "Polynomial-x-complex": ("x", lambda t: t.rows[3](1j)),
    "Polynomial-empty": ("row", lambda t: poly.Polynomial((), "row")),
    "Polynomial-int-top": ("row", lambda t: poly.Polynomial((mpf(1), mpf(1), 0), "row")),
    "Polynomial-int-inner": ("row", lambda t: poly.Polynomial((mpf(1), 1, mpf(1)), "row")),
    "Polynomial-inf-top": ("row", lambda t: poly.Polynomial((mpf(1), mp.inf), "row")),
    "Polynomial-inf-constant": ("row", lambda t: poly.Polynomial((-mp.inf, mpf(1)), "row")),
    "Polynomial-nan-top": ("row", lambda t: poly.Polynomial((mpf(1), mpf(0), mp.nan), "row")),
    "Polynomial-nan-inner": ("row", lambda t: poly.Polynomial((mpf(1), mp.nan, mpf(1)), "row")),
    "laplace_moments-g-inf": ("g", lambda t: laplace_moments(1, 0, mp.inf, 2)),
    "laplace_moments-g-nan": ("g", lambda t: laplace_moments(1, 0, mp.nan, 2)),
    "laplace_moments-g-negative": ("g", lambda t: laplace_moments(1, 0, -1, 2)),
    "laplace_moments-n-2.5": ("n", lambda t: laplace_moments(1, 0, 1, 2.5)),
    "laplace_moments-n-negative": ("n", lambda t: laplace_moments(1, 0, 1, -1)),
    "integral-inf": ("coeffs[0]", lambda t: laplace_moments(1, 0, 1, 2).integral(
        (mp.inf, 1))),
    "integral-nan": ("coeffs[0]", lambda t: laplace_moments(1, 0, 1, 2).integral(
        (mp.nan,))),
}


@pytest.mark.parametrize("probe", PROBES)
def test_a_bad_public_input_is_a_resum_error_naming_it(small_table, probe):
    name, call = PROBES[probe]
    with pytest.raises(ResumError) as info:
        call(small_table)
    assert str(info.value).startswith(name + " "), str(info.value)
