"""Borel-Leroy transform, disk mapping, Laplace summation, rational variant."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from resum import (
    PowerSeries,
    ResourceError,
    ResumError,
    SummabilityError,
    UsageError,
    anharmonic_ground_coeffs,
    borel_leroy_transform,
    borel_pade_sum,
    borel_sum,
    conformal_map_coeffs,
    d0_partition_coeffs,
    d0_partition_value,
    nu_inv_series,
    pade_eval,
    pade_fit,
    rg_series,
)
from resum import borel, pade, poly
from resum.poly import horner
from resum.precision import to_mpf
from stieltjes_helpers import atoms, stieltjes_coeffs, stieltjes_value


def alternating_factorial(order):
    return PowerSeries(tuple((-1) ** k * mp.factorial(k) for k in range(order + 1)))


def test_transform_factorial():
    b = borel_leroy_transform(PowerSeries(tuple(mp.factorial(k) for k in range(6))), 0)
    assert all(abs(c - 1) < mpf("1e-60") for c in b.coeffs)


def test_transform_alternating():
    b = borel_leroy_transform(alternating_factorial(5), 0)
    assert all(abs(abs(c) - 1) < mpf("1e-60") for c in b.coeffs)
    assert b.coeffs[1] == -1


def test_transform_beta_third_coefficient():
    rg = rg_series()
    b = borel_leroy_transform(rg.beta, 2)
    want = (mpf(-308) / 729) / mp.gamma(6)
    assert abs(b.coeffs[3] - want) < mpf("1e-60")


def test_transform_rejects_negative_sigma():
    with pytest.raises(UsageError):
        borel_leroy_transform(alternating_factorial(3), -1)


def test_map_identity_series():
    b = PowerSeries((mpf(0), mpf(1), mpf(0), mpf(0)), "z")
    mapped = conformal_map_coeffs(b, 4)
    assert mapped.coeffs == (mpf(0), mpf(1), mpf(2), mpf(3))


def test_map_constant_unchanged():
    b = PowerSeries((mpf("3.25"), mpf(0)), "z")
    mapped = conformal_map_coeffs(b, 1)
    assert mapped.coeffs[0] == mpf("3.25")
    assert mapped.coeffs[1] == 0


def test_map_continues_beyond_radius():
    # 1/(1+z) has radius 1; the mapped partial sums converge at z = 10.
    order = 40
    b = PowerSeries(tuple(mpf(-1) ** k for k in range(order + 1)), "z")
    mapped = conformal_map_coeffs(b, 1)
    u = (mp.sqrt(11) - 1) / (mp.sqrt(11) + 1)  # (sqrt(1+az) - 1)/(sqrt(1+az) + 1), a = 1
    total = mpf(0)
    partials = []
    for k, c in enumerate(mapped.coeffs):
        total += c * u ** k
        partials.append(total)
    want = mpf(1) / 11
    assert abs(partials[-1] - want) < mpf("1e-6")
    assert abs(partials[-1] - want) < abs(partials[10] - want)


def exact(x):
    """The finite mpf ``x`` as a Fraction."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


@pytest.mark.parametrize("source", [d0_partition_coeffs, anharmonic_ground_coeffs])
@pytest.mark.parametrize("K", [24, 60])
@pytest.mark.parametrize("a", [Fraction(2, 3), Fraction(1, 8)], ids=str)
def test_map_is_the_exact_composition_rounded_once(source, K, a):
    # Each c_m lies within half an ulp of sum_n b_n w^n C(m+n-1, m-n), taken
    # exactly in the rounded b_n and the rounded w = 4/a the map itself reads.
    b = borel_leroy_transform(source(K), 0)
    a = mpf(a.numerator) / a.denominator
    mapped = conformal_map_coeffs(b, a)
    w = exact(4 / a)
    terms = [exact(c) * w ** n for n, c in enumerate(b.coeffs)]
    assert mapped.coeffs[0] == b.coeffs[0]
    for m in range(1, K + 1):
        want = sum(terms[n] * comb(m + n - 1, m - n) for n in range(1, m + 1))
        got = mapped.coeffs[m]
        _, _, exp, bc = got._mpf_
        assert abs(exact(got) - want) <= Fraction(2) ** (exp + bc - mp.prec - 1), m


def test_map_of_coefficients_a_billion_decades_apart():
    # The exact sums floor what lies beyond 2^16 bits below the largest
    # term, so a tiny coefficient costs no billion-bit integers.
    for tiny in ("1e-1000000000", "-1e-1000000000"):
        mapped = conformal_map_coeffs(PowerSeries((1, 1, mpf(tiny)), "z"), 1)
        assert mapped.coeffs == (1, 4, 8)


def test_borel_sum_alternating_factorial():
    got, err = borel_sum(alternating_factorial(30), 1, 0, 1)
    oracle = mp.quad(lambda t: mp.exp(-t) / (1 + t), [0, mp.inf])
    assert abs(got - oracle) <= 10 * err
    assert abs(got - oracle) < mpf("1e-8")


def test_borel_sum_convergent_exponential():
    e = PowerSeries(tuple(1 / mp.factorial(k) for k in range(20)))
    got, err = borel_sum(e, 1, 0, 1)
    assert abs(got - mp.e) <= 10 * err


def test_borel_sum_constant_preserved():
    for sigma in (0, "1.5"):
        c = PowerSeries((mpf("2.25"), mpf(0), mpf(0)))
        assert abs(borel_sum(c, 1, sigma, 1)[0] - mpf("2.25")) < mpf("1e-20")


def test_borel_sum_polynomial_consistency():
    # Polynomial sources are their own transform target: the Gamma weights
    # cancel term by term once the mapped expansion is padded long enough
    # (the pad controls the u-tail of the composed series).
    poly = PowerSeries((mpf(2), mpf(-3), mpf("0.5")) + (mpf(0),) * 158)
    for g in (mpf("0.5"), mpf(2)):
        want = 2 - 3 * g + mpf("0.5") * g * g
        assert abs(borel_sum(poly, 1, 0, g)[0] - want) < mpf("1e-13") * max(1, abs(want))


def test_borel_sum_sigma_independence():
    s = alternating_factorial(30)
    for g in (mpf("0.5"), mpf(1), mpf(2)):
        (v0, e0), (v1, e1) = (borel_sum(s, 1, sig, g) for sig in (0, 1))
        assert abs(v0 - v1) <= 10 * (e0 + e1)


@pytest.mark.parametrize("digits", [40, 64])
def test_moment_kernel_matches_direct_quadrature(digits):
    # Reference: mp.quad of the mapped integrand t^sigma e^-t sum_n c_n u(g t)^n,
    # with the disk variable u(z) = (sqrt(1+z) - 1)/(sqrt(1+z) + 1) at a = 1.
    def u(z):
        root = mp.sqrt(1 + z)
        return (root - 1) / (root + 1)

    with mp.workdps(digits):
        for sigma in (0, 1, mpf("2.5"), 3):
            for K in (2, 7, 24):
                s = alternating_factorial(K)
                coeffs = conformal_map_coeffs(borel_leroy_transform(s, sigma), 1).coeffs
                for g in (mpf("0.5"), mpf("1.4"), mpf(3), mpf(5)):
                    want = mp.quad(lambda t: t ** sigma * mp.exp(-t)
                                   * horner(coeffs, u(g * t)), [0, mp.inf])
                    got, _ = borel_sum(s, 1, sigma, g)
                    assert abs(got - want) <= mpf(10) ** (5 - digits) * abs(want), (sigma, K, g)


def test_truncation_error_is_the_order_k_minus_one_difference():
    s = alternating_factorial(12)
    # The error is the order K-1 difference plus the order-K quadrature estimate.
    for sigma in (0, 2):
        got, err = borel_sum(s, 1, sigma, 2)
        prev, _ = borel_sum(s.truncate(11), 1, sigma, 2)
        coeffs = conformal_map_coeffs(borel_leroy_transform(s, sigma), 1).coeffs
        want, quad_err = borel.laplace_moments(1, sigma, 2, 12).integral(coeffs)
        assert got == want
        assert abs(err - quad_err - abs(got - prev)) <= mpf("1e-60") * abs(prev)


def test_laplace_integral_rejects_more_coefficients_than_moments():
    moments = borel.laplace_moments(1, 0, 1, 2)
    full = moments.integral((1, 1, 1))
    assert moments.integral((1, 1)) != full
    with pytest.raises(UsageError, match="4 coefficients for 3 Laplace integrals"):
        moments.integral((1, 1, 1, 1000))
    assert moments.integral((1, 1, 1)) == full


def test_thirty_digit_integrals_match_forty_digit_ones(node_count):
    # The borel-map-exponents setting, n = 7 and its three mapped series on
    # one moment build per (sigma, g), at its 30 digits and at 40.
    values = []
    for digits in (30, 40):
        values.append([])
        with mp.workdps(digits):
            rg = rg_series()
            for sigma in (0, 1, 2, 3):
                sums = [conformal_map_coeffs(borel_leroy_transform(s.truncate(7), sigma),
                                             rg.large_order_a).coeffs
                        for s in (rg.beta, nu_inv_series(), rg.gamma_inv)]
                for g in (mpf("0.5"), mpf("1.4"), mpf(3)):
                    moments = borel.laplace_moments(rg.large_order_a, sigma, g, 7)
                    values[-1] += [moments.integral(c)[0] for c in sums]
    assert len(values[0]) == 36
    for got, ref in zip(*values):
        assert abs(got - ref) <= mpf("1e-24") * max(abs(ref), 1)
    # Every moment runs to working precision: the node counts of the d0
    # order-8 requests at g = 2 in perfbench's tiny deck.
    s = d0_partition_coeffs(8)
    node_count[0] = 0
    borel_sum(s.truncate(8), 1 / mpf("1.5"), 0, 2)
    assert node_count[0] == 1096
    node_count[0] = 0
    borel_pade_sum(s, 0, 4, 4, 2)
    assert node_count[0] == 802


def test_unreachable_tolerance_raises_after_twelve_levels():
    with mp.workdps(40):
        # Level values that never settle: each level adds a seeded random
        # step of 2^(Q + 12) to the node sum.
        rng, q = random.Random(7), mp.prec + borel._GUARD_BITS
        laplace = borel.Laplace(0, lambda xs, ws: [
            rng.randrange(-1 << (q + 12), 1 << (q + 12))])
        with pytest.raises(ResourceError, match=r"tolerance 1\.0e-32"):
            laplace.integral((1,))
    assert [len(piece[3]) for piece in laplace.pieces] == [12, 12]


def test_node_cache_stays_within_its_bound():
    # Each Leroy shift is a new key set: two pieces times several levels.
    s = alternating_factorial(3)
    with mp.workdps(30):
        for k in range(12):
            borel_sum(s, 1, mpf(k) / 7, 1)
            assert borel._weighted_nodes.cache_info().currsize <= borel._NODE_SETS
    assert borel._weighted_nodes.cache_info().currsize == borel._NODE_SETS


def test_borel_pade_alternating_factorial():
    got, _ = borel_pade_sum(alternating_factorial(10), 0, 0, 1, 1)
    oracle = mp.quad(lambda t: mp.exp(-t) / (1 + t), [0, mp.inf])
    assert abs(got - oracle) < mpf("1e-30")


def test_borel_pade_rational_source():
    # Source whose transform is rational: f_k = k! / 2^k -> B = 1/(1 - z/2),
    # pole on the positive axis -> summability violation.
    s = PowerSeries(tuple(mp.factorial(k) / mpf(2) ** k for k in range(8)))
    with pytest.raises(SummabilityError):
        borel_pade_sum(s, 0, 0, 1, 1)


def test_borel_pade_skips_the_root_solver_without_sign_changes(monkeypatch):
    # Every [n/n] denominator of the d=0 series alternates in no sign, so by
    # Descartes' rule it has no positive zero and needs no root solver.
    def fail(*args, **kwargs):
        raise AssertionError("polyroots called")

    monkeypatch.setattr("resum.poly.polyroots", fail)
    s = d0_partition_coeffs(8)
    approx = pade_fit(borel_leroy_transform(s, 0), 4, 4)
    assert all(c > 0 for c in approx.denominator)
    got, _ = borel_pade_sum(s, 0, 4, 4, mpf("0.5"))
    assert abs(got - d0_partition_value(mpf("0.5"))) < mpf("1e-3")


# borel_pade_sum of [8/8] at g = 2 for order-16 series, to 64 digits, as the
# mp Horner integrand gave them: (generator, sigma, value, error estimate).
PINNED_BOREL_PADE = [
    (d0_partition_coeffs, "0",
     "0.8721843476416792213697993918434519013442142098656111588481062855", "1.0e-66"),
    (d0_partition_coeffs, "1.5",
     "0.8721848090452317420171862647204888392594877771016392884322132416", "1.0e-69"),
    (anharmonic_ground_coeffs, "0",
     "0.5507947181812609395227504186728321611007093426305418465471749402", "1.0e-82"),
    (anharmonic_ground_coeffs, "1.5",
     "0.5507947181705039902748286418248173917782934341849898168980035295", "1.0e-79"),
]


@pytest.mark.parametrize("coeffs, sigma, value, error", PINNED_BOREL_PADE)
def test_borel_pade_values_are_pinned(coeffs, sigma, value, error):
    # The Polynomial integrand, rounded once per node, sums to the same
    # 64 digits as the mp Horner one did.
    got, err = borel_pade_sum(coeffs(16), mpf(sigma), 8, 8, mpf(2))
    assert (mp.nstr(got, 64), mp.nstr(err, 5)) == (value, error)


def test_borel_pade_and_pade_eval_read_no_mp_horner(monkeypatch):
    # The rational integrand and pade_eval are Polynomial values at real
    # points; mp Horner is left to complex points.
    def refused(coeffs, x):
        raise AssertionError("mp Horner called at a real point")

    monkeypatch.setattr(poly, "horner", refused)
    assert not hasattr(borel, "horner") and not hasattr(pade, "horner")
    coeffs, sigma, value, _ = PINNED_BOREL_PADE[1]
    got, _ = borel_pade_sum(coeffs(16), mpf(sigma), 8, 8, mpf(2))
    assert mp.nstr(got, 64) == value
    approx = pade_fit(d0_partition_coeffs(16), 4, 4)
    assert abs(pade_eval(approx, mpf("0.1")) - d0_partition_value(mpf("0.1"))) < mpf("1e-6")
    with pytest.raises(AssertionError, match="mp Horner"):
        poly.Polynomial(approx.denominator)(mp.mpc(0, 1))


def test_borel_pade_m_zero_matches_plain_integral():
    poly = PowerSeries((mpf(1), mpf(2), mpf(3), mpf(0), mpf(0)))
    got, _ = borel_pade_sum(poly, 0, 2, 0, mpf("0.7"))
    want = 1 + 2 * mpf("0.7") + 3 * mpf("0.49")
    assert abs(got - want) < mpf("1e-25")


def test_borel_pade_large_orders_reproduce_rational():
    # Rational source 2/(1 + g/2): the transform is entire, so a large
    # rational fit plus the Laplace integral reproduces the function at a
    # coupling where the fit covers the weighted range.
    den = (mpf(1), mpf("0.5"))
    coeffs = []
    for k in range(13):
        acc = (mpf(2) if k == 0 else mpf(0))
        for j in range(1, min(k, 1) + 1):
            acc -= den[j] * coeffs[k - j]
        coeffs.append(acc)
    s = PowerSeries(tuple(coeffs))
    got, _ = borel_pade_sum(s, 0, 6, 6, mpf("0.3"))
    want = 2 / (1 + mpf("0.3") / 2)
    assert abs(got - want) < mpf("1e-10")


def test_config_validation():
    s = alternating_factorial(4)
    for name, a, sigma in (("a", 0, 0), ("sigma", 1, -1), ("a", mp.inf, 0), ("a", mp.nan, 0),
                           ("sigma", 1, mp.nan), ("sigma", 1, mp.inf)):
        for call in (lambda: borel_sum(s, a, sigma, 1),
                     lambda: borel.laplace_moments(a, sigma, 1, 2)):
            with pytest.raises(UsageError, match="^%s must be" % name):
                call()
    with pytest.raises(UsageError):
        borel_sum(s, 1, 0, -1)


def test_infinite_coupling_rejected_up_front():
    s = alternating_factorial(6)
    for call in (lambda g: borel_sum(s, 1, 0, g),
                 lambda g: borel_pade_sum(s, 0, 2, 2, g)):
        for g in (mp.inf, "inf", mp.nan):
            with pytest.raises(UsageError, match="g must be finite"):
                call(g)


def outcome(call, *args):
    """``_mpf_`` of the result, or the type of the exception raised."""
    try:
        return call(*args)._mpf_
    except Exception as exc:
        return type(exc)


def test_estimate_error_is_mpmaths_bit_for_bit(monkeypatch):
    fast, slow = borel._estimate_error, borel._TANH_SINH.estimate_error
    prec, eps = mp.prec, mp.eps / 8
    seen = []

    def record(seq, *args):
        seen.append((list(seq), args, mp.prec))
        return fast(seq, *args)

    monkeypatch.setattr(borel, "_estimate_error", record)
    borel_sum(alternating_factorial(8), 1, 1, mpf("0.7"))
    monkeypatch.undo()
    assert len(seen) > 20
    # D1 = log10|r[-1] - r[-2]|, D2 = log10|r[-1] - r[-3]|, D4 = min(0, max(D1^2/D2, 2 D1, -prec)).
    x = mpf("0.3")

    def levels(d1, d2=-2):
        return [x + 10 ** mpf(d2), x + 10 ** mpf(d1), x]

    # D4 1e-8 from -7: D1^2/D2 with D2 = -2, or 2 D1 above D1^2/D2 with D2 = -1.
    # float64 decides these.
    near = [levels(-mp.sqrt(2 * (7 + t))) for t in (mpf("-1e-8"), mpf("1e-8"))] + \
        [levels(mpf(-3.5) + t, -1) for t in (mpf("5e-9"), mpf("-5e-9"))]
    deferred = [
        levels(-mp.sqrt(14)), levels(mpf(-3.5), -1),  # D4 = -7 to working precision
        [x, 2 * x],                       # two levels: |r[0] - r[1]|
        [x, x, x],                        # all equal
        [x, 3 * x, 2 * x, 2 * x],         # r[-1] == r[-2]
        [x, 2 * x, 3 * x, 2 * x],         # r[-1] == r[-3]
        [x + 1, x + mpf("1e-9"), x],      # |r[-1] - r[-3]| = 1, D2 = 0
        [x + mpf("1.000001"), x + mpf("1e-9"), x],  # |D2| < 1e-6
        [x]]
    fallbacks = []
    monkeypatch.setattr(borel._TANH_SINH, "estimate_error",
                        lambda *args: fallbacks.append(args) or slow(*args))
    for seq, args, work in seen + [(seq, (prec, eps), prec + 20) for seq in near + deferred]:
        with mp.workprec(work):
            assert outcome(borel._estimate_error, seq, *args) == outcome(slow, seq, *args), seq
    # float64 decides every recorded call beyond two levels.
    assert len(fallbacks) == sum(len(seq) <= 2 for seq, _, _ in seen) + len(deferred)


def test_stieltjes_oracle_equals_the_laplace_integral():
    weights, ts = [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)], [1, Fraction(1, 2),
                                                                        Fraction(1, 5)]
    w, t = [to_mpf(x) for x in weights], [to_mpf(x) for x in ts]
    for g in (mpf("0.5"), mpf(2)):
        want = mp.quad(lambda s: mp.exp(-s) * mp.fsum(
            wi / (1 + g * ti * s) for wi, ti in zip(w, t)), [0, mp.inf])
        assert abs(stieltjes_value(weights, ts, g) - want) <= mpf("1e-60") * want


@st.composite
def stieltjes_pade_cases(draw):
    """Atoms and weights, an order 8-24, ``M`` the atom count, ``L`` in
    ``{M - 1, M}`` with ``L + M`` at most the order, and ``g``."""
    weights, ts = draw(atoms())
    M = len(ts)
    L = draw(st.sampled_from([M - 1, M]))
    order = draw(st.integers(max(8, L + M), 24))
    return weights, ts, order, L, M, draw(st.sampled_from(["0.5", "2", "5"]))


@settings(derandomize=True, max_examples=40)
@given(stieltjes_pade_cases())
def test_borel_pade_sums_a_stieltjes_series_exactly_or_refuses_by_name(case):
    # The Borel transform is rational of type [M-1/M], so a fit with M poles
    # and at least M - 1 zeros is the transform itself: F to 10^(10 - dps).
    weights, ts, order, L, M, g = case
    s = PowerSeries(stieltjes_coeffs(weights, ts, order))
    try:
        value, error = borel_pade_sum(s, 0, L, M, g)
    except ResumError:
        return
    want = stieltjes_value(weights, ts, g)
    assert abs(value - want) <= mpf(10) ** (10 - mp.dps) * abs(want), (case, value, want)
    assert mp.isfinite(error) and error >= 0
