"""The change of variables: profiles, tables, inversion, re-expansion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from resum import (
    DomainError,
    MappingFamily,
    MappingSpec,
    PowerSeries,
    ResumError,
    RhoPolynomialTable,
    RhoSelectionCriterion,
    UsageError,
    anharmonic_ground_coeffs,
    binomial_series,
    build_rho_table,
    compose,
    d0_partition_coeffs,
    g_of_lambda,
    lambda_of_g,
    multiply,
    rg_series,
    select_rho,
    zeta_series,
)
from resum import mapping as mapping_module
from resum.poly import horner
from resum.precision import tolerance
from resum.series import _mul_trunc
from series_helpers import revert, scale

POWER_CUT = MappingFamily.POWER_CUT
SHIFTED = MappingFamily.SHIFTED_POWER


def test_zeta_power_cut_quadratic():
    z = zeta_series(MappingSpec(POWER_CUT, 2), 3)
    assert z.coeffs == (mpf(0), mpf(1), mpf(2), mpf(3))


def test_zeta_shifted_geometric():
    z = zeta_series(MappingSpec(SHIFTED, 1), 3)
    assert z.coeffs == (mpf(0), mpf(1), mpf(1), mpf(1))


def test_zeta_power_cut_three_halves():
    z = zeta_series(MappingSpec(POWER_CUT, "1.5"), 2)
    assert z.coeffs == (mpf(0), mpf(1), mpf("1.5"))


def test_spec_validation():
    with pytest.raises(UsageError):
        MappingSpec(POWER_CUT, 1)
    with pytest.raises(UsageError):
        MappingSpec(SHIFTED, 0)
    with pytest.raises(UsageError):
        MappingSpec(SHIFTED, 2, prefactor_p=1, beta_covariant=True)
    with pytest.raises(UsageError):
        MappingSpec(POWER_CUT, 2, beta_covariant=True)
    for bad in (mp.nan, mp.inf):
        with pytest.raises(UsageError):
            MappingSpec(POWER_CUT, bad)
        with pytest.raises(UsageError):
            MappingSpec(POWER_CUT, 2, prefactor_p=bad)


def test_d0_table_first_orders():
    source = d0_partition_coeffs(4)
    table = build_rho_table(source, MappingSpec(POWER_CUT, 2, prefactor_p="0.5"))
    assert table.rows[0].coeffs == (mpf(1),)
    assert table.rows[1].coeffs == (mpf("0.5"), mpf("-0.125"))


def running_product_table(source, mapping):
    """``P_k[n] = f_n [lambda^k] (1-lambda)^(-p) zeta^n`` by a running
    product of the weight with ``zeta``, one truncated product per column."""
    K = source.order
    zeta = zeta_series(mapping, K)
    cur = list(binomial_series(-mapping.prefactor_p, K).coeffs)
    rows = [[mpf(0)] * (k + 1) for k in range(K + 1)]
    for n, fn in enumerate(source.coeffs):
        if n > 0:
            cur = _mul_trunc(cur, zeta.coeffs, K)
        if fn != 0:
            for k in range(n, K + 1):
                rows[k][n] += fn * cur[k]
    return tuple(tuple(row) for row in rows)


def padded(row, k):
    """The coefficients of the :class:`Polynomial` ``row``, padded with zeros
    above its stripped top to the ``k + 1`` of an order-``k`` row."""
    return row.coeffs + (mpf(0),) * (k + 1 - len(row.coeffs))


def padded_rows(table):
    return tuple(padded(row, k) for k, row in enumerate(table.rows))


@pytest.mark.parametrize("alpha, p, series, order", [
    ("2", "0.5", d0_partition_coeffs, 62), ("4", "0.5", d0_partition_coeffs, 62),
    ("3/2", "-0.5", anharmonic_ground_coeffs, 61)])
def test_power_cut_closed_form_is_bit_identical(alpha, p, series, order):
    # Dyadic exponents make both routes exact at 64 digits.
    source = series(order)
    mapping = MappingSpec(POWER_CUT, alpha, prefactor_p=p)
    assert padded_rows(build_rho_table(source, mapping)) == running_product_table(source, mapping)


def test_power_cut_closed_form_matches_product():
    source = d0_partition_coeffs(62)
    mapping = MappingSpec(POWER_CUT, "1.7", prefactor_p="0.3")
    table = build_rho_table(source, mapping)
    for row, ref_row in zip(padded_rows(table), running_product_table(source, mapping),
                            strict=True):
        for c, ref in zip(row, ref_row, strict=True):
            assert abs(c - ref) <= mpf("1e-62") * abs(ref)


def binomial_column_table(source, mapping):
    """``P_(n+m)[n] = f_n c_m`` with ``c_m`` the coefficients of the
    ``PowerSeries`` ``binomial_series(-(p + n alpha), K - n)``: one series
    per power-cut column."""
    K = source.order
    rows = [[mpf(0)] * (k + 1) for k in range(K + 1)]
    for n, fn in enumerate(source.coeffs):
        if fn != 0:
            col = binomial_series(-(mapping.prefactor_p + n * mapping.alpha), K - n)
            for k, c in enumerate(col.coeffs, n):
                rows[k][n] = fn * c
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("digits", [30, 64, 110])
@pytest.mark.parametrize("alpha, p, series, order", [
    ("2", "0.5", d0_partition_coeffs, 62), ("4", "0.5", d0_partition_coeffs, 24),
    ("3/2", "-1/3", anharmonic_ground_coeffs, 61), ("2.5", "0.3", d0_partition_coeffs, 40)])
def test_power_cut_rows_are_the_binomial_columns_bit_for_bit(digits, alpha, p, series, order):
    # Non-dyadic exponents round in the recursion: the rows must still be
    # the binomial series' coefficients times f_n, bit for bit.
    with mp.workdps(digits):
        source = series(order)
        mapping = MappingSpec(POWER_CUT, alpha, prefactor_p=p)
        assert padded_rows(build_rho_table(source, mapping)) == \
            binomial_column_table(source, mapping)


def test_power_cut_table_builds_no_power_series(monkeypatch):
    source = d0_partition_coeffs(24)
    built, post_init = [], PowerSeries.__post_init__
    monkeypatch.setattr(PowerSeries, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    binomial_series(1, 2)
    assert len(built) == 1  # the counter sees a series being built
    table = build_rho_table(source, MappingSpec(POWER_CUT, 2, prefactor_p="0.5"))
    assert table.source_order == 24 and len(built) == 1


def test_constant_source_is_mapping_invariant():
    source = PowerSeries((mpf(1), mpf(0), mpf(0), mpf(0)))
    table = build_rho_table(source, MappingSpec(POWER_CUT, 3))
    assert table.rows[0].coeffs == (mpf(1),)
    for k in range(1, 4):
        assert table.rows[k].coeffs == (mpf(0),)


def test_covariant_first_order_is_minus_one():
    rg = rg_series()
    table = build_rho_table(rg.beta, MappingSpec(SHIFTED, "1.5", beta_covariant=True))
    # P_1 is constant in rho; at rho = 1 it equals the leading flow slope.
    assert horner(table.rows[1].coeffs, mpf(1)) == mpf(-1)
    assert horner(table.rows[1].coeffs, mpf("2.7")) == mpf(-1)


def test_covariant_needs_vanishing_constant_term():
    bad = PowerSeries((mpf(1), mpf(-1), mpf(1)))
    with pytest.raises(UsageError):
        build_rho_table(bad, MappingSpec(SHIFTED, "1.5", beta_covariant=True))


def test_lambda_of_g_endpoints():
    spec = MappingSpec(POWER_CUT, 2)
    assert lambda_of_g(0, 1, spec) == 0
    assert lambda_of_g(mp.inf, 1, spec) == 1


def test_lambda_of_g_quadratic_case():
    # lambda/(1-lambda)^2 = 2 at rho=1: the root of 2 l^2 - 5 l + 2 in [0,1).
    lam = lambda_of_g(2, 1, MappingSpec(POWER_CUT, 2))
    assert abs(lam - mpf("0.5")) < mpf("1e-55")


def test_lambda_of_g_rejects_negative():
    # Negative, NaN, and so large that lambda rounds to 1 at 64 digits.
    for spec in (MappingSpec(POWER_CUT, 2), MappingSpec(SHIFTED, "1.5")):
        for g in (-1, mp.nan, mpf("1e200")):
            with pytest.raises(DomainError):
                lambda_of_g(g, 1, spec)


def test_lambda_of_g_complex_rho():
    rho = mp.mpc("0.8", "0.3")
    lam = lambda_of_g(mpf("1.4"), rho, MappingSpec(SHIFTED, "1.5"))
    assert abs(lam - (1 - (1 + mpf("1.4") / rho) ** (-1 / mpf("1.5")))) < mpf("1e-60")
    assert mp.im(lam) != 0
    with pytest.raises(UsageError):
        lambda_of_g(mpf("1.4"), rho, MappingSpec(POWER_CUT, 2))


def _counted_inversion(monkeypatch, rho):
    """``lambda_of_g(5, rho)`` at alpha = 4, p = 1/2: lambda, its 100-digit
    reference and the number of ``zeta_value`` calls the inversion made."""
    spec = MappingSpec(POWER_CUT, 4, prefactor_p="0.5")
    calls, zeta = [], mapping_module.zeta_value

    def counted(mapping, x):
        calls.append(x)
        return zeta(mapping, x)

    monkeypatch.setattr(mapping_module, "zeta_value", counted)
    lam = lambda_of_g(5, mpf(rho), spec)
    with mp.workdps(100):
        want = mp.findroot(lambda x: zeta(spec, x) - 5 / mpf(rho), lam)
    return lam, want, len(calls)


def test_lambda_of_g_newton_stops_once_its_step_vanishes(monkeypatch):
    # The Anderson-Bjorck steps reach the root by the 12th evaluation here and
    # stop once a step falls below the tolerance.
    lam, want, calls = _counted_inversion(monkeypatch, "0.16")
    assert calls <= 20
    assert abs(lam - want) <= mpf(10) ** (6 - mp.dps) * want


def test_lambda_of_g_stops_when_a_step_rounds_onto_a_bracket_end(monkeypatch):
    # Here a secant step rounds onto the bracket end it started from.  The
    # vanished step must stop the solve before the bisection fallback, which
    # would otherwise halve the bracket down to 91 evaluations.
    lam, want, calls = _counted_inversion(monkeypatch, "0.1684537626198761745")
    assert calls <= 20
    assert abs(lam - want) <= mpf(10) ** (6 - mp.dps) * want


def test_lambda_of_g_rejects_an_infinite_rho():
    with pytest.raises(UsageError, match="rho must be finite"):
        lambda_of_g(2, mp.inf, MappingSpec(POWER_CUT, 2))


def test_g_of_lambda_at_one_is_a_domain_error():
    with pytest.raises(DomainError, match="lambda = 1"):
        g_of_lambda(1, mpf(2), MappingSpec(POWER_CUT, 2))


@pytest.mark.parametrize("family, alpha", [(POWER_CUT, "1.5"), (POWER_CUT, "2"), (SHIFTED, "1.5")])
def test_lambda_of_g_relative_accuracy_at_small_coupling(family, alpha):
    # 10^(6 - digits) relative for g/rho = 10^-e down to 1e-317.  References at
    # 800 digits: Newton from lambda = g/rho (power-cut), the closed form (shifted).
    spec = MappingSpec(family, alpha)
    tol = mpf(10) ** (6 - mp.dps)
    for e in range(2, 318, 5):
        w = mpf(10) ** -e
        lam = lambda_of_g(w, 1, spec)
        with mp.workdps(800):
            a = mpf(alpha)
            if family is SHIFTED:
                want = 1 - (1 + w) ** (-1 / a)
            else:
                want = w
                for _ in range(12):
                    want -= ((want * (1 - want) ** -a - w)
                             / ((1 - want) ** (-a - 1) * (1 + (a - 1) * want)))
            assert abs(lam - want) <= tol * want, e


@given(st.floats(min_value=0.05, max_value=20), st.floats(min_value=0.1, max_value=5))
def test_lambda_monotone_in_g(g, rho):
    for family, alpha in ((POWER_CUT, "1.7"), (SHIFTED, "1.5")):
        spec = MappingSpec(family, alpha)
        lam1 = lambda_of_g(mpf(g), mpf(rho), spec)
        lam2 = lambda_of_g(mpf(g) * mpf("1.25"), mpf(rho), spec)
        assert 0 < lam1 < lam2 < 1
        back = g_of_lambda(lam1, mpf(rho), spec)
        assert abs(back - mpf(g)) <= mpf("1e-50") * mpf(g)


@given(st.floats(min_value=1.05, max_value=6))
def test_zeta_coefficients_positive(alpha):
    for family in (POWER_CUT, SHIFTED):
        z = zeta_series(MappingSpec(family, mpf(alpha)), 12)
        assert all(c > 0 for c in z.coeffs[1:])


def reconstruct_source(table, rho, mapping, order):
    """Undo the mapping: compose with lambda(g) and restore the prefactor."""
    rho = mpf(rho)
    zeta = zeta_series(mapping, order)
    lam_of_g = revert(scale(zeta, rho), var="g")
    mapped = PowerSeries(table.lambda_coeffs(rho, order), "lambda")
    in_g = compose(mapped, lam_of_g)
    prefactor = compose(binomial_series(mapping.prefactor_p, order, "lambda"), lam_of_g)
    return multiply(prefactor, in_g)


@pytest.mark.parametrize("rho", ["0.37", "1.0", "2.83"])
def test_reexpansion_identity_d0(rho):
    mapping = MappingSpec(POWER_CUT, 2, prefactor_p="0.5")
    source = d0_partition_coeffs(12)
    table = build_rho_table(source, mapping)
    back = reconstruct_source(table, rho, mapping, 12)
    for k in range(13):
        scale_k = max(1, abs(source.coeffs[k]))
        assert abs(back.coeffs[k] - source.coeffs[k]) < scale_k * mpf("1e-50")


def small_table():
    return build_rho_table(d0_partition_coeffs(6), MappingSpec(POWER_CUT, 2, prefactor_p="0.5"))


def test_lambda_coeffs_rejects_an_order_outside_the_table():
    table = small_table()
    for order in (-1, 7, 2.0):
        with pytest.raises(UsageError, match=r"0\.\.6, got %r" % order):
            table.lambda_coeffs(mpf(1), order)


def test_lambda_coeffs_reads_rho_like_other_inputs():
    table = small_table()
    want = table.lambda_coeffs(mpf("1.5"), 6)
    assert table.lambda_coeffs("1.5", 6) == want
    assert table.lambda_coeffs("3/2", 6) == want
    assert table.lambda_coeffs(2, 6) == table.lambda_coeffs(mpf(2), 6)
    assert table.lambda_coeffs(0, 6) == tuple(row.coeffs[0] for row in table.rows)
    # A row and a prefix row read a point as lambda_coeffs reads rho.
    for row in (table.rows[3], table.prefix_row(6)):
        assert row(0.5) == row(mpf("0.5"))
        assert row("3/2") == row(mpf("1.5")) and row(2) == row(mpf(2))
    for bad in (mp.inf, -mp.inf, mp.nan, "inf", "abc"):
        with pytest.raises(ResumError):
            table.lambda_coeffs(bad, 6)


def test_lambda_coeffs_at_a_complex_rho_is_horner():
    table = small_table()
    rho = mp.mpc("0.8", "0.3")
    assert table.lambda_coeffs(rho, 6) == tuple(horner(row.coeffs, rho) for row in table.rows)


def assert_rows_within_the_bound(table, rho, order):
    """Each row within half an ulp plus ``2^-62 (n + 1) u S`` of ``P(rho)``
    at three times the working precision (``u = 2^-prec``, ``n`` the degree,
    ``S = sum_j |c_j| rho^j``)."""
    got, u = table.lambda_coeffs(rho, order), mp.ldexp(1, -mp.prec)
    rho = +rho  # the working-precision rho that lambda_coeffs reads
    with mp.workprec(3 * mp.prec):
        for k, (value, row) in enumerate(zip(got, (row.coeffs for row in table.rows))):
            exact = horner(row, rho)
            S = mp.fsum(abs(c) * rho ** j for j, c in enumerate(row))
            assert abs(value - exact) <= u * abs(value) + 2 ** -62 * len(row) * u * S, k


def _mpf(man_exp):
    return mp.ldexp(man_exp[0], man_exp[1])


@settings(derandomize=True, max_examples=40)
@given(st.lists(st.tuples(st.integers(-2 ** 240, 2 ** 240), st.integers(-300, 60)),
                min_size=1, max_size=41),
       st.tuples(st.integers(1, 2 ** 300), st.integers(-320, 0)))
def test_fixed_point_rows_lie_within_the_proved_bound(coeffs, rho):
    # Every prefix is a row, so degrees 0..40; rho may carry more bits than
    # the working precision, which lambda_coeffs rounds away.
    coeffs = [_mpf(c) for c in coeffs]
    with mp.workprec(400):
        rho = _mpf(rho)
    rows = tuple(tuple(coeffs[:k + 1]) for k in range(len(coeffs)))
    table = RhoPolynomialTable(rows, MappingSpec(POWER_CUT, 2))
    assert_rows_within_the_bound(table, rho, table.source_order)


@pytest.fixture(scope="module")
def odm_tables():
    """The K = 60 tables and criteria of ``odm-d0-strong`` and ``odm-oscillator``."""
    with mp.workdps(64):
        return [(build_rho_table(source, MappingSpec(POWER_CUT, alpha, prefactor_p=p)),
                 RhoSelectionCriterion(smallness_factor=tau))
                for source, alpha, p, tau in (
                    (d0_partition_coeffs(62), "2", "0.5", "0.5"),
                    (anharmonic_ground_coeffs(61), "3/2", "-0.5", "1e6"))]


@pytest.mark.parametrize("k", [10, 30, 60])
def test_odm_rows_lie_within_the_proved_bound(odm_tables, k):
    for table, criterion in odm_tables:
        rho = select_rho(table, k, criterion).rho
        assert_rows_within_the_bound(table, rho, k + 1)


def _fraction(m, e):
    return Fraction(m) * Fraction(2) ** e


def _exact(c):
    m, e = c.man_exp  # the magnitude's mantissa
    return _fraction(-m if c < 0 else m, e)


def test_prefix_rows_are_the_exact_column_sums(odm_tables):
    for table, _ in odm_tables:
        sums = []  # sum_{l<=k} P_l[n] in Fractions, order by order
        for k, row in enumerate(padded_rows(table)):
            sums = [a + _exact(c) for a, c in zip(sums + [0], row, strict=True)]
            fixed = table.prefix_row(k).fixed  # highest degree first, top zeros stripped
            got = [_fraction(m, e) for m, e in reversed(fixed)]
            assert got + [0] * (k + 1 - len(got)) == sums, k


def test_prefix_rows_are_the_rows_at_prefactor_p_plus_one(odm_tables):
    # sum_{l<=k} [lambda^l] G = [lambda^k] G/(1 - lambda): an independent
    # table, expanded with the prefactor raised by one.
    for (table, _), source in zip(odm_tables, (d0_partition_coeffs(62),
                                               anharmonic_ground_coeffs(61))):
        spec = table.mapping
        raised = build_rho_table(source, MappingSpec(POWER_CUT, spec.alpha,
                                                     prefactor_p=spec.prefactor_p + 1))
        for k, row in enumerate(padded_rows(raised)):
            fixed = table.prefix_row(k).fixed
            pairs = zip(reversed(fixed + ((0, 0),) * (k + 1 - len(fixed))), row, strict=True)
            for n, ((m, e), want) in enumerate(pairs):
                assert abs(mp.ldexp(m, e) - want) <= tolerance(10) * abs(want), (k, n)


def test_prefix_rows_are_built_only_through_the_order_asked():
    table = small_table()
    assert table.prefix_row(3) is table._prefix[3] and len(table._prefix) == 4
    for k in (-1, 7, 2.0):
        with pytest.raises(UsageError, match=r"k must be a whole number in 0\.\.6"):
            table.prefix_row(k)
