"""The change of variables: profiles, tables, inversion, re-expansion."""

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from resum import (
    MappingFamily,
    MappingSpec,
    PowerSeries,
    UsageError,
    binomial_series,
    build_rho_table,
    compose,
    d0_partition_coeffs,
    lambda_of_g,
    multiply,
    revert,
    rg_series,
    scale,
    zeta_series,
)

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


def test_d0_table_first_orders():
    source = d0_partition_coeffs(4)
    table = build_rho_table(source, MappingSpec(POWER_CUT, 2, prefactor_p="0.5"))
    assert table.polys[0] == (mpf(1),)
    assert table.polys[1] == (mpf("0.5"), mpf("-0.125"))


def test_constant_source_is_mapping_invariant():
    source = PowerSeries((mpf(1), mpf(0), mpf(0), mpf(0)))
    table = build_rho_table(source, MappingSpec(POWER_CUT, 3))
    assert table.polys[0] == (mpf(1),)
    for k in range(1, 4):
        assert all(c == 0 for c in table.polys[k])


def test_covariant_first_order_is_minus_one():
    rg = rg_series()
    table = build_rho_table(rg.beta, MappingSpec(SHIFTED, "1.5", beta_covariant=True))
    # P_1 is constant in rho; at rho = 1 it equals the leading flow slope.
    assert table.eval_poly(1, mpf(1)) == mpf(-1)
    assert table.eval_poly(1, mpf("2.7")) == mpf(-1)


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
    from resum import DomainError

    # Negative, NaN, and so large that lambda rounds to 1 at 64 digits.
    for g in (-1, mp.nan, mpf("1e200")):
        with pytest.raises(DomainError):
            lambda_of_g(g, 1, MappingSpec(POWER_CUT, 2))


@given(st.floats(min_value=0.05, max_value=20), st.floats(min_value=0.1, max_value=5))
def test_lambda_monotone_in_g(g, rho):
    for family, alpha in ((POWER_CUT, "1.7"), (SHIFTED, "1.5")):
        spec = MappingSpec(family, alpha)
        lam1 = lambda_of_g(mpf(g), mpf(rho), spec)
        lam2 = lambda_of_g(mpf(g) * mpf("1.25"), mpf(rho), spec)
        assert 0 < lam1 < lam2 < 1


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
