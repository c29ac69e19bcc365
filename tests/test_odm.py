"""Order-by-order scale selection, approximants, fixed points, fits."""

import pytest
from mpmath import mp, mpf

from resum import (
    FitError,
    FixedPointError,
    MappingFamily,
    MappingSpec,
    PowerSeries,
    ResourceError,
    RhoPolynomialTable,
    RhoSelectionCriterion,
    SelectionError,
    SelectionMode,
    UsageError,
    anharmonic_ground_coeffs,
    build_rho_table,
    convergence_study,
    d0_partition_coeffs,
    exponents_at,
    fixed_point,
    odm_value,
    polynomial_real_roots,
    rg_series,
    select_rho,
)
from resum import odm
from resum.poly import bracket_solve, horner
from resum.precision import tolerance

MIXED = RhoSelectionCriterion()


def complete_solver_roots(p):
    """Positive real roots by the complete solver, largest first: the
    reference the descending scan of ``positive_roots`` is checked against."""
    eps = tolerance(mp.dps // 2)
    return (r for r in sorted(polynomial_real_roots(p.coeffs), reverse=True) if r > eps)


@pytest.fixture(scope="module")
def d0_table():
    with mp.workdps(64):
        source = d0_partition_coeffs(24)
        yield build_rho_table(source, MappingSpec(
            MappingFamily.POWER_CUT, 2, prefactor_p="0.5"))


@pytest.fixture(scope="module")
def complete_picks(d0_table):
    """``select_rho`` at order ``k`` of ``d0_table`` with the complete solver
    in place of the scan, each order computed once for the module."""
    picks = {}

    def pick(k):
        if k not in picks:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("resum.odm.positive_roots", complete_solver_roots)
                picks[k] = select_rho(d0_table, k, MIXED)
        return picks[k]

    return pick


class TestPolynomialRoots:
    def test_factorable(self):
        roots = polynomial_real_roots([2, -3, 1])
        assert len(roots) == 2
        assert abs(roots[0] - 1) < mpf("1e-55")
        assert abs(roots[1] - 2) < mpf("1e-55")

    def test_linear_from_table(self):
        roots = polynomial_real_roots(["0.5", "-0.125"])
        assert len(roots) == 1 and abs(roots[0] - 4) == 0

    def test_triple_root_reported_once(self):
        assert polynomial_real_roots([0, 0, 0, 1]) == [mpf(0)]

    def test_degree_zero_rejected(self):
        with pytest.raises(UsageError):
            polynomial_real_roots([5])

    def test_complex_only(self):
        assert polynomial_real_roots([1, 0, 1]) == []

    def test_high_degree_alternating(self):
        # (x-1)(x-2)...(x-6) has all six roots recovered
        from functools import reduce
        poly = [mpf(1)]
        for r in range(1, 7):
            poly = [a - r * b for a, b in zip(poly + [mpf(0)], [mpf(0)] + poly)]
        poly.reverse()
        roots = polynomial_real_roots(poly)
        assert len(roots) == 6
        for got, want in zip(roots, range(1, 7)):
            assert abs(got - want) < mpf("1e-50")


class TestSelection:
    def test_first_order_root(self, d0_table):
        rep = select_rho(d0_table, 1, MIXED)
        assert rep.rho == 4
        assert rep.mode is SelectionMode.ROOT
        assert not rep.flagged
        assert any(abs(c[0] - 4) == 0 for c in rep.candidates)

    def test_even_orders_use_stationary_points(self, d0_table):
        rep = select_rho(d0_table, 8, MIXED)
        assert rep.mode is SelectionMode.STATIONARY

    def test_determinism(self, d0_table):
        a = select_rho(d0_table, 9, MIXED)
        b = select_rho(d0_table, 9, MIXED)
        assert a == b

    def test_scan_matches_complete_solver(self, d0_table, complete_picks):
        fast = {k: select_rho(d0_table, k, MIXED).rho for k in (7, 14, 19, 23)}
        for k, rho in fast.items():
            full = complete_picks(k).rho
            assert abs(rho - full) <= mpf("1e-30") * abs(full)

    def test_scan_flagged_picks_match_complete_solver(self, d0_table, complete_picks):
        # The scan is read lazily; a flagged order reads it to the end and
        # must still report the largest candidate, as the complete solver does.
        orders = list(range(1, 13)) + list(range(13, 24, 2))
        fast = [select_rho(d0_table, k, MIXED) for k in orders]
        reports = list(zip(fast, [complete_picks(k) for k in orders]))
        assert any(fast.flagged for fast, _ in reports)
        for fast, full in reports:
            assert fast.flagged == full.flagged, fast.k
            assert fast.mode is full.mode, fast.k
            assert len(fast.candidates) == len(full.candidates), fast.k
            assert abs(fast.rho - full.rho) <= mpf("1e-30") * abs(full.rho), fast.k

    def test_real_candidates_never_need_the_complete_solver(self, d0_table, monkeypatch):
        def stalled(*args, **kwargs):
            raise AssertionError("complete solver called")

        monkeypatch.setattr("resum.poly.polyroots", stalled)
        for k in range(1, 13):
            assert select_rho(d0_table, k, MIXED).k == k

    @pytest.mark.parametrize("alpha, flagged", [(2, 30), (4, 0)])
    def test_real_candidates_read_the_integer_rows(self, alpha, flagged, monkeypatch):
        # Every order of the K = 62 d0 tables: the pass/flag decision and rho
        # equal those the mp horner gives on the same candidates, and horner
        # itself is never asked for a real candidate at working precision
        # (the scan's polish runs 20 digits above it).
        table = build_rho_table(d0_partition_coeffs(62), MappingSpec(
            MappingFamily.POWER_CUT, alpha, prefactor_p="0.5"))
        horner, prec = odm.horner, mp.prec

        def complex_only(coeffs, x):
            if not isinstance(x, mp.mpc) and mp.prec == prec:
                raise AssertionError("horner called at a real candidate")
            return horner(coeffs, x)

        with monkeypatch.context() as patch:
            patch.setattr("resum.poly.horner", complex_only)
            reports = [select_rho(table, k, MIXED) for k in range(1, 63)]
        assert sum(rep.flagged for rep in reports) == flagged
        for rep in reports:
            k, tau = rep.k, MIXED.smallness_factor
            passes = []
            row = table.rows[k].coeffs
            rows = (row, odm.derivative_coeffs(row), table.rows[k - 1].coeffs)
            for rho, pval, dval in rep.candidates:
                want = [abs(horner(p, rho)) for p in rows]
                # Both values lie within (2n + 2) 2^-prec S of the exact one,
                # S = sum_j |c_j| rho^j (resum.poly.Polynomial).
                for got, ref, p in zip((pval, dval), want, rows):
                    size = mp.fsum(abs(c) * rho ** j for j, c in enumerate(p))
                    assert abs(got - ref) <= 4 * len(p) * mp.eps * size, k
                if rep.mode is SelectionMode.ROOT:
                    passes.append(want[1] <= tau * want[2] * k / rho)
                else:
                    passes.append(want[0] <= tau * want[2])
            assert rep.flagged == (not any(passes)), k
            if rep.flagged:
                assert rep.rho == rep.candidates[0][0], k
            else:
                assert passes == [False] * (len(passes) - 1) + [True], k
                assert rep.rho == rep.candidates[-1][0], k

    def test_wide_pair_fallback_when_pool_is_empty(self):
        # Order 3 of the phi4 beta table has neither a positive root nor a
        # near-real pair, so the empty (already read) pool hands over to the
        # largest wide pair, unflagged.
        table = build_rho_table(rg_series().beta, MappingSpec(
            MappingFamily.SHIFTED_POWER, "1.5", beta_covariant=True))
        criterion = RhoSelectionCriterion(mode=SelectionMode.STATIONARY_FIRST,
                                          smallness_factor=1)
        rep = select_rho(table, 3, criterion, allow_complex=True)
        assert rep.is_complex and not rep.flagged
        assert rep.mode is SelectionMode.ROOT
        assert len(rep.candidates) == 1 and rep.candidates[0][0] == rep.rho

    def test_scans_read_the_polynomials_the_candidate_loop_evaluates(self, d0_table,
                                                                      monkeypatch):
        # The ROOT scan is handed the table's own row P_k; the STATIONARY scan
        # the one P_k' that the candidate loop then evaluates.
        scanned, evaluated = [], []
        scan, evaluate = odm.positive_roots, odm.Polynomial.__call__
        monkeypatch.setattr("resum.odm.positive_roots", lambda p: scanned.append(p) or scan(p))
        monkeypatch.setattr(odm.Polynomial, "__call__",
                            lambda p, x: evaluated.append(p) or evaluate(p, x))
        assert select_rho(d0_table, 7, MIXED).mode is SelectionMode.ROOT
        assert len(scanned) == 1 and scanned[0] is d0_table.rows[7]
        assert any(p is scanned[0] for p in evaluated)
        scanned.clear()
        evaluated.clear()
        assert select_rho(d0_table, 8, MIXED).mode is SelectionMode.STATIONARY
        assert len(scanned) == 2 and scanned[0] is d0_table.rows[8]
        assert scanned[1] not in d0_table.rows
        assert any(p is scanned[1] for p in evaluated)

    def test_out_of_range(self, d0_table):
        with pytest.raises(UsageError):
            select_rho(d0_table, 0, MIXED)
        with pytest.raises(UsageError):
            select_rho(d0_table, 99, MIXED)

    def test_root_mode_fails_on_even_order(self, d0_table):
        with pytest.raises(SelectionError):
            select_rho(d0_table, 8, RhoSelectionCriterion(mode=SelectionMode.ROOT))

    def test_a_nonzero_constant_row_has_no_admissible_scale(self):
        # Neither P_1 nor its derivative has a zero, whether the row is held
        # as one coefficient or padded with a zero.
        spec = MappingSpec(MappingFamily.POWER_CUT, 2)
        for row in ((mpf(-1),), (mpf(-1), mpf(0))):
            table = RhoPolynomialTable(((mpf(1),), row), spec)
            with pytest.raises(SelectionError, match="order 1"):
                select_rho(table, 1, MIXED)

    def test_scan_sign_lost_to_rounding_asks_for_more_precision(self):
        # At order 114 of the K = 130 d0 table the pick's root condition
        # leaves it fewer than four predicted correct digits at 64: the
        # rounded coefficients do not determine it, and only a higher
        # working precision resolves it.
        spec = MappingSpec(MappingFamily.POWER_CUT, 2, prefactor_p="0.5")
        with mp.workdps(64):
            table = build_rho_table(d0_partition_coeffs(130), spec)
            with pytest.raises(ResourceError, match="64 digits; raise the working precision"):
                select_rho(table, 114, MIXED)
        with mp.workdps(80):
            table = build_rho_table(d0_partition_coeffs(130), spec)
            rho = select_rho(table, 114, MIXED).rho
            assert abs(rho - mpf("0.0394860886020404666")) <= mpf("1e-18")

    # Order 131 d0 table, alpha = 2, p = 1/2, mixed: mode and 8-digit rho of
    # each order, built and selected at 140 digits.
    DEEP_140 = {100: ("stationary", "0.044979048"), 104: ("stationary", "0.043259647"),
                105: ("root", "0.043061415"), 110: ("stationary", "0.040913655"),
                113: ("root", "0.04001607"), 115: ("root", "0.039320868"),
                120: ("stationary", "0.037522239"), 130: ("stationary", "0.034650028")}

    def test_past_the_precision_floor_an_order_is_refused_not_answered_wrong(self):
        # Past about k = 104 the 64-digit coefficients no longer determine
        # the pick: each order either matches the 140-digit choice or raises.
        table = build_rho_table(d0_partition_coeffs(131), MappingSpec(
            MappingFamily.POWER_CUT, 2, prefactor_p="0.5"))
        matched = []
        for k, (mode, rho) in self.DEEP_140.items():
            try:
                rep = select_rho(table, k, MIXED)
            except ResourceError as exc:
                assert "64 digits; raise the working precision" in str(exc), k
                continue
            assert (rep.mode.value, mp.nstr(rep.rho, 8)) == (mode, rho), k
            matched.append(k)
        assert 100 in matched

    def test_guard_digits_that_lose_the_scan_sign_change_still_end_in_a_refusal(self):
        # The orders of the K = 201 d0 table whose scan sign change the
        # polish's guard digits once did not see, at 64 digits: each is a
        # ResourceError asking for more precision, never a SolverError.
        with mp.workdps(64):
            table = build_rho_table(d0_partition_coeffs(201), MappingSpec(
                MappingFamily.POWER_CUT, 2, prefactor_p="0.5"))
            for k in (114, 116, 132, 138, 141, 146, 148, 149, 151, 152, 154, 155, 158, 159,
                      171, 175, 179, 180, 181, 184, 198, 200):
                with pytest.raises(ResourceError, match="64 digits; raise the working precision"):
                    select_rho(table, k, MIXED)

    @pytest.mark.parametrize("source, alpha, p, tau, orders", [
        ("d0", "2", "0.5", "0.5", (52, 55, 57, 58)),
        ("d0", "4", "0.5", "0.5", (46, 48, 49, 52, 54, 56, 57)),
        ("oscillator", "3/2", "-0.5", "1e6", (59,)),
    ])
    def test_picks_lie_on_the_root_of_their_own_polynomial(self, source, alpha, p, tau,
                                                           orders):
        # The graded tables' orders whose rho the mp Horner's noise once
        # moved by up to 8.3e-56: each pick is within 1e-63 relative of the
        # 250-digit root of the same 64-digit polynomial, P_k or P_k'.
        coeffs = d0_partition_coeffs(62) if source == "d0" else anharmonic_ground_coeffs(61)
        table = build_rho_table(coeffs, MappingSpec(MappingFamily.POWER_CUT, alpha,
                                                    prefactor_p=p))
        criterion = RhoSelectionCriterion(smallness_factor=tau)
        for k in orders:
            rep = select_rho(table, k, criterion)
            zeros_of = table.rows[k].coeffs
            if rep.mode is SelectionMode.STATIONARY:
                zeros_of = odm.derivative_coeffs(zeros_of)
            with mp.workdps(250):
                width = rep.rho * mpf("1e-40")
                root = bracket_solve(lambda x: horner(zeros_of, x),
                                     rep.rho - width, rep.rho + width, mpf("1e-240"))
                assert abs(rep.rho - root) <= mpf("1e-63") * root, k

    def test_criterion_validation(self):
        for tau in (0, mp.nan, mp.inf, "nan"):
            with pytest.raises(UsageError):
                RhoSelectionCriterion(smallness_factor=tau)


class TestValues:
    def test_zero_coupling_returns_constant(self, d0_table):
        for k in (1, 3, 6, 11):
            rep = odm_value(d0_table, k, MIXED, 0)
            assert rep.value == 1
            assert rep.lam == 0

    def test_error_estimate_present(self, d0_table):
        rep = odm_value(d0_table, 10, MIXED, mp.inf)
        assert rep.error_estimate is not None and rep.error_estimate > 0

    def test_error_estimate_brackets_truth(self, d0_table):
        # Order-of-magnitude contract: within a factor of 100 of the true
        # error, both ways, over the strong-coupling study range.
        from resum import d0_partition_value

        amp = d0_partition_value(mp.inf)
        for k in range(10, 21):
            rep = odm_value(d0_table, k, MIXED, mp.inf)
            true_err = abs(amp - rep.value)
            assert rep.error_estimate <= 100 * true_err
            assert true_err <= 100 * rep.error_estimate

    def test_strong_coupling_reads_one_exact_prefix_row(self):
        # At every order of the odm-d0-strong and odm-oscillator tables the
        # amplitude agrees with the sum of the rounded row values, and the
        # error estimate is the one that sum's rows gave, bit for bit.
        for source, alpha, p, tau in ((d0_partition_coeffs(62), "2", "0.5", "0.5"),
                                      (anharmonic_ground_coeffs(61), "3/2", "-0.5", "1e6")):
            table = build_rho_table(source, MappingSpec(MappingFamily.POWER_CUT, alpha,
                                                        prefactor_p=p))
            criterion = RhoSelectionCriterion(smallness_factor=tau)
            for k in range(1, 61):
                rep = odm_value(table, k, criterion, mp.inf)
                row = table.lambda_coeffs(rep.rho, k + 1)
                amplitude = rep.rho ** (mpf(p) / mpf(alpha)) * mp.fsum(row[:k + 1])
                assert abs(rep.value - amplitude) <= tolerance(10) * abs(amplitude), k
                assert rep.error_estimate == abs(rep.rho ** (mpf(p) / mpf(alpha)) * row[k + 1]), k

    def test_error_estimate_scales_like_the_value(self):
        # The estimate carries the approximant's prefactor: at g = 1e40 the
        # d0 amplitude term g^(-1/4) is 1e-10, and so is the estimate's ratio
        # to its g = inf value; without the prefactor it stayed at 2.6e-4,
        # 1.6 million times the value.
        from resum import d0_partition_value

        table = build_rho_table(d0_partition_coeffs(12), MappingSpec(
            MappingFamily.POWER_CUT, 2, prefactor_p="0.5"))
        g = mpf("1e40")
        near, far = (odm_value(table, 11, MIXED, x) for x in (g, mp.inf))
        assert abs(near.error_estimate * mpf(10) ** 10 - far.error_estimate) \
            <= mpf("1e-15") * far.error_estimate
        delta = abs(d0_partition_value(g) - near.value)
        assert delta / 10 <= near.error_estimate <= 10 * delta

    def test_strong_coupling_needs_power_cut(self):
        source = PowerSeries((mpf(1), mpf(-1), mpf(1), mpf(-1)))
        table = build_rho_table(source, MappingSpec(MappingFamily.SHIFTED_POWER, 1))
        with pytest.raises(UsageError):
            odm_value(table, 2, MIXED, mp.inf)

    def test_beta_covariant_table_is_refused(self):
        # Such a table holds the mapped flow, which only fixed_point reads;
        # summed as a series it gives -0.0227 where the series sums to -0.260.
        table = build_rho_table(rg_series().beta, MappingSpec(
            MappingFamily.SHIFTED_POWER, "1.5", beta_covariant=True))
        criterion = RhoSelectionCriterion(mode=SelectionMode.STATIONARY_FIRST,
                                          smallness_factor=1)
        with pytest.raises(UsageError, match="fixed_point"):
            odm_value(table, 5, criterion, 1)

    def test_constant_series_sums_to_constant(self):
        source = PowerSeries((mpf(1), mpf(0), mpf(0), mpf(0)), "gtilde")
        table = build_rho_table(source, MappingSpec(MappingFamily.SHIFTED_POWER, "1.5"))
        rep = odm_value(table, 2, MIXED, mpf("1.4"))
        assert abs(rep.value - 1) < mpf("1e-55")


class TestFixedPoint:
    # The geometric shifted map (alpha = 1) represents quadratic flows
    # exactly: beta_lambda = (rho+1) lambda^2 - lambda for the toy flow, so
    # the fixed point is scale-independent and exact at every order.

    def test_toy_flow_is_exact_at_every_order(self):
        toy = PowerSeries((mpf(0), mpf(-1), mpf(1), mpf(0), mpf(0), mpf(0)), "gtilde")
        table = build_rho_table(toy, MappingSpec(
            MappingFamily.SHIFTED_POWER, 1, beta_covariant=True))
        for k in range(2, 6):
            fp = fixed_point(table, k, RhoSelectionCriterion(
                mode=SelectionMode.STATIONARY_FIRST, smallness_factor=1))
            assert abs(fp.g_star - 1) < mpf("1e-55")
            assert abs(fp.omega - 1) < mpf("1e-55")

    def test_toy_flow_any_scale(self):
        toy = PowerSeries((mpf(0), mpf(-1), mpf(1), mpf(0), mpf(0)), "gtilde")
        table = build_rho_table(toy, MappingSpec(
            MappingFamily.SHIFTED_POWER, 1, beta_covariant=True))
        from mpmath import polyroots

        for rho in (mpf("0.3"), mpf(1), mpf("2.6")):
            coeffs = list(table.lambda_coeffs(rho, 4))
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            roots = polyroots(list(reversed(coeffs[1:])), extraprec=100)
            lam = min(mp.re(r) for r in roots
                      if 0 < mp.re(r) < 1 and abs(mp.im(r)) < mpf("1e-40"))
            g_star = rho * ((1 - lam) ** mpf(-1) - 1)
            assert abs(g_star - 1) < mpf("1e-55")

    def test_a_flow_without_a_zero_in_the_window_is_a_fixed_point_error(self):
        spec = MappingSpec(MappingFamily.SHIFTED_POWER, "3/2", beta_covariant=True)
        criterion = RhoSelectionCriterion(mode=SelectionMode.STATIONARY_FIRST,
                                          smallness_factor=1)
        for coeffs, k, message in (
                ([0, -1, 1], 1, "truncated flow has no zero beyond the origin at order 1"),
                ([0, -1, -1, 1], 3, "no flow zero with real part in \\(0, 1\\) at order 3")):
            table = build_rho_table(PowerSeries(coeffs, "gtilde"), spec)
            with pytest.raises(FixedPointError, match=message):
                fixed_point(table, k, criterion)

    def test_requires_covariant_table(self):
        source = PowerSeries((mpf(0), mpf(-1), mpf(1)), "gtilde")
        table = build_rho_table(source, MappingSpec(MappingFamily.SHIFTED_POWER, "1.5"))
        with pytest.raises(UsageError):
            fixed_point(table, 2, MIXED)


def constant_tables():
    """A constant order-6 table for 1/gamma and 1/nu, and an order-1 table for
    eta/g^2, whose orders k-2 and k-1 lie outside it for k = 5."""
    spec = MappingSpec(MappingFamily.SHIFTED_POWER, "1.5")
    const = build_rho_table(PowerSeries((mpf(1),) + (mpf(0),) * 6, "gtilde"), spec)
    short = build_rho_table(PowerSeries((mpf(1), mpf(0)), "gtilde"), spec)
    return const, short


class TestExponents:
    def test_constant_susceptibility_series(self):
        table, eta_table = constant_tables()
        ex = exponents_at("1.4", table, eta_table, 5, MIXED, table)
        assert abs(ex.gamma - 1) < mpf("1e-50")
        assert ex.eta is None and ex.nu_from_scaling is None

    def test_g_star_validation(self):
        table, eta_table = constant_tables()
        with pytest.raises(UsageError):
            exponents_at(-1, table, eta_table, 3, MIXED, table)


class TestStudy:
    def test_linear_fit_parity_split(self):
        fit = odm._parity_fit([(k, mpf(k), mpf(2 * k + (1 if k % 2 else -1)))
                               for k in range(1, 11)])
        assert abs(fit.slope_even - 2) < mpf("1e-10")
        assert abs(fit.slope_odd - 2) < mpf("1e-10")
        assert abs(fit.parity_mean_slope - 2) < mpf("1e-10")

    def test_parity_fit_lines_are_the_least_squares_of_each_parity(self):
        rows = [(k, mpf(k) ** mpf("-0.5"), 1 / mpf(k) + mpf(k % 3) / 7) for k in range(5, 17)]
        fit = odm._parity_fit(rows)
        for parity, slope, intercept in ((0, fit.slope_even, fit.intercept_even),
                                         (1, fit.slope_odd, fit.intercept_odd)):
            want = odm._least_squares([(x, y) for k, x, y in rows if k % 2 == parity])
            assert (slope, intercept) == want
        assert (fit.slope, fit.intercept) == odm._least_squares([(x, y) for _, x, y in rows])

    def test_corrected_r_falls_back_to_all_rows_below_three_of_a_parity(self, d0_table,
                                                                        monkeypatch):
        def intercepts(study):
            pts = [(r.k, mpf(r.k) ** mpf("-0.5"), r.rho * r.k) for r in study.reports
                   if r.k >= 5]
            return [odm._least_squares([(x, y) for k, x, y in pts if k % 2 == parity])[1]
                    for parity in (0, 1)] + [odm._least_squares([(x, y) for _, x, y in pts])[1]]

        study = convergence_study(d0_table, MIXED, 20, 5)
        even, odd, both = intercepts(study)
        assert study.r_corrected == (even + odd) / 2
        # Only orders 6 and 8 of the even ones survive the selection.
        value = odm.odm_value

        def sparse(table, k, *args, **kwargs):
            if k % 2 == 0 and k > 8:
                raise SelectionError("dropped order %d" % k)
            return value(table, k, *args, **kwargs)

        monkeypatch.setattr(odm, "odm_value", sparse)
        study = convergence_study(d0_table, MIXED, 20, 5)
        assert [r.k for r in study.reports if r.k >= 5 and r.k % 2 == 0] == [6, 8]
        even, odd, both = intercepts(study)
        assert study.r_corrected == both != (even + odd) / 2

    def test_study_runs_and_fits(self, d0_table):
        from resum import d0_partition_value

        study = convergence_study(d0_table, MIXED, 20, mp.inf,
                                  oracle=d0_partition_value(mp.inf))
        assert len(study.reports) == 20
        assert study.rate_abscissa == "k"
        assert study.r_estimate is not None
        ln_deltas = [mp.log(abs(r.delta)) for r in study.reports if r.k in (10, 20)]
        assert ln_deltas[1] < ln_deltas[0]
        assert study.report(20) is study.reports[-1]
        for k in (0, 21, "20"):
            with pytest.raises(UsageError, match=r"^k must be an order the study holds .*%r$"
                               % (k,)):
                study.report(k)

    def test_budget_guard(self, d0_table):
        with pytest.raises(UsageError):
            convergence_study(d0_table, MIXED, 24, mp.inf, oracle=1)
        with pytest.raises(FitError):
            convergence_study(d0_table, MIXED, 8, mp.inf, oracle=1)

    def test_non_finite_oracle_rejected(self, d0_table):
        with pytest.raises(UsageError, match="oracle must be finite, got nan"):
            convergence_study(d0_table, MIXED, 20, mp.inf, oracle=mp.nan)
