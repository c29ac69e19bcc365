"""Stored reference tables and the runners that reproduce them.

Each runner rebuilds one published benchmark table from scratch -- saddle
constants, the d=0 strong-coupling and finite-coupling summations, the
anharmonic oscillator scale fit, the phi^4_3 fixed point and exponents, and
the Borel-mapping exponents -- and grades the result against the stored
reference values at the documented tolerances.  The runners carry the
configuration that reproduces each table (mapping exponents, prefactors,
selection criteria) and compute at the active precision.  Each returns its
rows (dicts in CSV column order), checks and config; every caller goes
through :func:`run_benchmark`, which installs each table's working digits
and builds the :class:`BenchmarkResult`.
"""

from dataclasses import dataclass

from mpmath import mp, mpf

from .borel import borel_leroy_transform, conformal_map_coeffs, laplace_moments
from .errors import SelectionError, UsageError
from .mapping import MappingFamily, MappingSpec, build_rho_table
from .models import (
    anharmonic_ground_coeffs,
    anharmonic_ground_value,
    d0_partition_coeffs,
    d0_partition_value,
    eta_over_g2_series,
    nu_inv_series,
    rg_series,
)
from .odm import (
    RhoSelectionCriterion,
    SelectionMode,
    convergence_study,
    exponents_at,
    fixed_point,
)
from .poly import bracket_solve
from .precision import DEFAULT_DIGITS, MIN_DIGITS, nstr, to_mpf, workdps
from .saddle import d0_exact_rate, predicted_R, solve_saddle
from .series import ratio_growth_constant

# Saddle constants (mu, -lambda) by mapping exponent.
SADDLE_REFERENCE = {
    "3/2": ("4.031233504", "0.2429640300"),
    "2": ("4.466846120", "0.2136524524"),
    "5/2": ("4.895690188", "0.1896450439"),
    "3": ("5.3168634291", "0.1699396648"),
    "4": ("6.1359656420", "0.14003129119"),
}

D0_RATE_REFERENCE = {"R": "4.526638689", "rate": "0.5154353381", "R_over_A": "3.017759126"}

# d=0 strong coupling, alpha=2, p=1/2: k -> (1/rho_k, ln|delta_k|).
D0_STRONG_REFERENCE = {
    5: ("1.131726", "-5.1578"), 10: ("2.35036", "-10.5921"),
    15: ("3.34050", "-12.5008"), 20: ("4.5594", "-17.5923"),
    25: ("5.5495", "-19.4855"), 30: ("6.8614", "-23.6818"),
    35: ("7.7586", "-26.3535"), 40: ("8.9778", "-31.2859"),
    45: ("9.9678", "-33.1625"), 50: ("11.1869", "-38.0643"),
    55: ("12.1769", "-39.9364"), 60: ("13.3958", "-44.8208"),
}

# d=0 at g=5, alpha=4: k -> (1/rho_k, ln|delta_k|); trajectory informational,
# the graded checks are the aggregate ones.
D0_G5_REFERENCE = {
    5: ("0.5918", "-6.7454"), 10: ("1.0297", "-10.2069"),
    15: ("1.5627", "-13.2837"), 20: ("2.0779", "-13.8898"),
    25: ("2.5865", "-16.0103"), 30: ("3.1376", "-19.4614"),
    35: ("3.6167", "-19.4706"), 40: ("4.1877", "-20.9453"),
    45: ("4.6557", "-22.9796"), 50: ("5.3021", "-24.2450"),
    55: ("5.6959", "-25.0907"), 60: ("6.2458", "-26.7433"),
}

# phi^4_3 covariant fixed point: k -> (g*, omega).
PHI4_FIXED_POINT_REFERENCE = {
    3: ("1.09871", "1"), 4: ("1.39330", "0.7984"), 5: ("1.41771", "0.7804"),
    6: ("1.41737", "0.7806"), 7: ("1.41744", "0.7807"),
}

# phi^4_3 exponents at g* = 1.411: k -> (gamma, nu, eta); eta blank at k=3.
PHI4_EXPONENTS_REFERENCE = {
    3: ("1.23717", "0.62521", None), 4: ("1.23486", "0.62486", "0.0290"),
    5: ("1.23845", "0.62746", "0.0289"), 6: ("1.23820", "0.62771", "0.0297"),
    7: ("1.23923", "0.62865", "0.0306"),
}

# Borel transformation with mapping: k -> (g*, nu, gamma).
BOREL_MAP_REFERENCE = {
    2: ("1.8774", "0.6338", "1.2257"), 3: ("1.5135", "0.6328", "1.2370"),
    4: ("1.4149", "0.62966", "1.2386"), 5: ("1.4107", "0.6302", "1.2398"),
    6: ("1.4103", "0.6302", "1.2398"), 7: ("1.4105", "0.6302", "1.2398"),
}
_BOREL_BRACKET = (mpf("0.5"), mpf("3.0"))  # every order's zero solve reads both ends

@dataclass(frozen=True)
class Check:
    """One graded assertion of a benchmark run."""

    name: str
    passed: bool
    observed: str
    target: str


@dataclass(frozen=True)
class BenchmarkResult:
    """Rows for the table, in CSV column order, plus the graded checks."""

    table_id: str
    rows: list
    checks: list
    config: dict

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def _at_most(name, deviation, tol):
    """The check ``deviation <= tol``, with ``tol`` given as its printed text."""
    return Check(name, deviation <= to_mpf(tol), nstr(deviation, 3), "<= " + tol)


def _within(subject, dev, tol):
    """``subject within tol``: the deviation ``dev`` at most ``tol``."""
    return _at_most("%s within %s" % (subject, tol), dev, tol)


def _near(subject, got, center, tol, digits):
    """``subject = center +- tol``, ``got`` printed to ``digits``."""
    return Check("%s = %s +- %s" % (subject, center, tol),
                 abs(got - to_mpf(center)) <= to_mpf(tol), nstr(got, digits),
                 "%s +- %s" % (center, tol))


def _near_rel(subject, got, center, percent, digits):
    """``subject within percent% of center``, ``got`` printed to ``digits``."""
    c = to_mpf(center)
    return Check("%s within %s%% of %s" % (subject, percent, center),
                 abs(got - c) / c <= mpf(percent) / 100, nstr(got, digits),
                 "%s +- %s%%" % (center, percent))


def _in_range(subject, got, lo, hi, digits):
    """``subject in [lo, hi]``, ``got`` printed to ``digits``."""
    return Check("%s in [%s, %s]" % (subject, lo, hi), to_mpf(lo) <= got <= to_mpf(hi),
                 nstr(got, digits), "[%s, %s]" % (lo, hi))


def run_saddle_table():
    """Saddle constants for the five tabulated mapping exponents."""
    rows, checks = [], []
    for alpha_s, (mu_s, neg_lam_s) in SADDLE_REFERENCE.items():
        sol = solve_saddle(to_mpf(alpha_s))
        dmu = abs(sol.mu - to_mpf(mu_s))
        dlam = abs(-sol.lambda_saddle - to_mpf(neg_lam_s))
        rows.append({
            "alpha": alpha_s, "mu": nstr(sol.mu, 12), "mu_ref": mu_s,
            "delta_mu": nstr(dmu, 3), "neg_lambda": nstr(-sol.lambda_saddle, 12),
            "neg_lambda_ref": neg_lam_s, "delta_lambda": nstr(dlam, 3),
        })
        checks.append(_within("mu[alpha=%s]" % alpha_s, dmu, "1e-8"))
        checks.append(_within("lambda[alpha=%s]" % alpha_s, dlam, "1e-8"))
        res = max(sol.residuals)
        below = "1e-12"
        checks.append(Check("residuals[alpha=%s] below %s" % (alpha_s, below),
                            res < to_mpf(below), nstr(res, 3), "< " + below))
    R, rate = d0_exact_rate()
    # Relative tolerances: the reference prints carry ten digits.
    dR = abs(R - to_mpf(D0_RATE_REFERENCE["R"])) / R
    drate = abs(rate - to_mpf(D0_RATE_REFERENCE["rate"])) / rate
    dratio = abs(R / to_mpf("1.5") - to_mpf(D0_RATE_REFERENCE["R_over_A"])) / (R / to_mpf("1.5"))
    rel_tol = "1e-9"
    for subject, dev in (("exact-rate R", dR), ("exact-rate", drate), ("R/A consistency", dratio)):
        checks.append(_at_most("%s within %s relative" % (subject, rel_tol), dev, rel_tol))
    return rows, checks, {}


def _study_rows(study, reference):
    rows = []
    for k in sorted(reference):
        rep = study.report(k)
        inv_rho = 1 / rep.rho
        ln_d = mp.log(abs(rep.delta))
        ref_inv, ref_ln = reference[k]
        rows.append({
            "k": str(k), "inv_rho": nstr(inv_rho, 8), "inv_rho_ref": ref_inv,
            "delta_inv_rho": nstr(inv_rho - to_mpf(ref_inv), 3),
            "ln_delta": nstr(ln_d, 8), "ln_delta_ref": ref_ln,
            "delta_ln_delta": nstr(ln_d - to_mpf(ref_ln), 3),
        })
    return rows


def _odm_study(source, alpha, prefactor_p, tau, g, oracle):
    """The K=60 power-cut convergence study of ``source`` at coupling ``g``
    under the mixed criterion with threshold ``tau``; ``oracle`` maps the
    coupling to its exact value.  Returns the study, that value and the
    config echo: the same setting strings the computation read."""
    kmax = 60
    coupling = to_mpf(g)
    table = build_rho_table(source, MappingSpec(
        MappingFamily.POWER_CUT, alpha, prefactor_p=prefactor_p))
    exact = oracle(coupling)
    study = convergence_study(table, RhoSelectionCriterion(smallness_factor=tau),
                              kmax, coupling, oracle=exact)
    return study, exact, {"order": source.order, "kmax": kmax, "alpha": alpha,
                          "prefactor_p": prefactor_p, "criterion": "mixed tau=" + tau,
                          "g": g}


def run_d0_strong():
    """Strong-coupling summation of the d=0 series with the quadratic mapping."""
    study, _, config = _odm_study(d0_partition_coeffs(62), "2", "0.5", "0.5", "inf",
                                  d0_partition_value)
    rows = _study_rows(study, D0_STRONG_REFERENCE)
    checks = []
    percent = 2  # the 1/rho bound, relative
    for k in sorted(D0_STRONG_REFERENCE):
        rep = study.report(k)
        ref_inv, ref_ln = D0_STRONG_REFERENCE[k]
        rel = abs(1 / rep.rho - to_mpf(ref_inv)) / to_mpf(ref_inv)
        dln = abs(mp.log(abs(rep.delta)) - to_mpf(ref_ln))
        checks.append(_at_most("1/rho[k=%d] within %d%%" % (k, percent), rel, str(percent / 100)))
        checks.append(_within("ln|delta|[k=%d]" % k, dln, "1.5"))
    checks.append(_near("slope of 1/(k rho_k)", study.inv_rho_fit.parity_mean_slope,
                        "0.2209", "0.005", 6))
    checks.append(_in_range("error decay rate", -study.rate_fit.slope, "0.6", "0.75", 5))
    return rows, checks, config


def run_d0_g5():
    """Finite-coupling d=0 summation with the quartic-exponent mapping."""
    study, _, config = _odm_study(d0_partition_coeffs(62), "4", "0.5", "0.5", "5",
                                  d0_partition_value)
    rows = _study_rows(study, D0_G5_REFERENCE)
    checks = []
    grid = sorted(D0_G5_REFERENCE)
    for parity in (0, 1):
        ks = [k for k in grid if k % 2 == parity]
        deltas = [abs(study.report(k).delta) for k in ks]
        mono = all(b < a for a, b in zip(deltas, deltas[1:]))
        checks.append(Check("|delta| decreases on %s orders" % ("even" if parity == 0 else "odd"),
                            mono, "monotone" if mono else "not monotone", "strictly decreasing"))
    ln60 = mp.log(abs(study.report(60).delta))
    ceiling = "-24"
    checks.append(Check("ln|delta| at k=60 <= " + ceiling, ln60 <= to_mpf(ceiling),
                        nstr(ln60, 6), "<= " + ceiling))
    checks.append(_near_rel("fitted R", study.r_estimate, "9.75", 15, 6))
    checks.append(_near("predicted R", predicted_R(4, "1.5"), "9.2039", "1e-4", 8))
    return rows, checks, config


def run_oscillator():
    """Oscillator ground-state summation at infinite coupling.

    Uses the largest-candidate criterion (the smallness threshold effectively
    disabled): the smallness test hops between root branches on this table
    and degrades the scale trajectory.
    """
    source = anharmonic_ground_coeffs(61)
    a_est = ratio_growth_constant(source, 10)
    study, amplitude, config = _odm_study(source, "3/2", "-0.5", "1e6", "inf",
                                          anharmonic_ground_value)
    rows = []
    for k in range(5, config["kmax"] + 1, 5):
        rep = study.report(k)
        rows.append({
            "k": str(k), "rho_k_times_k": nstr(rep.rho * k, 8),
            "ln_rel_error": nstr(mp.log(abs(rep.delta) / amplitude), 8),
        })
    checks = [
        _near_rel("growth constant", a_est, "8", 5, 6),
        _near_rel("fitted R", study.r_estimate, "32.25", 10, 6),
        _in_range("error decay slope vs k^(1/3)", study.rate_fit.slope, "-11", "-8.5", 5),
    ]
    return rows, checks, config


def run_phi4_fixed_point():
    """Fixed point and flow derivative of the seven-loop beta function."""
    rg = rg_series()
    table = build_rho_table(rg.beta, MappingSpec(
        MappingFamily.SHIFTED_POWER, "1.5", beta_covariant=True))
    criterion = RhoSelectionCriterion(
        mode=SelectionMode.STATIONARY_FIRST, smallness_factor=1)
    rows, checks = [], []
    tolerances = {3: "0.005", 4: None, 5: "0.002", 6: "0.002", 7: "0.002"}
    for k in sorted(PHI4_FIXED_POINT_REFERENCE):
        ref_g, ref_w = PHI4_FIXED_POINT_REFERENCE[k]
        fp = fixed_point(table, k, criterion)
        dg = abs(fp.g_star - to_mpf(ref_g))
        dw = abs(fp.omega - to_mpf(ref_w))
        rows.append({
            "k": str(k), "g_star": nstr(fp.g_star, 8), "g_star_ref": ref_g,
            "delta_g_star": nstr(dg, 3), "omega": nstr(fp.omega, 8),
            "omega_ref": ref_w, "delta_omega": nstr(dw, 3),
            "complex_pair": "1" if fp.is_complex_pair else "0",
        })
        tol = tolerances[k]
        if tol is not None:
            checks.append(_within("g*[k=%d]" % k, dg, tol))
            checks.append(_within("omega[k=%d]" % k, dw, tol))
    return rows, checks, {"alpha": "3/2", "family": "shifted-power",
                          "beta_covariant": True, "criterion": "stationary-first tau=1"}


def run_phi4_exponents():
    """Critical exponents summed at the tabulated fixed point."""
    g_star = "1.411"
    rg = rg_series()
    spec = MappingSpec(MappingFamily.SHIFTED_POWER, "1.5")
    gamma_table = build_rho_table(rg.gamma_inv, spec)
    eta_table = build_rho_table(eta_over_g2_series(), spec)
    nu_table = build_rho_table(nu_inv_series(), spec)
    criterion = RhoSelectionCriterion(smallness_factor="1e6")
    rows, checks = [], []
    gap_tol = "0.01"
    for k in sorted(PHI4_EXPONENTS_REFERENCE):
        ref_gamma, ref_nu, ref_eta = PHI4_EXPONENTS_REFERENCE[k]
        ex = exponents_at(g_star, gamma_table, eta_table, k, criterion, nu_table)
        rows.append({
            "k": str(k), "gamma": nstr(ex.gamma, 8), "gamma_ref": ref_gamma,
            "nu": nstr(ex.nu_from_series, 8), "nu_ref": ref_nu,
            "eta": nstr(ex.eta, 6), "eta_ref": ref_eta or "",
            "nu_scaling": nstr(ex.nu_from_scaling, 8),
        })
        if k >= 4:
            gap = abs(ex.gamma - ex.nu_from_series * (2 - ex.eta))
            checks.append(_at_most("scaling relation gap[k=%d] <= %s" % (k, gap_tol),
                                   gap, gap_tol))
        if k == 7:
            for name, got, ref in (("gamma", ex.gamma, ref_gamma),
                                   ("nu", ex.nu_from_series, ref_nu),
                                   ("eta", ex.eta, ref_eta)):
                checks.append(_within("%s[k=7]" % name, abs(got - to_mpf(ref)), "0.002"))
    return rows, checks, {"g_star": g_star, "alpha": "3/2",
                          "family": "shifted-power", "criterion": "mixed tau=1e6"}


def _borel_zero(coeffs, laplace):
    """Zero on [0.5, 3] of the Borel sum ``F(g) = sum_j coeffs[j] M_j(g)``, or
    None when F has one sign at both ends.  The beta series starts at ``-g``,
    so ``F(0) = 0``; the solve runs on ``F(g)/g``, near-linear on the window,
    with the same zeros and end signs.  It starts on the half-window with a
    sign change that ``laplace.latest`` splits off: the last point the store
    built, where the previous solve for this shift ended, next to the new
    zero, and like both ends a kept build.  A solve that does not converge
    raises :class:`SolverError`."""
    def f(g):
        return laplace(g).integral(coeffs)[0] / g

    lo, hi = _BOREL_BRACKET
    f_lo = f(lo)
    if f_lo * f(hi) > 0:
        return None
    for g in laplace.latest:  # at most one point
        if f(g) * f_lo > 0:
            lo = g
        else:
            hi = g
    return bracket_solve(f, lo, hi, mpf("1e-10"))


def _kept_moments(a, sigma):
    """``g -> laplace_moments(a, sigma, g, n=7)``, keeping only builds read again:
    the bracket ends', which every solve reads, and the latest, which the nu
    and gamma rows at a zero reread and the next solve starts from.  The
    function's ``latest`` holds that point, if any, and its build."""
    ends, latest = {}, {}

    def laplace(g):
        kept = ends if g in _BOREL_BRACKET else latest
        if g not in kept:
            latest.clear()
            kept[g] = laplace_moments(a, sigma, g, n=7)
        return kept[g]
    laplace.latest = latest
    return laplace


def run_borel_map_exponents():
    """Fixed point and exponents through the Borel-Leroy mapped summation.

    The Leroy parameter is tuned over the grid 0, 1, 2, 3: of the values with
    order-6 and order-7 zeros, the one whose fixed point moves least between
    them wins, the first on a tie; orders 5, 4, 3, 2 are then solved for it
    alone, each solve starting next to the zero just found.  Checks grade the
    order-7 values (loose windows; the historical pipeline's further
    optimizations are not reconstructed) and the stabilization of the orders.
    """
    sigmas = (0, 1, 2, 3)
    rg = rg_series()
    a, series = rg.large_order_a, (rg.beta, nu_inv_series(), rg.gamma_inv)
    # One moment store per Leroy shift: the selection, early orders and rows share it.
    laplaces = {s: _kept_moments(a, s) for s in sigmas}

    def zeros(sigma, orders):
        """``(k, (g*, nu, gamma))`` at the ``orders`` with a zero, nu and gamma unintegrated."""
        for k in orders:
            beta, nu, gamma = (conformal_map_coeffs(borel_leroy_transform(
                s.truncate(k), sigma), a).coeffs for s in series)
            g_star = _borel_zero(beta, laplaces[sigma])
            if g_star is not None:
                yield k, (g_star, nu, gamma)

    late = {sigma: dict(zeros(sigma, (6, 7))) for sigma in sigmas}
    moves = {s: abs(r[7][0] - r[6][0]) for s, r in late.items() if 6 in r and 7 in r}
    if not moves:
        raise SelectionError("no Leroy parameter yields a usable trajectory")
    sigma = min(moves, key=moves.get)
    solved = dict(zeros(sigma, range(5, 1, -1))) | late[sigma]
    rows_by_k = {k: (g, *(1 / laplaces[sigma](g).integral(c)[0] for c in (nu, gamma)))
                 for k, (g, nu, gamma) in solved.items()}
    rows = []
    for k, ref in sorted(BOREL_MAP_REFERENCE.items()):
        g_star, nu, gamma = rows_by_k.get(k, (None, None, None))
        rows.append({
            "k": str(k), "g_star": nstr(g_star, 8), "g_star_ref": ref[0],
            "nu": nstr(nu, 8), "nu_ref": ref[1], "gamma": nstr(gamma, 8), "gamma_ref": ref[2],
        })
    checks = []
    g7, nu7, gamma7 = rows_by_k[7]
    for name, got, ref, tol in (("g_star", g7, "1.4105", "0.02"),
                                ("nu", nu7, "0.6302", "0.01"),
                                ("gamma", gamma7, "1.2398", "0.01")):
        checks.append(_within("%s[k=7]" % name, abs(got - to_mpf(ref)), tol))
    if all(k in rows_by_k for k in (3, 4, 6, 7)):
        for idx, name in ((0, "g_star"), (1, "nu"), (2, "gamma")):
            late = abs(rows_by_k[7][idx] - rows_by_k[6][idx])
            early = abs(rows_by_k[4][idx] - rows_by_k[3][idx])
            checks.append(Check("%s stabilizes (|d67| < |d34|)" % name,
                                late < early,
                                "%s vs %s" % (nstr(late, 3), nstr(early, 3)),
                                "late movement smaller"))
    else:
        checks.append(Check("orders 3,4,6,7 available", False,
                            str(sorted(rows_by_k)), "3,4,6,7"))
    return rows, checks, {"sigma": str(sigma), "a": nstr(a, 10),
                          "sigma_grid": ",".join(str(s) for s in sigmas)}


RUNNERS = {
    "saddle-table": run_saddle_table,
    "odm-d0-strong": run_d0_strong,
    "odm-d0-g5": run_d0_g5,
    "odm-oscillator": run_oscillator,
    "phi4-fixed-point": run_phi4_fixed_point,
    "phi4-exponents": run_phi4_exponents,
    "borel-map-exponents": run_borel_map_exponents,
}

TABLE_IDS = tuple(RUNNERS)

# Working digits per table: the Borel-mapping exponents run at MIN_DIGITS, as
# their Laplace quadrature takes every moment to the working precision.
TABLE_DIGITS = dict.fromkeys(TABLE_IDS, DEFAULT_DIGITS) | {"borel-map-exponents": MIN_DIGITS}


def run_benchmark(table_id, digits=None):
    """Run one benchmark table by id at ``digits`` working digits, by
    default the table's own (``TABLE_DIGITS``); ``config["digits"]`` records
    the digits it ran at."""
    if table_id not in RUNNERS:
        raise UsageError("unknown table id %r (choices: %s)"
                         % (table_id, ", ".join(TABLE_IDS)))
    digits = TABLE_DIGITS[table_id] if digits is None else digits
    with workdps(digits):
        rows, checks, config = RUNNERS[table_id]()
    return BenchmarkResult(table_id, rows, checks, {"digits": digits, **config})
