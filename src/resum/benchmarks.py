"""Stored reference tables and the runners that reproduce them.

Each runner rebuilds one published benchmark table from scratch -- saddle
constants, the d=0 strong-coupling and finite-coupling summations, the
anharmonic oscillator scale fit, the phi^4_3 fixed point and exponents, and
the Borel-mapping exponents -- and grades the result against the stored
reference values at the documented tolerances.  The command line's
``reproduce`` subcommand and the acceptance test suite both run through
these functions, so they carry the configuration that reproduces each table
(mapping exponents, prefactors, selection criteria).
"""

import time
from dataclasses import dataclass

from mpmath import mp, mpf

from .borel import BorelConfig, borel_sum
from .errors import SelectionError, SolverError
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
from .precision import to_mpf, workdps
from .saddle import d0_exact_rate, predicted_R, solve_saddle
from .series import ratio_growth_constant

TABLE_IDS = (
    "saddle-table",
    "odm-d0-strong",
    "odm-d0-g5",
    "odm-oscillator",
    "phi4-fixed-point",
    "phi4-exponents",
    "borel-map-exponents",
)

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

OSCILLATOR_TARGETS = {"A": "8", "R": "32.25", "rate_low": "-11", "rate_high": "-8.5"}


@dataclass(frozen=True)
class Check:
    """One graded assertion of a benchmark run."""

    name: str
    passed: bool
    observed: str
    target: str


@dataclass
class BenchmarkResult:
    """Rows for the table plus the graded checks."""

    table_id: str
    columns: tuple
    rows: list
    checks: list
    config: dict
    wall_time: float = 0.0

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _ns(x, n=10):
    if x is None:
        return ""
    return mp.nstr(to_mpf(x) if not hasattr(x, "imag") or mp.im(x) == 0 else x, n)


def run_saddle_table(digits=64):
    """Saddle constants for the five tabulated mapping exponents."""
    start = time.time()
    with workdps(digits):
        rows, checks = [], []
        for alpha_s, (mu_s, neg_lam_s) in SADDLE_REFERENCE.items():
            sol = solve_saddle(to_mpf(alpha_s))
            dmu = abs(sol.mu - to_mpf(mu_s))
            dlam = abs(-sol.lambda_saddle - to_mpf(neg_lam_s))
            rows.append({
                "alpha": alpha_s, "mu": _ns(sol.mu, 12), "mu_ref": mu_s,
                "delta_mu": _ns(dmu, 3), "neg_lambda": _ns(-sol.lambda_saddle, 12),
                "neg_lambda_ref": neg_lam_s, "delta_lambda": _ns(dlam, 3),
            })
            checks.append(Check("mu[alpha=%s] within 1e-8" % alpha_s,
                                dmu <= mpf("1e-8"), _ns(dmu, 3), "<= 1e-8"))
            checks.append(Check("lambda[alpha=%s] within 1e-8" % alpha_s,
                                dlam <= mpf("1e-8"), _ns(dlam, 3), "<= 1e-8"))
            res = max(sol.residuals)
            checks.append(Check("residuals[alpha=%s] below 1e-12" % alpha_s,
                                res < mpf("1e-12"), _ns(res, 3), "< 1e-12"))
        R, rate = d0_exact_rate()
        # Relative tolerances: the reference prints carry ten digits.
        dR = abs(R - to_mpf(D0_RATE_REFERENCE["R"])) / R
        drate = abs(rate - to_mpf(D0_RATE_REFERENCE["rate"])) / rate
        dratio = abs(R / to_mpf("1.5") - to_mpf(D0_RATE_REFERENCE["R_over_A"])) / (R / to_mpf("1.5"))
        checks.append(Check("exact-rate R within 1e-9 relative", dR <= mpf("1e-9"), _ns(dR, 3), "<= 1e-9"))
        checks.append(Check("exact-rate within 1e-9 relative", drate <= mpf("1e-9"), _ns(drate, 3), "<= 1e-9"))
        checks.append(Check("R/A consistency within 1e-9 relative", dratio <= mpf("1e-9"), _ns(dratio, 3), "<= 1e-9"))
        return BenchmarkResult(
            table_id="saddle-table",
            columns=("alpha", "mu", "mu_ref", "delta_mu", "neg_lambda",
                     "neg_lambda_ref", "delta_lambda"),
            rows=rows, checks=checks,
            config={"digits": digits},
            wall_time=time.time() - start,
        )


def _study_rows(study, reference, oracle_abs=None):
    rows = []
    for k in sorted(reference):
        rep = study.report(k)
        inv_rho = 1 / rep.rho
        ln_d = mp.log(abs(rep.delta))
        ref_inv, ref_ln = reference[k]
        rows.append({
            "k": str(k), "inv_rho": _ns(inv_rho, 8), "inv_rho_ref": ref_inv,
            "ln_delta": _ns(ln_d, 8), "ln_delta_ref": ref_ln,
            "delta_inv_rho": _ns(inv_rho - to_mpf(ref_inv), 3),
            "delta_ln_delta": _ns(ln_d - to_mpf(ref_ln), 3),
        })
    return rows


def run_d0_strong(digits=64, order=62, kmax=60):
    """Strong-coupling summation of the d=0 series with the quadratic mapping."""
    start = time.time()
    with workdps(digits):
        source = d0_partition_coeffs(order)
        table = build_rho_table(source, MappingSpec(
            MappingFamily.POWER_CUT, 2, prefactor_p="0.5"))
        criterion = RhoSelectionCriterion()
        amplitude = d0_partition_value(mp.inf)
        study = convergence_study(table, criterion, kmax, mp.inf, oracle=amplitude)
        rows = _study_rows(study, D0_STRONG_REFERENCE)
        checks = []
        for k in sorted(D0_STRONG_REFERENCE):
            rep = study.report(k)
            ref_inv, ref_ln = D0_STRONG_REFERENCE[k]
            rel = abs(1 / rep.rho - to_mpf(ref_inv)) / to_mpf(ref_inv)
            dln = abs(mp.log(abs(rep.delta)) - to_mpf(ref_ln))
            checks.append(Check("1/rho[k=%d] within 2%%" % k, rel <= mpf("0.02"),
                                _ns(rel, 3), "<= 0.02"))
            checks.append(Check("ln|delta|[k=%d] within 1.5" % k, dln <= mpf("1.5"),
                                _ns(dln, 3), "<= 1.5"))
        slope = study.inv_rho_fit.parity_mean_slope
        checks.append(Check("slope of 1/(k rho_k) = 0.2209 +- 0.005",
                            abs(slope - to_mpf("0.2209")) <= mpf("0.005"),
                            _ns(slope, 6), "0.2209 +- 0.005"))
        decay = -study.rate_fit.slope
        checks.append(Check("error decay rate in [0.6, 0.75]",
                            mpf("0.6") <= decay <= mpf("0.75"),
                            _ns(decay, 5), "[0.6, 0.75]"))
        return BenchmarkResult(
            table_id="odm-d0-strong",
            columns=("k", "inv_rho", "inv_rho_ref", "delta_inv_rho",
                     "ln_delta", "ln_delta_ref", "delta_ln_delta"),
            rows=rows, checks=checks,
            config={"digits": digits, "order": order, "kmax": kmax,
                    "alpha": "2", "prefactor_p": "0.5", "criterion": "mixed tau=0.5",
                    "g": "inf"},
            wall_time=time.time() - start,
        )


def run_d0_g5(digits=64, order=62, kmax=60):
    """Finite-coupling d=0 summation with the quartic-exponent mapping."""
    start = time.time()
    with workdps(digits):
        source = d0_partition_coeffs(order)
        table = build_rho_table(source, MappingSpec(
            MappingFamily.POWER_CUT, 4, prefactor_p="0.5"))
        criterion = RhoSelectionCriterion()
        oracle = d0_partition_value(5)
        study = convergence_study(table, criterion, kmax, 5, oracle=oracle)
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
        checks.append(Check("ln|delta| at k=60 <= -24", ln60 <= mpf(-24), _ns(ln60, 6), "<= -24"))
        rel = abs(study.r_estimate - to_mpf("9.75")) / to_mpf("9.75")
        checks.append(Check("fitted R within 15% of 9.75", rel <= mpf("0.15"),
                            _ns(study.r_estimate, 6), "9.75 +- 15%"))
        pred = predicted_R(4, "1.5")
        checks.append(Check("predicted R = 9.2039 +- 1e-4",
                            abs(pred - to_mpf("9.2039")) <= mpf("1e-4"),
                            _ns(pred, 8), "9.2039 +- 1e-4"))
        return BenchmarkResult(
            table_id="odm-d0-g5",
            columns=("k", "inv_rho", "inv_rho_ref", "delta_inv_rho",
                     "ln_delta", "ln_delta_ref", "delta_ln_delta"),
            rows=rows, checks=checks,
            config={"digits": digits, "order": order, "kmax": kmax,
                    "alpha": "4", "prefactor_p": "0.5", "criterion": "mixed tau=0.5",
                    "g": "5"},
            wall_time=time.time() - start,
        )


def run_oscillator(digits=64, order=61, kmax=60):
    """Oscillator ground-state summation at infinite coupling.

    Uses the largest-candidate criterion (the smallness threshold effectively
    disabled): the smallness test hops between root branches on this table
    and degrades the scale trajectory.
    """
    start = time.time()
    with workdps(digits):
        source = anharmonic_ground_coeffs(order)
        a_est = ratio_growth_constant(source, 10)
        table = build_rho_table(source, MappingSpec(
            MappingFamily.POWER_CUT, "1.5", prefactor_p="-0.5"))
        criterion = RhoSelectionCriterion(smallness_factor="1e6")
        amplitude = anharmonic_ground_value(mp.inf)
        study = convergence_study(table, criterion, kmax, mp.inf, oracle=amplitude)
        rows = []
        for k in range(5, kmax + 1, 5):
            rep = study.report(k)
            rows.append({
                "k": str(k), "rho_k_times_k": _ns(rep.rho * k, 8),
                "ln_rel_error": _ns(mp.log(abs(rep.delta) / amplitude), 8),
            })
        checks = [
            Check("growth constant within 5% of 8",
                  abs(a_est - 8) / 8 <= mpf("0.05"), _ns(a_est, 6), "8 +- 5%"),
            Check("fitted R within 10% of 32.25",
                  abs(study.r_estimate - to_mpf("32.25")) / to_mpf("32.25") <= mpf("0.10"),
                  _ns(study.r_estimate, 6), "32.25 +- 10%"),
            Check("error decay slope vs k^(1/3) in [-11, -8.5]",
                  mpf("-11") <= study.rate_fit.slope <= mpf("-8.5"),
                  _ns(study.rate_fit.slope, 5), "[-11, -8.5]"),
        ]
        return BenchmarkResult(
            table_id="odm-oscillator",
            columns=("k", "rho_k_times_k", "ln_rel_error"),
            rows=rows, checks=checks,
            config={"digits": digits, "order": order, "kmax": kmax,
                    "alpha": "3/2", "prefactor_p": "-0.5",
                    "criterion": "mixed tau=1e6", "g": "inf"},
            wall_time=time.time() - start,
        )


def run_phi4_fixed_point(digits=64):
    """Fixed point and flow derivative of the seven-loop beta function."""
    start = time.time()
    with workdps(digits):
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
                "k": str(k), "g_star": _ns(fp.g_star, 8), "g_star_ref": ref_g,
                "delta_g_star": _ns(dg, 3), "omega": _ns(fp.omega, 8),
                "omega_ref": ref_w, "delta_omega": _ns(dw, 3),
                "complex_pair": "1" if fp.is_complex_pair else "0",
            })
            tol = tolerances[k]
            if tol is not None:
                checks.append(Check("g*[k=%d] within %s" % (k, tol),
                                    dg <= to_mpf(tol), _ns(dg, 3), "<= " + tol))
                checks.append(Check("omega[k=%d] within %s" % (k, tol),
                                    dw <= to_mpf(tol), _ns(dw, 3), "<= " + tol))
        return BenchmarkResult(
            table_id="phi4-fixed-point",
            columns=("k", "g_star", "g_star_ref", "delta_g_star", "omega",
                     "omega_ref", "delta_omega", "complex_pair"),
            rows=rows, checks=checks,
            config={"digits": digits, "alpha": "3/2", "family": "shifted-power",
                    "beta_covariant": True, "criterion": "stationary-first tau=1"},
            wall_time=time.time() - start,
        )


def run_phi4_exponents(digits=64, g_star="1.411"):
    """Critical exponents summed at the tabulated fixed point."""
    start = time.time()
    with workdps(digits):
        rg = rg_series()
        spec = MappingSpec(MappingFamily.SHIFTED_POWER, "1.5")
        gamma_table = build_rho_table(rg.gamma_inv, spec)
        eta_table = build_rho_table(eta_over_g2_series(), spec)
        nu_table = build_rho_table(nu_inv_series(), spec)
        criterion = RhoSelectionCriterion(smallness_factor="1e6")
        rows, checks = [], []
        scaling_ok = True
        for k in sorted(PHI4_EXPONENTS_REFERENCE):
            ref_gamma, ref_nu, ref_eta = PHI4_EXPONENTS_REFERENCE[k]
            ex = exponents_at(g_star, gamma_table, eta_table, k, criterion,
                              nu_inv_table=nu_table)
            row = {
                "k": str(k), "gamma": _ns(ex.gamma, 8), "gamma_ref": ref_gamma,
                "nu": _ns(ex.nu_from_series, 8), "nu_ref": ref_nu,
                "eta": _ns(ex.eta, 6) if ex.eta is not None else "",
                "eta_ref": ref_eta or "",
                "nu_scaling": _ns(ex.nu_from_scaling, 8) if ex.nu_from_scaling else "",
            }
            rows.append(row)
            if k >= 4:
                gap = abs(ex.gamma - ex.nu_from_series * (2 - ex.eta))
                ok = gap <= mpf("0.01")
                scaling_ok = scaling_ok and ok
                checks.append(Check("scaling relation gap[k=%d] <= 0.01" % k,
                                    ok, _ns(gap, 3), "<= 0.01"))
            if k == 7:
                for name, got, ref in (("gamma", ex.gamma, ref_gamma),
                                       ("nu", ex.nu_from_series, ref_nu),
                                       ("eta", ex.eta, ref_eta)):
                    d = abs(got - to_mpf(ref))
                    checks.append(Check("%s[k=7] within 0.002" % name,
                                        d <= mpf("0.002"), _ns(d, 3), "<= 0.002"))
        return BenchmarkResult(
            table_id="phi4-exponents",
            columns=("k", "gamma", "gamma_ref", "nu", "nu_ref", "eta",
                     "eta_ref", "nu_scaling"),
            rows=rows, checks=checks,
            config={"digits": digits, "g_star": g_star, "alpha": "3/2",
                    "family": "shifted-power", "criterion": "mixed tau=1e6"},
            wall_time=time.time() - start,
        )


def _borel_zero(series, cfg, lo="0.5", hi="3.0"):
    """Zero of the mapped Borel sum of a flow series on [lo, hi], or None."""
    try:
        return bracket_solve(lambda g: borel_sum(series, cfg, g), to_mpf(lo), to_mpf(hi),
                             mpf("1e-10"))
    except SolverError:  # no sign change on the window (or no convergence): no zero
        return None


def run_borel_map_exponents(digits=40, sigmas=(0, 1, 2, 3)):
    """Fixed point and exponents through the Borel-Leroy mapped summation.

    The Leroy parameter is tuned over the given grid: the value whose
    order-6 -> 7 fixed-point movement is smallest wins.  Checks grade the
    order-7 values (loose windows; the historical pipeline carried further
    optimizations that are not reconstructed) and the stabilization of the
    order sequence.
    """
    start = time.time()
    with workdps(digits):
        rg = rg_series()
        a = rg.large_order_a
        gamma_inv = rg.gamma_inv
        nu_inv = nu_inv_series()
        quad_tol = mpf(10) ** (-(digits // 2))
        trajectories = {}
        for sigma in sigmas:
            rows = {}
            for k in range(2, 8):
                cfg = BorelConfig(a=a, sigma=sigma, quad_rel_tol=quad_tol)
                g_star = _borel_zero(rg.beta.truncate(k), cfg)
                if g_star is None:
                    continue
                nu = 1 / borel_sum(nu_inv.truncate(k), cfg, g_star)
                gamma = 1 / borel_sum(gamma_inv.truncate(k), cfg, g_star)
                rows[k] = (g_star, nu, gamma)
            if 6 in rows and 7 in rows:
                trajectories[sigma] = rows
        if not trajectories:
            raise SelectionError("no Leroy parameter yields a usable trajectory")
        sigma = min(trajectories, key=lambda s: abs(trajectories[s][7][0] - trajectories[s][6][0]))
        rows_by_k = trajectories[sigma]
        rows = []
        for k in sorted(BOREL_MAP_REFERENCE):
            ref = BOREL_MAP_REFERENCE[k]
            got = rows_by_k.get(k)
            rows.append({
                "k": str(k),
                "g_star": _ns(got[0], 8) if got else "",
                "g_star_ref": ref[0],
                "nu": _ns(got[1], 8) if got else "", "nu_ref": ref[1],
                "gamma": _ns(got[2], 8) if got else "", "gamma_ref": ref[2],
            })
        checks = []
        g7, nu7, gamma7 = rows_by_k[7]
        for name, got, ref, tol in (("g_star", g7, "1.4105", "0.02"),
                                    ("nu", nu7, "0.6302", "0.01"),
                                    ("gamma", gamma7, "1.2398", "0.01")):
            d = abs(got - to_mpf(ref))
            checks.append(Check("%s[k=7] within %s" % (name, tol),
                                d <= to_mpf(tol), _ns(d, 3), "<= " + tol))
        if all(k in rows_by_k for k in (3, 4, 6, 7)):
            for idx, name in ((0, "g_star"), (1, "nu"), (2, "gamma")):
                late = abs(rows_by_k[7][idx] - rows_by_k[6][idx])
                early = abs(rows_by_k[4][idx] - rows_by_k[3][idx])
                checks.append(Check("%s stabilizes (|d67| < |d34|)" % name,
                                    late < early,
                                    "%s vs %s" % (_ns(late, 3), _ns(early, 3)),
                                    "late movement smaller"))
        else:
            checks.append(Check("orders 3,4,6,7 available", False,
                                str(sorted(rows_by_k)), "3,4,6,7"))
        return BenchmarkResult(
            table_id="borel-map-exponents",
            columns=("k", "g_star", "g_star_ref", "nu", "nu_ref", "gamma",
                     "gamma_ref"),
            rows=rows, checks=checks,
            config={"digits": digits, "sigma": str(sigma), "a": _ns(a, 10),
                    "sigma_grid": ",".join(str(s) for s in sigmas)},
            wall_time=time.time() - start,
        )


RUNNERS = {
    "saddle-table": run_saddle_table,
    "odm-d0-strong": run_d0_strong,
    "odm-d0-g5": run_d0_g5,
    "odm-oscillator": run_oscillator,
    "phi4-fixed-point": run_phi4_fixed_point,
    "phi4-exponents": run_phi4_exponents,
    "borel-map-exponents": run_borel_map_exponents,
}


def run_benchmark(table_id, digits=None):
    """Run one benchmark table by id; digits of None means each runner's default."""
    if table_id not in RUNNERS:
        raise KeyError(table_id)
    runner = RUNNERS[table_id]
    if digits is None:
        return runner()
    return runner(digits=digits)
