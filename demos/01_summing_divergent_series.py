"""Four ways to sum a factorially divergent series.

The alternating factorial series sum_k (-1)^k k! g^k has zero radius of
convergence, yet it is the asymptotic expansion of a perfectly finite
function: F(g) = integral_0^inf exp(-t) / (1 + g t) dt.  This script sums
the series with each method in the package and compares against the
integral evaluated directly.
"""

from mpmath import mp

from resum import (
    MappingFamily,
    MappingSpec,
    PowerSeries,
    RhoSelectionCriterion,
    borel_pade_sum,
    borel_sum,
    build_rho_table,
    odm_value,
    pade_eval,
    pade_fit,
)

mp.dps = 40

ORDER = 30
G = mp.mpf(1)

series = PowerSeries(tuple((-1) ** k * mp.factorial(k) for k in range(ORDER + 1)))
exact = mp.quad(lambda t: mp.exp(-t) / (1 + G * t), [0, mp.inf])

print("alternating factorial series at g = %s" % G)
print("exact value (Laplace integral):  %s" % mp.nstr(exact, 15))
print()

print("naive partial sums (hopeless -- the terms grow like k!):")
for terms in (4, 8, 12):
    print("   %2d terms -> %s" % (terms, mp.nstr(series.truncate(terms - 1).eval(G), 8)))
print()

value = pade_eval(pade_fit(series, 5, 6), G)
print("Pade [5/6]:            %s  (error %s)" % (
    mp.nstr(value, 15), mp.nstr(abs(value - exact), 3)))

value, _ = borel_pade_sum(series, 0, 0, 1, G)
print("Borel-Pade [0/1]:      %s  (error %s)" % (
    mp.nstr(value, 15), mp.nstr(abs(value - exact), 3)))
# the transform of this series is exactly 1/(1+z): the [0/1] fit nails it

value, _ = borel_sum(series, 1, 0, G)
print("mapped Borel-Leroy:    %s  (error %s)" % (
    mp.nstr(value, 15), mp.nstr(abs(value - exact), 3)))

# Order-dependent mapping: the function is analytic off the negative axis,
# singularity at g = -1, so A = 1 and the quadratic power-cut map applies.
# The largest tuning root tracks the physical branch for this series.
table = build_rho_table(series, MappingSpec(MappingFamily.POWER_CUT, 2))
criterion = RhoSelectionCriterion(smallness_factor="1e6")
report = odm_value(table, ORDER - 1, criterion, G)
print("order-dependent map:   %s  (error %s)" % (
    mp.nstr(report.value, 15), mp.nstr(abs(report.value - exact), 3)))
print()
print("ODM diagnostics: scale rho_%d = %s, last-term error estimate %s" % (
    report.k, mp.nstr(report.rho, 8), mp.nstr(report.error_estimate, 3)))
