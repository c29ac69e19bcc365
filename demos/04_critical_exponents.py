"""Critical exponents of the three-dimensional scalar phi^4 model.

Seven loops of the renormalization-group flow are enough, once summed, to
fix the Wilson-Fisher zero and the critical exponents to a few parts in a
thousand.  Two independent routes are compared: the shifted order-dependent
mapping in its flow-covariant form, and the Borel-Leroy transform continued
through the conformal disk map.
"""

from resum import benchmarks

fp = benchmarks.run_benchmark("phi4-fixed-point")
print("flow zero and derivative by order (shifted covariant mapping):")
print("  k    g*           omega       complex pair?")
for row in fp.rows:
    print("  %s    %-10s   %-9s   %s" % (
        row["k"], row["g_star"][:10], row["omega"][:9],
        "yes" if row["complex_pair"] == "1" else "no"))
print()

ex = benchmarks.run_benchmark("phi4-exponents")
print("exponents at the zero (gamma from 1/gamma, nu from its own series,")
print("eta from the reduced series; exact relation gamma = nu (2 - eta)):")
print("  k    gamma       nu          eta")
for row in ex.rows:
    print("  %s    %-9s   %-9s   %s" % (
        row["k"], row["gamma"][:9], row["nu"][:9], row["eta"][:9] or "-"))
print()

bm = benchmarks.run_benchmark("borel-map-exponents")
print("Borel-Leroy route (sigma tuned to %s):" % bm.config["sigma"])
print("  k    g*           nu          gamma")
for row in bm.rows:
    print("  %s    %-10s   %-9s   %s" % (
        row["k"], row["g_star"][:10], row["nu"][:9], row["gamma"][:9]))
print()
print("checks: %s" % ("all passed" if fp.passed and ex.passed and bm.passed
                      else "SOME FAILED"))
