"""Stieltjes series of rational atoms: a divergent family with exact sums.

With weights ``w_i > 0`` summing to one and atoms ``t_i > 0``, the series
``c_k = k! sum_i w_i (-t_i)^k`` has the Borel transform ``sum_i w_i / (1 +
t_i z)``, rational with poles at ``-1/t_i`` on the negative axis, and the
Borel sum ``F(g) = sum_i w_i int_0^inf e^-s / (1 + g t_i s) ds = sum_i w_i
a_i e^(a_i) E1(a_i)``, ``a_i = 1/(g t_i)``.  Its large-order constant is
``A = 1/max t_i``.
"""

from fractions import Fraction
from math import factorial

from hypothesis import strategies as st
from mpmath import mp, mpf

from resum.precision import to_mpf


@st.composite
def atoms(draw):
    """``(weights, atoms)``: 1-4 distinct rational atoms in [0.05, 2] and
    positive rational weights summing to one."""
    ts = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(ts), max_size=len(ts)))
    return [Fraction(r, sum(raw)) for r in raw], [Fraction(t, 20) for t in ts]


def stieltjes_coeffs(weights, atoms, order):
    """``c_0 .. c_order`` exactly, as ``p/q`` (or integer) strings."""
    return [str(factorial(k) * sum(w * (-t) ** k for w, t in zip(weights, atoms)))
            for k in range(order + 1)]


def stieltjes_value(weights, atoms, g):
    """The Borel sum ``F(g)`` at ``g > 0``, at the working precision."""
    total = mpf(0)
    for w, t in zip(weights, atoms):
        a = 1 / (to_mpf(g) * to_mpf(Fraction(t)))
        total += to_mpf(Fraction(w)) * a * mp.exp(a) * mp.e1(a)
    return total
