"""Sparse polynomials with truncation thresholds as the stand-in for series.

A threshold N means "degrees >= N were discarded and are unknown"; arithmetic
propagates the tightest threshold it can justify, so equality below the
threshold is always an exact statement.
"""

import math

from linfty.diffop import PolyDiffOp, extend_to_series, mu
from linfty.poly import INF, Poly

print(__doc__)

t1, t2 = Poly.var(1, 2), Poly.var(2, 2)
print("(t1 + t2)(t1 - t2) =", ((t1 + t2) * (t1 - t2)).text())

f = Poly(2, (Poly.one(2) + t1).terms, 3)     # 1 + t1, unknown from degree 3
print("\n(1 + t1 + O(3))^2 =", (f * f).text(), "+ O(deg", (f * f).trunc, ")")

geo = Poly(1, {(k,): 1 for k in range(5)}, 5)
print("\ngeometric series to degree 4:", geo.text())
print("its derivative:", geo.partial(1).text(), "+ O(deg", geo.partial(1).trunc, ")")

# the zero polynomial has order INF, which is math.inf and prints as inf
print("\nadic orders:  t1*t2 + t1^3 ->",
      (Poly.monomial((1, 1)) + Poly.monomial((3, 0))).adic_order(),
      " |  0 ->", Poly.zero(2).adic_order())
assert Poly.zero(2).adic_order() == INF == math.inf

# an order-d operator needs d extra known degrees to be exact at threshold N
op = PolyDiffOp.basis(((2,),), 1)            # second derivative
act = extend_to_series(op, 3)
exact = Poly(1, {(k,): 1 for k in range(6)})
print("\nsecond derivative through truncation:")
print("  full input :", act(exact).text())
print("  N+2 input  :", act(exact.truncate(5)).text(), "(same below N = 3)")

m = extend_to_series(mu(1), 2)
a = Poly(1, {(0,): 1, (1,): 1}, 2)
b = Poly(1, {(0,): 1, (1,): 1, (2,): 1}, 3)
print("\nproduct of two truncated series keeps the min threshold:",
      m(a, b).text(), "+ O(deg", m(a, b).trunc, ")")
