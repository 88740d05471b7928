"""Words of the truncated symmetric coalgebra and operators built on it.

Elements are signed combinations of sorted words over a graded basis; the
comultiplication splits words with Koszul signs.  Coderivations and coalgebra
morphisms are reconstructed from their Taylor coefficients, and the axiom
checkers verify the construction on every word up to a given order.
"""

from fractions import Fraction

from linfty.coalg import (CoalgElem, GradedBasisModule, TaylorSeq,
                          check_coderivation, coder_from_taylor, exp,
                          is_grouplike, is_primitive, ln, taylor_of)
from linfty.scalars import make_truncated_poly_dga

print(__doc__)

C = make_truncated_poly_dga([0], 3)          # Q[h]/(h^3)
g = GradedBasisModule("g", [("a", 0), ("b", 0), ("c", 1)], C)

ga, gb, gc = (CoalgElem.generator(g, x) for x in "abc")
print("c*c =", (gc * gc), "(odd letter squares vanish)")
print("a is primitive:", is_primitive(ga), "| a*b is primitive:", is_primitive(ga * gb))

print("\ncomultiplication of a*b:")
for (w1, w2), coeff in sorted((ga * gb).comult().items()):
    names = lambda w: "*".join(g.gen_name(i) for i in w) or "1"
    print(f"   {names(w1)} (x) {names(w2)}   coeff {coeff}")

h = C.gen("h")
om = ga.scale(h) + gb.scale(h * h)
e = exp(om)
print("\nexp(h a + h^2 b) =", e)
print("group-like:", is_grouplike(e), "| ln returns the element:", ln(e) == om)

# a coderivation from one Taylor coefficient: d(a) = c
Q = coder_from_taylor(TaylorSeq(g, g, {1: {(0,): {2: C.one()}}}, "coderivation"))
print("\nQ(a*b) =", Q(ga * gb), " (Leibniz over the word)")
print("Q is a coderivation on all words of order <= 4:", check_coderivation(Q, 4).ok)
print("its Taylor coefficient reads back:", taylor_of(Q, 1) == {(0,): {2: C.one()}})
