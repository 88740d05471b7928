"""Maurer-Cartan elements and twisting, with the conjugation cross-check.

A degree-1 element with nilpotent coefficients solves the Maurer-Cartan
equation when its residue vanishes; twisting by it deforms the differential
to d + ad(w) while the bracket survives.  The same operator arises a second
way, by conjugating with multiplication by exp(w) -- the two agree word for
word, which is the content of the twist theorem at desk scale.
"""

import random

from linfty.coalg import GradedBasisModule
from linfty.linf import (LinfAlgebra, LinfMorphism, MCElement,
                         conjugation_twist, dgla_tables_from_taylor, mc_push,
                         mc_residue, operators_agree, twist_coder,
                         twist_morphism)
from linfty.samples import sample_non_mc
from linfty.scalars import make_truncated_poly_dga

print(__doc__)

C = make_truncated_poly_dga([0], 4)          # Q[h]/(h^4)
h = C.gen("h")
m = GradedBasisModule("g", [("x", 0), ("y", 1), ("z", 1)], C)
alg = LinfAlgebra.from_dgla(m, {"x": {"y": 1}},
                            {("x", "y"): {"y": 1}, ("x", "z"): {"z": 1}})

om = MCElement(alg, {"y": h, "z": h * h})
print("residue of h y + h^2 z:", mc_residue(alg, om.vect), "(Maurer-Cartan)")
print("Q(exp w) = 0:", alg.Q(om.exp()).is_zero())

tw = twist_coder(alg, om)
d_t, _ = dgla_tables_from_taylor(m, tw.taylor)
print("\ntwisted differential on x:", d_t[m.index["x"]],
      "  (= d(x) + [w, x])")
print("twisted structure squares to zero:", tw.check_square_zero().ok)

conj = conjugation_twist(alg, om)
print("conjugation route agrees word for word:",
      operators_agree(tw.Q, conj, alg.shifted, 3).ok)

phi = LinfMorphism.strict(alg, alg, {"x": {"x": 1}, "y": {"y": 1}, "z": {"z": 3}})
pushed = mc_push(phi, om)
print("\npushforward along a strict morphism:", pushed.vect)
print("exp naturality:", phi.psi(om.exp()) == pushed.exp())
tm = twist_morphism(phi, om, twisted_source=tw)
print("twisted morphism intertwines the twists:", tm.check_intertwines().ok)

# negative control: twisting a non-solution is allowed only explicitly,
# and the squared coderivation then detects it
m3 = GradedBasisModule("g3", [("x", 0), ("y", 1), ("z", 2)], C)
alg3 = LinfAlgebra.from_dgla(m3, {}, {("x", "y"): {"y": 1}, ("y", "y"): {"z": 1},
                                      ("x", "z"): {"z": 2}})
bad = sample_non_mc(random.Random(5), alg3)
print("\na non-solution:", bad, "residue:", mc_residue(alg3, bad))
broken = twist_coder(alg3, bad, allow_non_mc=True)
rep = broken.check_square_zero()
print("its twist fails square-zero at word:", rep.violations[0]["witness"])
