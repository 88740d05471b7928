"""The antisymmetrization map and its desk-scale cohomology shadow.

u1 sends wedges of vector fields to alternating multi-derivation operators;
it is a chain map into the Hochschild complex, normalized of order one, and
on order/degree slices it hits every cohomology class exactly once in
degrees -1 and 0.  The arity-2 defect of stopping at the first coefficient
is exhibited, and a Poisson bivector is pushed through the map over a
nilpotent coefficient algebra.
"""

from linfty.hkr import (TruncationSpec, formality_identity_residual,
                        hkr_report, mc_bivector_workflow, trivial_plugin, u1,
                        u1_chain_check)
from linfty.diffop import hochschild_d
from linfty.poly import Poly
from linfty.polyvec import PolyVec
from linfty.scalars import make_truncated_poly_dga

print(__doc__)

n = 2
t1, t2 = Poly.var(1, n), Poly.var(2, n)
op = u1(PolyVec(n, {(1, 2): t1}))
print("u1(t1 d1^d2) =", op.text())
print("applied to (t1, t2):", op.apply([t1, t2]).text())
print("normalized:", op.is_normalized(), "| order:", op.order())
print("d∘u1 vanishes on 40 samples:", u1_chain_check(2, 40, seed=1)["ok"])

print("\nrank tables (order <= 2, coefficient degree <= 2):")
for nn in (1, 2):
    rep = hkr_report(TruncationSpec(nn, 2, 2, -1, 1))
    for row in rep["rows"]:
        if row["window_reliable"]:
            print(f"  n={nn} p={row['p']:+d}: dim T = {row['dim_T_slice']:2d}  "
                  f"rank H = {row['rank_H']:2d}  match = {row['match']}")

print("\nthe arity-2 defect of the first coefficient alone:")
alpha = PolyVec(n, {(1, 2): t1})
beta = PolyVec(n, {(1, 2): t2})
res = formality_identity_residual(trivial_plugin(), [alpha, beta])
print("  residual nonzero:", not res.is_zero(),
      "| and it is a Hochschild cocycle:", hochschild_d(res).is_zero())

print("\npushing the so(3) bivector through u1 over Q[h]/(h^3):")
t1, t2, t3 = (Poly.var(i, 3) for i in (1, 2, 3))
pi = PolyVec(3, {(1, 2): t3}) + PolyVec(3, {(2, 3): t1}) + PolyVec(3, {(1, 3): -t2})
rep = mc_bivector_workflow(pi, make_truncated_poly_dga([0], 3))
print("  chosen coefficient:", rep["a"], "| residue vanishes:", rep["residue_zero"])
print("  residue sits at ideal-power:", rep["residue_m_order"],
      "(the defect the higher coefficients would cancel)")
