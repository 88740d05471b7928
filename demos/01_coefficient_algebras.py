"""Exact coefficient algebras: build them, check every axiom, tensor them.

All scalars are exact rationals; a coefficient algebra is a finite table of
structure constants, so every axiom is decided by enumeration.
"""

import json

from linfty import jsonio
from linfty.scalars import dga_check, dga_tensor, make_truncated_poly_dga

print(__doc__)

A = make_truncated_poly_dga([0], 3)          # Q[h]/(h^3)
print("Q[h]/(h^3) basis:", A.basis)
print("designated ideal spans indices:", sorted(A.ideal),
      "| nilpotency order:", A.nilpotency_order)
print("axioms:", "pass" if dga_check(A).ok else "FAIL")

L = make_truncated_poly_dga([1], 2)          # exterior line Lambda(th)
th = L.gen("th")
print("\nLambda(th): th*th =", th * th, "(odd squares vanish)")

T = dga_tensor(L, A)
print("\ntensor basis:", T.basis)
i, j = T.index["th"], T.index["h"]
print("h*th - th*h =", T.basis_elem(j) * T.basis_elem(i) -
      T.basis_elem(i) * T.basis_elem(j), " (even-odd commute)")

# a contractible pair: d(th) = y with y := th's degree-2 partner
D = make_truncated_poly_dga([1, 2], 2, names=["th", "y"],
                            differential={"th": {"y": 1}})
print("\nwith differential d(th) = y:", "pass" if dga_check(D).ok else "FAIL")
print("d(th*y) =", (D.gen("th") * D.gen("y")).d(), "(Leibniz through the square)")

print("\nserialized form round-trips:")
text = jsonio.dumps(jsonio.coeff_algebra_to_json(A))
print(" ", jsonio.coeff_algebra_from_json(json.loads(text)) == A)
