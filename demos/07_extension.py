"""Base change of a non-strict L-infinity morphism, read one word at a time.

Extending the coefficients of a morphism Psi of DG Lie algebras over Q to a
graded algebra A gives Psi_A, whose Taylor coefficient on one word is

    Psi_A((a_1|g_1)...(a_j|g_j)) = ±a_1...a_j | Psi_j(g_1...g_j),

the sign moving each a_k left past the suspended g_1..g_{k-1}.  The engine
evaluates that formula on the words a computation reads and never builds
the whole table.  Here Psi has quadratic and cubic parts, A is
Λ(θ1,θ2)⊗Q[h]/(h^3), the morphism axiom of Psi_A holds on sampled words, and
the degree count bounds the powers of a degree-one element Psi_A can see.
"""

import random

from linfty.coalg import CoalgElem, GradedBasisModule, TaylorSeq
from linfty.linf import LinfAlgebra, LinfMorphism, extend_multilinear, finiteness_bound
from linfty.scalars import dga_tensor, make_truncated_poly_dga, rational_field

print(__doc__)

Q = rational_field()
m = GradedBasisModule("g", [("x", 0), ("y", 1)], Q)
alg = LinfAlgebra.from_dgla(m, {"x": {"y": 1}}, {})            # d x = y
x, y = m.index["x"], m.index["y"]
maps = {1: {(x,): {x: 1}, (y,): {y: 1}},
        2: {(x, y): {x: 1}, (y, y): {y: 1}},
        3: {(x, y, y): {x: 1}, (y, y, y): {y: 1}}}
psi = LinfMorphism(alg, alg, TaylorSeq(alg.shifted, alg.shifted, maps, "morphism"))
print("Psi is an L-infinity morphism with Taylor coefficients up to order",
      psi.taylor.max_j(), "| strict:", psi.is_strict())

A = dga_tensor(make_truncated_poly_dga([1, 1], 2, names=["th1", "th2"]),
               make_truncated_poly_dga([0], 3))
ext = extend_multilinear(psi, A)
sh, tgt = ext.source.shifted, ext.target.module
letter = {sh.gen_name(i): i for i in range(len(sh))}
print(f"\nA has {len(A)} basis elements, so A x g has {len(sh)} letters")


def show(word):
    value = ext.taylor.eval_word(tuple(letter[n] for n in word))
    terms = " + ".join(f"({c}) {tgt.gen_name(i)}" for i, c in value.items()) or "0"
    print(f"  Psi_A({' '.join(word)}) = {terms}")


# th1 and th2 are odd: the sign of th2 crossing x (suspended degree -1)
# shows up in the second value, and th1*th1 = 0 kills the third
show(["th1|x", "th2|y"])
show(["th2|x", "th1|y"])
show(["th1|x", "th1*h|y"])
show(["h|y", "h|y", "th1|x"])

rng = random.Random(7)
words = rng.sample(sh.words_up_to(2), 12)
failing = []
for w in words:
    e = CoalgElem(sh, {w: Q.one()})
    if ext.psi(ext.source.Q(e)) != ext.target.Q(ext.psi(e)):
        failing.append(w)
print(f"\nPsi_A Q = Q' Psi_A on {len(words)} sampled words:", not failing)

# omega = th1|x - th2|x has degree 1; by degree count Psi_A(omega^k w)
# vanishes for every k above finiteness_bound(|w|, degrees of w's g's, r0)
pairs = ext.source.tensor_pairs
omega = CoalgElem.from_vect(sh, {letter["th1|x"]: Q.one(), letter["th2|x"]: Q.scalar(-1)})
r0 = min(d for _, d in m.gens)
checked = nonzero = 0
for w in words:
    if not w:
        continue
    k0 = finiteness_bound(len(w), [m.degree(pairs[i][1]) for i in w], r0)
    power = CoalgElem.unit(sh)
    for k in range(1, k0 + 3):
        power = power * omega
        if power.is_zero():
            break
        if k > k0:
            for u in power.words:
                checked += 1
                nonzero += bool(ext.taylor.eval_word(u + w))
print(f"terms beyond the degree-count bound: {checked} checked, {nonzero} nonzero")
if failing or nonzero:
    raise SystemExit("the extension fails a check")
