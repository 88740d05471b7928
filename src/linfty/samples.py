"""Deterministic randomized instance generators for the verification suites.

Random DG Lie algebras are drawn from hand-verified structure families and
scrambled by degree-preserving unimodular base changes, so every instance
satisfies the axioms exactly while exercising nontrivial structure constants.
Random non-strict morphisms go between abelian algebras with d = 0, where
every Taylor table intertwines.  All generators take an explicit seed through
``random.Random``.
"""

from __future__ import annotations

import itertools

from .coalg import GradedBasisModule, TaylorSeq, vect_acc, word_degree
from .linf import LinfAlgebra, LinfMorphism, MCElement, mc_residue
from .scalars import CoeffDGA, _acc, frac, make_truncated_poly_dga, rational_field


FAMILIES = {
    # name: (generators, d, bracket)
    "heisenberg": ([("e", 0), ("f", 0), ("c", 0)], {},
                   {("e", "f"): {"c": 1}}),
    "split_line": ([("x", 0), ("y", 1)], {"x": {"y": 1}}, {}),
    "weighted": ([("x", 0), ("y", 1), ("z", 1)], {"x": {"y": 1}},
                 {("x", "y"): {"y": 1}, ("x", "z"): {"z": 1}}),
    "odd_square": ([("x", 0), ("y", 1), ("z", 2)], {},
                   {("x", "y"): {"y": 1}, ("y", "y"): {"z": 1}, ("x", "z"): {"z": 2}}),
    "cross": ([("c", 0), ("b", 0), ("a", 1)], {"b": {"a": 1}},
              {("c", "b"): {"b": 1}, ("c", "a"): {"a": 1}}),
    "abelian3": ([("u", 0), ("v", 1), ("w", 2)], {"u": {"v": 1}}, {}),
    "sl2": ([("e", 0), ("h", 0), ("f", 0)], {},
            {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}}),
}


def unimodular_by_degree(module, rng):
    """Degree-preserving change of basis with determinant ±1 (and its inverse)."""
    n = len(module)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    by_degree = {}
    for i in range(n):
        by_degree.setdefault(module.degree(i), []).append(i)
    for block in by_degree.values():
        if len(block) < 2:
            continue
        for _ in range(2):
            i, j = rng.sample(block, 2)
            c = rng.choice([-2, -1, 1, 2])
            # row op on P: e_i -> e_i + c e_j; inverse composes in reverse
            for k in range(n):
                P[i][k] += c * P[j][k]
                Pinv[k][j] -= c * Pinv[k][i]
    return P, Pinv


def change_basis_dgla(module, d_table, bracket_table, P, Pinv, C):
    """Transport DGLA tables along new_i = sum_j P[i][j] old_j."""
    n = len(module)

    def to_new(vect):
        # vect over old basis -> coordinates over new basis via Pinv columns
        out = {}
        for j, c in vect.items():
            for i in range(n):
                q = Pinv[j][i]
                if q:
                    _acc(out, i, c.scale(q))
        return out

    def old_vect(table, i):
        return table.get(i, {})

    d_new = {}
    for i in range(n):
        acc = {}
        for j in range(n):
            if P[i][j]:
                vect_acc(acc, old_vect(d_table, j), P[i][j])
        acc = to_new(acc)
        if acc:
            d_new[i] = acc
    br_new = {}
    for i1, i2 in itertools.product(range(n), repeat=2):
        acc = {}
        for j1 in range(n):
            if not P[i1][j1]:
                continue
            for j2 in range(n):
                if not P[i2][j2]:
                    continue
                v = bracket_table.get((j1, j2), {})
                if v:
                    vect_acc(acc, v, P[i1][j1] * P[i2][j2])
        acc = to_new(acc)
        if acc:
            br_new[(i1, i2)] = acc
    return d_new, br_new


def sample_dgla(rng, C: CoeffDGA, family=None, scramble=True) -> LinfAlgebra:
    """A DGLA instance over C from a verified family, base-change scrambled."""
    name = family if family is not None else rng.choice(sorted(FAMILIES))
    gens, d_data, br_data = FAMILIES[name]
    module = GradedBasisModule(name, gens, C)
    alg = LinfAlgebra.from_dgla(module, d_data, br_data, check=False)
    d_table, bracket = alg.dgla_tables()
    if scramble:
        P, Pinv = unimodular_by_degree(module, rng)
        d_table, bracket = change_basis_dgla(module, d_table, bracket, P, Pinv, C)
    out = LinfAlgebra.from_dgla(module, d_table, bracket, check=True)
    out.family = name
    return out


def nilpotent_lattice(C: CoeffDGA, rng):
    """A random nilpotent coefficient: q * (ideal basis element), q in {0, 1, -1, 1/2}."""
    q = rng.choice([0, 1, -1, frac(1, 2)])
    if not q or not C.ideal:
        return C.zero()
    return C.basis_elem(rng.choice(sorted(C.ideal))).scale(q)


def sample_mc(rng, algebra: LinfAlgebra):
    """Rejection-sample a Maurer-Cartan element on the nilpotent lattice."""
    module = algebra.module
    deg1 = [i for i in range(len(module)) if module.degree(i) == 1]
    if not deg1:
        return MCElement(algebra, {}, check=False)
    for _ in range(60):
        v = {}
        for i in deg1:
            c = nilpotent_lattice(C=module.coeff, rng=rng)
            if c:
                v[i] = c
        try:
            if not mc_residue(algebra, v):
                return MCElement(algebra, v, check=False)
        except ValueError:
            continue
    return MCElement(algebra, {}, check=False)


def sample_non_mc(rng, algebra: LinfAlgebra, tries=200):
    """An element with nonzero residue (for negative controls), or None."""
    module = algebra.module
    deg1 = [i for i in range(len(module)) if module.degree(i) == 1]
    for _ in range(tries):
        v = {i: nilpotent_lattice(module.coeff, rng) for i in deg1}
        v = {i: c for i, c in v.items() if c}
        if v and mc_residue(algebra, v):
            return v
    return None


def strict_base_change_morphism(rng, algebra: LinfAlgebra) -> LinfMorphism:
    """An isomorphism onto the base-changed copy of the same algebra."""
    module = algebra.module
    d_table, bracket = algebra.dgla_tables()
    P, Pinv = unimodular_by_degree(module, rng)
    d2, br2 = change_basis_dgla(module, d_table, bracket, P, Pinv, module.coeff)
    target = LinfAlgebra.from_dgla(module, d2, br2, check=True)
    # new_i = sum_j P[i][j] old_j, so old_j maps to sum_i Pinv[j][i] new_i
    table = {}
    for j in range(len(module)):
        v = {i: module.coeff.scalar(Pinv[j][i]) for i in range(len(module))
             if Pinv[j][i]}
        table[j] = v
    return LinfMorphism.strict(algebra, target, table, check=True)


def split_line_morphism() -> LinfMorphism:
    """The non-strict endomorphism of split_line over Q (d x = y) that
    demos/07_extension.py extends: Psi_1 = id, Psi_2(x y) = x, Psi_2(y y) = y,
    Psi_3(x y y) = x, Psi_3(y y y) = y."""
    gens, d, bracket = FAMILIES["split_line"]
    alg = LinfAlgebra.from_dgla(GradedBasisModule("split_line", gens, rational_field()),
                                d, bracket)
    x, y = alg.module.index["x"], alg.module.index["y"]
    maps = {1: {(x,): {x: 1}, (y,): {y: 1}}, 2: {(x, y): {x: 1}, (y, y): {y: 1}},
            3: {(x, y, y): {x: 1}, (y, y, y): {y: 1}}}
    return LinfMorphism(alg, alg, TaylorSeq(alg.shifted, alg.shifted, maps, "morphism"))


def sample_abelian_pair(rng, C):
    """Two zero-differential abelian algebras (3 generators) and a random morphism."""
    degs = sorted(rng.choice([0, 1, 2]) for _ in range(3))
    ms = GradedBasisModule("src", [(f"s{i}", d) for i, d in enumerate(degs)], C)
    mt = GradedBasisModule("tgt", [(f"t{i}", d) for i, d in enumerate(degs)], C)
    a = LinfAlgebra.abelian(ms)
    b = LinfAlgebra.abelian(mt)
    maps = {}
    shs, sht = a.shifted, b.shifted
    for j in (1, 2):
        tab = {}
        for w in shs.words(j):
            want = word_degree(shs, w)
            v = {}
            for g in range(len(sht)):
                if sht.degree(g) == want:
                    q = rng.randint(-2, 2)
                    if q:
                        v[g] = C.scalar(q)
            if v:
                tab[w] = v
        if tab:
            maps[j] = tab
    T = TaylorSeq(shs, sht, maps, "morphism")
    return a, b, LinfMorphism(a, b, T, check=False)


def default_coefficients(k=4) -> CoeffDGA:
    return make_truncated_poly_dga([0], k)
