"""Poly vector fields: exterior words in the coordinate derivations.

A ``PolyVec`` is a sum of terms f * d_{i1} ^ ... ^ d_{ik} with Poly
coefficients f and strictly increasing 1-based indices; the empty word stores
a bare function.  Cohomological degree of a term is k - 1, so functions sit
in degree -1 and vector fields in degree 0.

The bracket is defined by exactly two base facts and two recursion rules:
commutator of derivations / derivation acting on a function at the bottom,
and

    [a1 ^ a2, a3] = a1 ^ [a2, a3] + (-1)^{(p2+1) p3} [a1, a3] ^ a2
    [a1, a2]      = (-1)^{1 + p1 p2} [a2, a1]

to peel wedge factors off either side.  No other convention is imported; the
randomized identity suite (antisymmetry, graded Jacobi, odd Leibniz) pins the
consequences.
"""

from __future__ import annotations


from .poly import Poly, _terms_text
from .scalars import _acc, _acc_neg, frac, koszul_sort, ksign, rational_field


class PolyVec:
    """terms: {strictly increasing index tuple: Poly coefficient}."""

    __slots__ = ("n", "alg", "terms")

    def __init__(self, n, terms, alg=None):
        self.n = n
        self.alg = alg if alg is not None else rational_field()
        clean = {}
        for w, f in terms.items():
            if not isinstance(f, Poly):
                raise TypeError("PolyVec coefficients must be Poly")
            if f.alg is not self.alg and f.alg != self.alg:
                raise ValueError("coefficient algebra mismatch")
            r = koszul_sort(w, w)  # every d_i is odd
            if r is None or f.is_zero():
                continue
            sign, cw = r
            if len(cw) > n:
                continue  # wedge beyond the dimension vanishes
            (_acc if sign == 1 else _acc_neg)(clean, cw, f)
        self.terms = clean

    @classmethod
    def zero(cls, n, alg=None):
        return cls(n, {}, alg=alg)

    @classmethod
    def from_function(cls, f):
        return cls(f.n, {(): f}, alg=f.alg)

    @classmethod
    def basis(cls, indices, n, coeff=None):
        f = coeff if coeff is not None else Poly.one(n)
        return cls(n, {tuple(indices): f}, alg=f.alg)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, PolyVec) and self.n == other.n
                and self.terms == other.terms)

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for w, f in other.terms.items():
            _acc(out, w, f)
        return PolyVec(self.n, out, self.alg)

    def __neg__(self):
        return PolyVec(self.n, {w: -f for w, f in self.terms.items()}, self.alg)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q):
        return PolyVec(self.n, {w: f.scale(q) for w, f in self.terms.items()}, self.alg)

    __rmul__ = scale

    def degrees(self):
        return sorted({len(w) - 1 for w in self.terms})

    def is_homogeneous(self, p=None):
        ds = self.degrees()
        if len(ds) > 1:
            return False
        return True if p is None else (not ds or ds[0] == p)

    def component(self, p):
        return PolyVec(self.n, {w: f for w, f in self.terms.items()
                                if len(w) - 1 == p}, self.alg)

    def text(self):
        return _terms_text(("/\\".join(f"d{i}" for i in w), e, c)
                           for w in sorted(self.terms, key=lambda w: (len(w), w))
                           for e, c in self.terms[w].sorted_terms())

    def __repr__(self):
        try:
            return self.text()
        except ValueError:
            return f"PolyVec({self.terms!r})"


def wedge(a: PolyVec, b: PolyVec) -> PolyVec:
    if a.n != b.n:
        raise ValueError("variable count mismatch")
    acc = {}
    for w1, f1 in a.terms.items():
        for w2, f2 in b.terms.items():
            w = w1 + w2
            r = koszul_sort(w, w)
            if r is None:
                continue
            sign, w = r
            f = f1 * f2
            if f:
                (_acc if sign == 1 else _acc_neg)(acc, w, f)
    return PolyVec(a.n, acc, a.alg)


def _vf_apply(i, f: Poly, g: Poly) -> Poly:
    """(f * d_i)(g) = f * dg/dt_i."""
    return f * g.partial(i)


def _bracket_terms(n, alg, w1, f1, w2, f2) -> PolyVec:
    """Schouten bracket of two single terms, by the recursion rules."""
    k, l = len(w1), len(w2)
    if k == 0 and l == 0:
        return PolyVec.zero(n, alg)
    if k == 1 and l == 0:
        return PolyVec.from_function(_vf_apply(w1[0], f1, f2))
    if k == 0 and l == 1:
        # [f, xi] = (-1)^{1 + (-1)*0} [xi, f] = -xi(f)
        return PolyVec.from_function(-_vf_apply(w2[0], f2, f1))
    if k == 1 and l == 1:
        i, j = w1[0], w2[0]
        out = {}
        a = _vf_apply(i, f1, f2)
        if a:
            out[(j,)] = a
        b = _vf_apply(j, f2, f1)
        if b:
            _acc_neg(out, (i,), b)
        return PolyVec(n, out, alg)
    if k >= 2:
        # w1 = a1 ^ a2 with a1 = f1*d_{first}, a2 = rest of the word
        a1 = PolyVec(n, {(w1[0],): f1}, alg)
        a2 = PolyVec(n, {w1[1:]: Poly.one(n, alg)}, alg)
        p2 = (k - 1) - 1
        p3 = l - 1
        left = wedge(a1, _bracket_terms(n, alg, w1[1:], Poly.one(n, alg), w2, f2))
        right = wedge(_bracket_terms(n, alg, (w1[0],), f1, w2, f2), a2)
        sign = ksign((p2 + 1) * p3)
        return left + (right if sign == 1 else -right)
    # k < 2 <= l: flip with the graded antisymmetry rule
    p1, p2 = k - 1, l - 1
    flipped = _bracket_terms(n, alg, w2, f2, w1, f1)
    sign = ksign(1 + p1 * p2)
    return flipped if sign == 1 else -flipped


def schouten(a: PolyVec, b: PolyVec) -> PolyVec:
    """Schouten-Nijenhuis bracket, bilinear over the stored terms."""
    if a.n != b.n:
        raise ValueError("variable count mismatch")
    out = {}
    for w1, f1 in a.terms.items():
        for w2, f2 in b.terms.items():
            for w, f in _bracket_terms(a.n, a.alg, w1, f1, w2, f2).terms.items():
                _acc(out, w, f)
    return PolyVec(a.n, out, a.alg)


def is_poisson(pi: PolyVec) -> bool:
    """[pi, pi] == 0 for a homogeneous bivector (degree 1)."""
    if not pi.is_homogeneous(1):
        raise ValueError("is_poisson requires a homogeneous degree-1 field (bivector)")
    return schouten(pi, pi).is_zero()


def transform(alpha: PolyVec, M, M_inv) -> PolyVec:
    """Pushforward along the linear coordinate change t -> M t.

    Functions transform by substitution t_i -> sum_j M[i][j] t_j and each
    derivation d_i by the matching inverse-transpose combination, so that
    transform respects wedge and Schouten (used for equivariance checks).
    """
    n = alpha.n
    one = Poly.one(n, alpha.alg)
    out = {}
    for w, f in alpha.terms.items():
        base = PolyVec.from_function(f.subs_linear(M))
        for i in w:
            # sigma d_i sigma^{-1} = sum_j (M^{-1})_{ji} d_j
            d_img = {}
            for j in range(1, n + 1):
                c = frac(M_inv[j - 1][i - 1])
                if c:
                    d_img[(j,)] = one.scale(c)
            base = wedge(base, PolyVec(n, d_img, alpha.alg))
        for cw, g in base.terms.items():
            _acc(out, cw, g)
    return PolyVec(n, out, alpha.alg)
