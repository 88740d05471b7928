"""Sparse multivariate polynomials over a coefficient algebra, with truncation.

A ``Poly`` models both K[t1..tn] and, through its optional truncation
threshold, the desk-scale stand-in for power series: ``trunc = N`` means every
term of total degree >= N has been discarded and is unknown.  Operations
propagate the threshold soundly: min rule under addition and multiplication,
minus one per formal partial derivative.

Variable indices are 1-based throughout (t1 ... tn), matching the text
grammar.  Coefficients are ``DgaElem`` over any ``CoeffDGA``; the default is
the rational field.  A plain scalar coefficient (an int, a Fraction or a
'num/den' string) is taken as that multiple of the unit, through
``scalars.frac``, so integral values are stored as ints.  The order of the
zero polynomial, ``INF``, is ``math.inf``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub

from .scalars import DgaElem, _acc, _acc_neg, _elem, _mul_acc, frac, frac_str, rational_field


INF = math.inf


def _min_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class Poly:
    """terms: {exponent tuple: DgaElem}; trunc: None or the threshold N."""

    __slots__ = ("n", "alg", "terms", "trunc")

    def __init__(self, n, terms, trunc=None, alg=None):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        self.alg = alg if alg is not None else rational_field()
        clean = {}
        for e, c in terms.items():
            if not isinstance(c, DgaElem):
                c = self.alg.scalar(c)
            elif c.alg is not self.alg and c.alg != self.alg:
                raise ValueError("coefficient algebra mismatch")
            if not c:
                continue
            if trunc is not None and sum(e) >= trunc:
                continue
            clean[tuple(e)] = c
        self.terms = clean
        self.trunc = trunc

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n, alg=None):
        return cls(n, {}, alg=alg)

    @classmethod
    def const(cls, n, q, alg=None):
        """The constant q, over alg; alg defaults to a DgaElem q's own algebra, else Q."""
        if alg is None:
            alg = q.alg if isinstance(q, DgaElem) else rational_field()
        c = q if isinstance(q, DgaElem) else alg.scalar(q)
        return cls(n, {tuple([0] * n): c}, alg=alg)

    @classmethod
    def one(cls, n, alg=None):
        return cls.const(n, 1, alg=alg)

    @classmethod
    def var(cls, i, n):
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        e = [0] * n
        e[i - 1] = 1
        return cls(n, {tuple(e): rational_field().one()})

    @classmethod
    def monomial(cls, exps, coeff=1):
        """coeff * t^exps, over a DgaElem coeff's own algebra, else over Q."""
        c = coeff if isinstance(coeff, DgaElem) else rational_field().scalar(coeff)
        return cls(len(exps), {tuple(exps): c}, alg=c.alg)

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.n == other.n
                and self.terms == other.terms and self.trunc == other.trunc)

    def same_shape(self, other):
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        if self.alg is not other.alg and self.alg != other.alg:
            raise ValueError("coefficient algebra mismatch")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self.same_shape(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            _acc(out, e, c)
        return _poly_cut(self, out, _min_trunc(self.trunc, other.trunc))

    def __neg__(self):
        return _poly(self.n, self.alg, {e: -c for e, c in self.terms.items()}, self.trunc)

    def __sub__(self, other):
        self.same_shape(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            _acc_neg(out, e, c)
        return _poly_cut(self, out, _min_trunc(self.trunc, other.trunc))

    def scale(self, q):
        if isinstance(q, DgaElem):
            out = {}
            for e, c in self.terms.items():
                qc = q * c
                if qc:
                    out[e] = qc
            return _poly(self.n, self.alg, out, self.trunc)
        if not isinstance(q, int):
            q = frac(q)
        if q == 1:
            return self
        if not q:
            return _poly(self.n, self.alg, {}, self.trunc)
        return _poly(self.n, self.alg, {e: c.scale(q) for e, c in self.terms.items()},
                     self.trunc)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, DgaElem)):
            return self.scale(other)
        self.same_shape(other)
        trunc = _min_trunc(self.trunc, other.trunc)
        table = self.alg.table  # every coefficient lives in alg: the constructors refuse others
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                if trunc is not None and sum(e) >= trunc:
                    continue
                acc = out.get(e)
                if acc is None:
                    acc = out[e] = {}
                _mul_acc(acc, table, c1.coeffs, c2.coeffs, 1)
                if not acc:
                    del out[e]
        return _poly(self.n, self.alg, {e: _elem(self.alg, c) for e, c in out.items()}, trunc)

    def __rmul__(self, other):
        return self.scale(other)

    # -- calculus and order ---------------------------------------------------

    def partial(self, i):
        """Formal d/dt_i, 1-based index.  Truncation drops by one."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")
        return self.partial_word(tuple(int(k == i) for k in range(1, self.n + 1)))

    def partial_word(self, word):
        """Iterated partials: word is a multi-index (j_1, ..., j_n).

        One pass: t^e goes to e!/(e-j)! t^(e-j), an integer falling factorial.
        """
        if min(word, default=0) < 0:
            raise ValueError(f"negative derivative order in {tuple(word)}")
        for i, k in enumerate(word[self.n:], start=self.n + 1):
            if k:
                raise ValueError(f"variable index {i} out of range 1..{self.n}")
        j = tuple(word[:self.n]) + (0,) * (self.n - len(word))
        order = sum(j)
        if not order:
            return self
        out = {}
        for e, c in self.terms.items():
            mult = 1
            for ev, jv in zip(e, j):
                if ev < jv:
                    break
                for x in range(ev - jv + 1, ev + 1):
                    mult *= x
            else:
                out[tuple(map(sub, e, j))] = c if mult == 1 else c.scale(mult)
        trunc = None if self.trunc is None else max(self.trunc - order, 0)
        return _poly(self.n, self.alg, out, trunc)

    def adic_order(self):
        if not self.terms:
            return INF
        return min(sum(e) for e in self.terms)

    def truncate(self, N):
        if N < 0:
            raise ValueError("truncation threshold must be >= 0")
        return _poly_cut(self, self.terms, _min_trunc(self.trunc, N))

    def subs_linear(self, M):
        """Substitute t_i -> sum_j M[i][j] t_j (matrix rows are 1-based vars)."""
        if len(M) != self.n or any(len(row) != self.n for row in M):
            raise ValueError("substitution matrix must be n x n")
        units = [tuple(int(k == j) for k in range(self.n)) for j in range(self.n)]
        images = []
        for row in M:
            img = {}
            for e, q in zip(units, row):
                if q and frac(q):
                    img[e] = self.alg.scalar(q)
            images.append(_poly(self.n, self.alg, img, None))
        out = {}
        for e, c in self.terms.items():
            term = Poly.const(self.n, c, self.alg)
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * images[i]
            for e2, c2 in term.terms.items():
                _acc(out, e2, c2)
        # a linear substitution keeps every degree, so no term reaches trunc
        return _poly(self.n, self.alg, out, self.trunc)

    # -- text form -------------------------------------------------------------

    def sorted_terms(self):
        # graded-lexicographic, for canonical serialization
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]))

    def text(self):
        """Grammar form, e.g. '3/2*t1^2*t2 - t3'.  Rational coefficients only."""
        return _terms_text(("", e, c) for e, c in self.sorted_terms())

    def __repr__(self):
        try:
            s = self.text()
        except ValueError:
            s = " + ".join(f"({c!r})*t^{e}" for e, c in self.sorted_terms()) or "0"
        if self.trunc is not None:
            s += f" (+O(deg {self.trunc}))"
        return s


def _terms_text(terms):
    """Grammar text of (word, exponents, coefficient) terms, '0' for none; the
    word is '' for a function.  A coefficient off Q raises ValueError."""
    bits = []
    for word, e, c in terms:
        q = c.rational_part()
        if len(c.coeffs) != 1 or not q:
            raise ValueError("text form requires rational coefficients")
        mono = "*".join(f"t{i+1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k)
        coeff = frac_str(abs(q))
        factors = (None if coeff == "1" and (mono or word) else coeff, mono, word)
        bits.append(("- " if q < 0 else "+ ") + "*".join(x for x in factors if x))
    if not bits:
        return "0"
    out = " ".join(bits)
    return out[2:] if out[0] == "+" else "-" + out[2:]


def _poly(n, alg, terms, trunc):
    """Poly from canonical parts: tuple exponents below trunc, nonzero DgaElems."""
    f = object.__new__(Poly)
    f.n = n
    f.alg = alg
    f.terms = terms
    f.trunc = trunc
    return f


def _poly_cut(f, terms, trunc):
    """Like ``_poly`` with f's shape, dropping the terms of degree >= trunc."""
    if trunc is not None:
        terms = {e: c for e, c in terms.items() if sum(e) < trunc}
    return _poly(f.n, f.alg, terms, trunc)


def monomials_up_to(n, max_degree):
    """All exponent tuples in n variables of total degree <= max_degree,
    graded-lex sorted."""
    out = []
    for total in range(max_degree + 1):
        for e in _compositions(total, n):
            out.append(e)
    return out


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
