"""Sparse multivariate polynomials over a coefficient algebra, with truncation.

A ``Poly`` models both K[t1..tn] and, through its optional truncation
threshold, the desk-scale stand-in for power series: ``trunc = N`` means every
term of total degree >= N has been discarded and is unknown.  Operations
propagate the threshold soundly: min rule under addition and multiplication,
minus one per formal partial derivative.

Variable indices are 1-based throughout (t1 ... tn), matching the text
grammar.  Coefficients are ``DgaElem`` over any ``CoeffDGA``; the default is
the rational field.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .scalars import CoeffDGA, DgaElem, _acc, _acc_neg, frac, frac_str, rational_field


class Infinity:
    """Order of the zero polynomial.  Compares above every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash("linfty.INF")

    def __gt__(self, other):
        return not isinstance(other, Infinity)

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, Infinity)

    def __add__(self, other):
        return self

    __radd__ = __add__


INF = Infinity()


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
        alg = alg if alg is not None else rational_field()
        c = q if isinstance(q, DgaElem) else alg.scalar(q)
        return cls(n, {tuple([0] * n): c}, alg=alg)

    @classmethod
    def one(cls, n, alg=None):
        return cls.const(n, 1, alg=alg)

    @classmethod
    def var(cls, i, n, alg=None):
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        e = [0] * n
        e[i - 1] = 1
        alg = alg if alg is not None else rational_field()
        return cls(n, {tuple(e): alg.one()}, alg=alg)

    @classmethod
    def monomial(cls, exps, coeff=1, alg=None):
        alg = alg if alg is not None else rational_field()
        c = coeff if isinstance(coeff, DgaElem) else alg.scalar(coeff)
        return cls(len(exps), {tuple(exps): c}, alg=alg)

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
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                if trunc is not None and sum(e) >= trunc:
                    continue
                c = c1 * c2
                if c:
                    _acc(out, e, c)
        return _poly(self.n, self.alg, out, trunc)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.one(self.n, self.alg)
        for _ in range(k):
            out = out * self
        return out

    # -- calculus and order ---------------------------------------------------

    def partial(self, i):
        """Formal d/dt_i, 1-based index.  Truncation drops by one."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")
        out = {}
        for e, c in self.terms.items():
            k = e[i - 1]
            if k == 0:
                continue
            e2 = list(e)
            e2[i - 1] = k - 1
            out[tuple(e2)] = c.scale(k)
        trunc = None if self.trunc is None else max(self.trunc - 1, 0)
        return _poly(self.n, self.alg, out, trunc)

    def partial_word(self, word):
        """Iterated partials: word is a multi-index (j_1, ..., j_n).

        One pass: t^e goes to e!/(e-j)! t^(e-j), an integer falling factorial.
        """
        for i, k in enumerate(word[self.n:], start=self.n + 1):
            if k > 0:
                raise ValueError(f"variable index {i} out of range 1..{self.n}")
        j = tuple(max(k, 0) for k in word[:self.n]) + (0,) * (self.n - len(word))
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
        images = []
        for i in range(self.n):
            img = Poly.zero(self.n, self.alg)
            for j in range(self.n):
                if M[i][j]:
                    img = img + Poly.var(j + 1, self.n, self.alg).scale(frac(M[i][j]))
            images.append(img)
        out = Poly.zero(self.n, self.alg)
        for e, c in self.terms.items():
            term = Poly.const(self.n, c, self.alg)
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * images[i]
            out = out + term
        return Poly(self.n, out.terms, self.trunc, self.alg)

    # -- text form -------------------------------------------------------------

    def sorted_terms(self):
        # graded-lexicographic, for canonical serialization
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]))

    def text(self):
        """Grammar form, e.g. '3/2*t1^2*t2 - t3'.  Rational coefficients only."""
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            q = c.rational_part()
            if len(c.coeffs) != 1 or not q:
                raise ValueError("text form requires rational coefficients")
            mono = "*".join(f"t{i+1}" + (f"^{k}" if k > 1 else "")
                            for i, k in enumerate(e) if k)
            if not mono:
                body = frac_str(abs(q))
            elif abs(q) == 1:
                body = mono
            else:
                body = f"{frac_str(abs(q))}*{mono}"
            sign = "-" if q < 0 else "+"
            bits.append((sign, body))
        first_sign, first = bits[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, body in bits[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        try:
            s = self.text()
        except ValueError:
            s = " + ".join(f"({c!r})*t^{e}" for e, c in self.sorted_terms()) or "0"
        if self.trunc is not None:
            s += f" (+O(deg {self.trunc}))"
        return s


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
    """All exponent tuples in n variables of total degree <= max_degree."""
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


def multi_indices_up_to(n, max_order):
    """All multi-indices with |j| <= max_order, graded-lex sorted."""
    return sorted(monomials_up_to(n, max_order), key=lambda e: (sum(e), e))
