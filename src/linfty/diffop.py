"""Poly differential operators on K[t1..tn] in canonical basis form.

A ``PolyDiffOp`` is a sum of terms  c(t) * D[j_0; ...; j_p]  where each j_k is
an n-multi-index: the operator sends (a_0, ..., a_p) to c * prod_k d^{j_k} a_k.
The degree of a term is p = arity - 1; the empty word stores a bare polynomial
(degree -1).  Coefficients always sit on the left of the derivative word;
insertion re-normalizes into this form via the (multi-)Leibniz rule.

Two independent code paths exist on purpose:

* ``gerstenhaber`` builds brackets from signed slot insertions, with one
  coefficient product per Leibniz head and one scalar accumulator per bracket,
* ``hochschild_d`` builds the shifted differential from the alternating sum
  (slot append/prepend + Leibniz merges).

Their consistency d(phi) = [mu, phi] (global sign +1), and the agreement of
both with plain ``apply``-level evaluation, are part of the test harness:
``apply`` is the semantic oracle for everything here.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .poly import Poly, _compositions, _min_trunc, _poly, _poly_cut, _terms_text
from .scalars import _acc, _acc_neg, _elem, ksign, rational_field


def _zero_mi(n):
    return tuple([0] * n)


def _mi_add(a, b):
    return tuple(map(operator.add, a, b))


@functools.cache
def _splits(j, parts):
    """Decompositions j = a_1 + ... + a_parts with multinomial coefficients.

    Returns a tuple of (tuple of multi-indices, int coefficient).
    Componentwise: the coefficient is the product over variables of
    multinomials.  Memoised: the keys are small multi-indices.
    """
    n = len(j)
    per_var = []
    for v in range(n):
        total = j[v]
        combos = []
        for comp in _compositions(total, parts):
            coef = math.factorial(total)
            for c in comp:
                coef //= math.factorial(c)
            combos.append((comp, coef))
        per_var.append(combos)
    out = []
    for choice in itertools.product(*per_var):
        coef = 1
        for _, c in choice:
            coef *= c
        parts_out = tuple(tuple(choice[v][0][k] for v in range(n))
                          for k in range(parts))
        out.append((parts_out, coef))
    return tuple(out)


class PolyDiffOp:
    """terms: {tuple of multi-indices, n nonnegative ints each: Poly coefficient};
    _plans: None until the operator is first inserted, then the memo of ``_plan``."""

    __slots__ = ("n", "alg", "terms", "_plans")

    def __init__(self, n, terms, alg=None):
        self.n = n
        self.alg = alg if alg is not None else rational_field()
        self._plans = None
        clean = {}
        for w, c in terms.items():
            if not isinstance(c, Poly):
                raise TypeError("PolyDiffOp coefficients must be Poly")
            if c.alg is not self.alg and c.alg != self.alg:
                raise ValueError("coefficient algebra mismatch")
            w = tuple(map(tuple, w))
            if not all(len(j) == n and all(type(k) is int and k >= 0 for k in j) for j in w):
                raise ValueError(f"each multi-index needs {n} nonnegative int entries, got {w}")
            if c:
                _acc(clean, w, c)
        self.terms = clean

    @classmethod
    def zero(cls, n, alg=None):
        return cls(n, {}, alg=alg)

    @classmethod
    def from_function(cls, f):
        return cls(f.n, {(): f}, alg=f.alg)

    @classmethod
    def basis(cls, word, n, coeff=None):
        c = coeff if coeff is not None else Poly.one(n)
        return cls(n, {tuple(tuple(j) for j in word): c}, alg=c.alg)

    def _plan(self, w, j):
        """How term w enters a slot with derivative j by the Leibniz rule: for
        each split j = a + rest over w's slots with d^a c nonzero, c = terms[w],
        the tuple (a, d^a c, w + rest, multinomial).  Built once per (w, j)."""
        plans = self._plans
        if plans is None:
            plans = self._plans = {}
        plan = plans.get((w, j))
        if plan is None:
            c, derivs, plan = self.terms[w], {}, []
            for parts, m in _splits(j, len(w) + 1):
                a = parts[0]
                dc = derivs.get(a)
                if dc is None:
                    dc = derivs[a] = c.partial_word(a)
                if dc:
                    plan.append((a, dc, tuple(map(_mi_add, w, parts[1:])), m))
            plan = plans[w, j] = tuple(plan)
        return plan

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, PolyDiffOp) and self.n == other.n
                and self.terms == other.terms)

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for w, c in other.terms.items():
            _acc(out, w, c)
        return _op(self.n, self.alg, out)

    def __neg__(self):
        return _op(self.n, self.alg, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for w, c in other.terms.items():
            _acc_neg(out, w, c)
        return _op(self.n, self.alg, out)

    def scale(self, q):
        out = {}
        for w, c in self.terms.items():
            qc = c.scale(q)
            if qc:
                out[w] = qc
        return _op(self.n, self.alg, out)

    __rmul__ = scale

    def degrees(self):
        return sorted({len(w) - 1 for w in self.terms})

    def is_homogeneous(self, p=None):
        ds = self.degrees()
        return len(ds) <= 1 and (p is None or not ds or ds[0] == p)

    def component(self, p):
        return _op(self.n, self.alg, {w: c for w, c in self.terms.items()
                                      if len(w) - 1 == p})

    def order(self):
        """max over terms of the largest per-slot derivative weight."""
        return max(map(sum, itertools.chain.from_iterable(self.terms)), default=0)

    def is_normalized(self):
        """True iff the operator kills 1 in every slot; degree -1 is normalized."""
        return all(map(any, itertools.chain.from_iterable(self.terms)))

    def apply(self, args):
        """Multilinear evaluation on Polys; requires arity-homogeneous terms."""
        args = list(args)
        if self.terms and not self.is_homogeneous(len(args) - 1):
            raise ValueError(
                f"arity mismatch: operator degrees {self.degrees()}, got {len(args)} args")
        out, trunc = {}, None
        for w, c in self.terms.items():
            term = c
            for j, a in zip(w, args):
                term = term * a.partial_word(j)
            trunc = _min_trunc(trunc, term.trunc)
            for e, q in term.terms.items():
                _acc(out, e, q)
        return _poly_cut(Poly.zero(self.n, self.alg), out, trunc)

    def text(self):
        return _terms_text(
            ("D[" + ";".join(",".join(str(x) for x in j) for j in w) + "]" if w else "", e, c)
            for w in sorted(self.terms, key=lambda w: (len(w), w))
            for e, c in self.terms[w].sorted_terms())

    def __repr__(self):
        try:
            return f"PolyDiffOp<{self.text()}>"
        except ValueError:
            return f"PolyDiffOp({self.terms!r})"


def _op(n, alg, terms):
    """PolyDiffOp from canonical parts: tuple-of-tuple words, nonzero Polys."""
    phi = object.__new__(PolyDiffOp)
    phi.n = n
    phi.alg = alg
    phi.terms = terms
    phi._plans = None
    return phi


def mu(n) -> PolyDiffOp:
    """The multiplication operator (f, g) -> f*g, degree 1, order 0."""
    z = _zero_mi(n)
    return PolyDiffOp.basis((z, z), n)


# ---------------------------------------------------------------------------
# insertion composition and the Gerstenhaber bracket
# ---------------------------------------------------------------------------

def _circ_into(acc, cuts, w1, c1, psi, w2, sign):
    """acc += sign * ((w1, c1) circbar psi's term w2) as scalars: acc[word][(e, k)]
    is the coefficient of t^e times basis element k, and cuts[word] the least
    ``trunc`` of the head products that reach word.

    Slot i's derivative j_i splits by the Leibniz rule into a head a, which
    hits psi's coefficient c2, and a rest piled onto w2's slots, as psi's plan
    for (w2, j_i) lists them.  c1 * d^a c2 is built and flattened once per head;
    the sign (-1)^{i q} folds into the multinomial.
    """
    odd = len(w2) % 2 == 0  # q = arity - 1 is odd
    heads = {}
    for i, j in enumerate(w1):
        before, after = w1[:i], w1[i + 1:]
        s = -sign if odd and i % 2 else sign
        for a, dc, inner, m in psi._plan(w2, j):
            head = heads.get(a)
            if head is None:
                f = c1 * dc
                head = heads[a] = (f.trunc, [((e, k), q) for e, c in f.terms.items()
                                             for k, q in c.coeffs.items()])
            trunc, scalars = head
            if not scalars:
                continue
            word = before + inner + after
            out = acc.get(word)
            if out is None:
                out = acc[word] = {}
            if trunc is not None:
                cuts[word] = min(cuts.get(word, trunc), trunc)
            m *= s
            if m == 1:
                for key, q in scalars:
                    _acc(out, key, q)
            elif m == -1:
                for key, q in scalars:
                    _acc_neg(out, key, q)
            else:
                for key, q in scalars:
                    _acc(out, key, m * q)


def _insertions(phi, psi, bracket):
    """phi circbar psi, or [phi, psi] when bracket is true, summed term pair by
    term pair into one scalar accumulator.  Then each word is cut at its
    ``trunc``, each Poly and DgaElem is built once, and a word with no terms
    left is dropped."""
    if phi.n != psi.n:
        raise ValueError("variable count mismatch")
    acc, cuts = {}, {}
    for w1, c1 in phi.terms.items():
        for w2, c2 in psi.terms.items():
            _circ_into(acc, cuts, w1, c1, psi, w2, 1)
            if bracket:
                _circ_into(acc, cuts, w2, c2, phi, w1,
                           1 if (len(w1) - 1) * (len(w2) - 1) % 2 else -1)
    n, alg = phi.n, phi.alg
    out = {}
    for word in list(acc):  # popped, so that acc and out do not peak together
        scalars = acc.pop(word)
        trunc = cuts.get(word)
        terms = {}
        for (e, k), q in scalars.items():
            if trunc is None or sum(e) < trunc:
                if type(q) is Fraction and q.denominator == 1:
                    q = q.numerator
                terms.setdefault(e, {})[k] = q
        if terms:
            out[word] = _poly(n, alg, {e: _elem(alg, c) for e, c in terms.items()}, trunc)
    return _op(n, alg, out)


def circ_bar(phi: PolyDiffOp, psi: PolyDiffOp) -> PolyDiffOp:
    """Signed sum of insertions of psi into each slot of phi, one coefficient
    product per Leibniz head."""
    return _insertions(phi, psi, False)


def gerstenhaber(phi: PolyDiffOp, psi: PolyDiffOp) -> PolyDiffOp:
    """[phi, psi] = phi circbar psi - (-1)^{pq} psi circbar phi, with one
    scalar accumulator per bracket.  A word's ``trunc`` is the least one among
    the nonzero head products that reach it, so the result does not depend on
    the order of the terms."""
    return _insertions(phi, psi, True)


# ---------------------------------------------------------------------------
# shifted Hochschild differential (independent code path)
# ---------------------------------------------------------------------------

def hochschild_d(phi: PolyDiffOp) -> PolyDiffOp:
    """d(phi) as the alternating sum; equals gerstenhaber(mu, phi) exactly.

    On a degree-p component:
      d(phi)(a_0..a_{p+1}) = phi(a_0..a_p) a_{p+1} + (-1)^p a_0 phi(a_1..a_{p+1})
                             - (-1)^p sum_i (-1)^i phi(.., a_i a_{i+1}, ..)
    """
    n = phi.n
    z = _zero_mi(n)
    out = {}
    for w, c in phi.terms.items():
        p = len(w) - 1
        _acc(out, w + (z,), c)
        (_acc if p % 2 == 0 else _acc_neg)(out, (z,) + w, c)
        scaled = {1: c}  # m * c, built once per multiplier m of this term
        for i in range(p + 1):
            sgn = ksign(p) * ksign(i)
            for (a, b), coef in _splits(w[i], 2):
                m = -sgn * coef
                if m not in scaled:
                    scaled[m] = c.scale(m)
                _acc(out, w[:i] + (a, b) + w[i + 1:], scaled[m])
    return _op(n, phi.alg, out)


def filtration_check(phi: PolyDiffOp, psi: PolyDiffOp) -> bool:
    """Order bounds: order[phi,psi] <= order phi + order psi, order d phi <= order phi."""
    return (gerstenhaber(phi, psi).order() <= phi.order() + psi.order()
            and hochschild_d(phi).order() <= phi.order())


# ---------------------------------------------------------------------------
# apply-level oracles (independent of the symbolic paths)
# ---------------------------------------------------------------------------

def gerstenhaber_apply_oracle(phi, psi, args):
    """Evaluate [phi, psi] on args via nested apply calls only."""
    p = phi.degrees()[0] if phi.terms else -1
    q = psi.degrees()[0] if psi.terms else -1
    if len(args) != p + q + 1:
        raise ValueError("need p+q+1 arguments")

    def circ_apply(f, g, fp, gq):
        total = Poly.zero(phi.n, phi.alg)
        for i in range(fp + 1):
            inner = g.apply(args[i:i + gq + 1])
            val = f.apply(list(args[:i]) + [inner] + list(args[i + gq + 1:]))
            total = total + (val if ksign(i * gq) == 1 else -val)
        return total

    left = circ_apply(phi, psi, p, q) if phi.terms and psi.terms else Poly.zero(phi.n, phi.alg)
    right = circ_apply(psi, phi, q, p) if phi.terms and psi.terms else Poly.zero(phi.n, phi.alg)
    return left - right.scale(ksign(p * q))


def hochschild_apply_oracle(phi, args):
    """Evaluate d(phi) on args via apply calls only."""
    p = phi.degrees()[0] if phi.terms else -1
    if len(args) != p + 2:
        raise ValueError("need p+2 arguments")
    out = phi.apply(args[:-1]) * args[-1]
    out = out + (args[0] * phi.apply(args[1:])).scale(ksign(p))
    for i in range(p + 1):
        merged = list(args[:i]) + [args[i] * args[i + 1]] + list(args[i + 2:])
        out = out - phi.apply(merged).scale(ksign(p) * ksign(i))
    return out


# ---------------------------------------------------------------------------
# adic continuity and series extension
# ---------------------------------------------------------------------------

def adic_continuity_check(phi: PolyDiffOp, d, i, samples, rng) -> bool:
    """Sampled check of: one slot of adic order >= i+d forces output order >= i.

    Requires order(phi) <= d.  Samples random polynomial tuples with each slot
    position in turn carrying the deep input.
    """
    if phi.order() > d:
        raise ValueError("operator order exceeds the stated bound d")
    if not phi.terms:
        return True
    arity = phi.degrees()[0] + 1
    if arity == 0:
        return True

    def rand_poly(min_deg=0):
        out = Poly.zero(phi.n, phi.alg)
        for _ in range(rng.randint(1, 3)):
            e = [rng.randint(0, 2) for _ in range(phi.n)]
            short = min_deg - sum(e)
            if short > 0:
                e[rng.randrange(phi.n)] += short
            out = out + Poly(phi.n, {tuple(e): rng.randint(-3, 3)}, alg=phi.alg)
        return out

    for _ in range(samples):
        for deep in range(arity):
            args = [rand_poly() for _ in range(arity)]
            args[deep] = rand_poly(min_deg=i + d)
            if args[deep].adic_order() < i + d:
                continue
            if phi.apply(args).adic_order() < i:
                return False
    return True


def extend_to_series(phi: PolyDiffOp, N):
    """Operator on truncation-N polynomials, acting termwise.

    Exactness contract: inputs known below N + order(phi) give outputs exact
    below N (truncation metadata propagates through apply automatically).
    """
    def act(*args):
        return phi.apply(list(args)).truncate(N)
    return act


# ---------------------------------------------------------------------------
# linear coordinate changes
# ---------------------------------------------------------------------------

def transform(phi: PolyDiffOp, M, M_inv) -> PolyDiffOp:
    """Conjugate by the substitution t -> M t (for equivariance checks).

    Each slot's d^j goes to the product of (sum_k M_inv[k][i] d_k)^{j_i}: the
    substitution of the transpose of M_inv into the monomial t^j.
    """
    out = {}
    for w, c in phi.terms.items():
        c2 = c.subs_linear(M)
        if not c2:
            continue
        slots = [Poly.monomial(j).subs_linear(list(zip(*M_inv))).terms.items() for j in w]
        for combo in itertools.product(*slots):
            q = math.prod(qq.rational_part() for _, qq in combo)
            _acc(out, tuple(mi for mi, _ in combo), c2.scale(q))
    return _op(phi.n, phi.alg, out)
