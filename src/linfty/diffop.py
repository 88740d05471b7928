"""Poly differential operators on K[t1..tn] in canonical basis form.

A ``PolyDiffOp`` is a sum of terms  c(t) * D[j_0; ...; j_p]  where each j_k is
an n-multi-index: the operator sends (a_0, ..., a_p) to c * prod_k d^{j_k} a_k.
The degree of a term is p = arity - 1; the empty word stores a bare polynomial
(degree -1).  Coefficients always sit on the left of the derivative word;
insertion re-normalizes into this form via the (multi-)Leibniz rule.

Two independent code paths exist on purpose:

* ``gerstenhaber`` builds brackets from signed slot insertions,
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

from .poly import Poly, _compositions
from .scalars import _acc, _acc_neg, ksign, rational_field


def _zero_mi(n):
    return tuple([0] * n)


def _mi_add(a, b):
    return tuple(map(operator.add, a, b))


def _mi_norm(a):
    return sum(a)


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
    """terms: {tuple of multi-indices: Poly coefficient}."""

    __slots__ = ("n", "alg", "terms")

    def __init__(self, n, terms, alg=None):
        self.n = n
        self.alg = alg if alg is not None else rational_field()
        clean = {}
        for w, c in terms.items():
            if not isinstance(c, Poly):
                raise TypeError("PolyDiffOp coefficients must be Poly")
            if not c:
                continue
            if not isinstance(w, tuple) or (w and not isinstance(w[0], tuple)):
                w = tuple(tuple(j) for j in w)
            s = clean.get(w)
            s = c if s is None else s + c
            if s:
                clean[w] = s
            else:
                clean.pop(w, None)
        self.terms = clean

    @classmethod
    def zero(cls, n, alg=None):
        return cls(n, {}, alg=alg)

    @classmethod
    def from_function(cls, f):
        return cls(f.n, {(): f}, alg=f.alg)

    @classmethod
    def basis(cls, word, n, coeff=None, alg=None):
        alg = alg if alg is not None else rational_field()
        c = coeff if coeff is not None else Poly.one(n, alg)
        return cls(n, {tuple(tuple(j) for j in word): c}, alg=alg)

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
        if len(ds) > 1:
            return False
        return True if p is None else (not ds or ds[0] == p)

    def component(self, p):
        return _op(self.n, self.alg, {w: c for w, c in self.terms.items()
                                      if len(w) - 1 == p})

    def order(self):
        """max over terms of the largest per-slot derivative weight."""
        o = 0
        for w in self.terms:
            for j in w:
                o = max(o, _mi_norm(j))
        return o

    def is_normalized(self):
        """True iff the operator kills 1 in every slot; degree -1 is normalized."""
        for w in self.terms:
            for j in w:
                if _mi_norm(j) == 0:
                    return False
        return True

    def apply(self, args):
        """Multilinear evaluation on Polys; requires arity-homogeneous terms."""
        args = list(args)
        out = Poly.zero(self.n, self.alg)
        if self.terms and not self.is_homogeneous(len(args) - 1):
            raise ValueError(
                f"arity mismatch: operator degrees {self.degrees()}, got {len(args)} args")
        for w, c in self.terms.items():
            if len(w) != len(args):
                raise ValueError("arity mismatch")
            term = c
            for j, a in zip(w, args):
                term = term * a.partial_word(j)
            out = out + term
        return out

    def text(self):
        if not self.terms:
            return "0"
        from .scalars import frac_str
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            word = "D[" + ";".join(",".join(str(x) for x in j) for j in w) + "]" if w else ""
            for e, q in c.sorted_terms():
                r = q.rational_part()
                mono = "*".join(f"t{i+1}" + (f"^{k}" if k > 1 else "")
                                for i, k in enumerate(e) if k)
                coeff = frac_str(abs(r))
                factors = [x for x in (None if coeff == "1" and (mono or word) else coeff,
                                       mono or None, word or None) if x]
                bits.append(("-" if r < 0 else "+", "*".join(factors) if factors else "1"))
        s = ("-" if bits[0][0] == "-" else "") + bits[0][1]
        for sign, body in bits[1:]:
            s += f" {sign} {body}"
        return s

    def __repr__(self):
        return f"PolyDiffOp<{self.text()}>"


def _op(n, alg, terms):
    """PolyDiffOp from canonical parts: tuple-of-tuple words, nonzero Polys."""
    phi = object.__new__(PolyDiffOp)
    phi.n = n
    phi.alg = alg
    phi.terms = terms
    return phi


def mu(n, alg=None) -> PolyDiffOp:
    """The multiplication operator (f, g) -> f*g, degree 1, order 0."""
    z = _zero_mi(n)
    return PolyDiffOp.basis((z, z), n, alg=alg)


# ---------------------------------------------------------------------------
# insertion composition and the Gerstenhaber bracket
# ---------------------------------------------------------------------------

def _insert_term(n, alg, w1, c1, i, w2, c2):
    """Insert the term (c2, w2) into slot i of (c1, w1).

    The slot derivative d^{j_i} hits c2 and every slot of w2 by the Leibniz
    rule; surviving derivatives pile onto w2's slots.
    """
    j = w1[i]
    q = len(w2)  # arity of the inserted operator
    head, tail = w1[:i], w1[i + 1:]
    out = {}
    for parts, coef in _splits(j, q + 1):
        a_c, rest = parts[0], parts[1:]
        coeff = c1 * c2.partial_word(a_c)
        if not coeff:
            continue
        if coef != 1:
            coeff = coeff.scale(coef)
        _acc(out, head + tuple(map(_mi_add, w2, rest)) + tail, coeff)
    return out


def circ_bar(phi: PolyDiffOp, psi: PolyDiffOp) -> PolyDiffOp:
    """Signed sum of insertions of psi into each slot of phi."""
    if phi.n != psi.n:
        raise ValueError("variable count mismatch")
    acc = {}
    for w1, c1 in phi.terms.items():
        for w2, c2 in psi.terms.items():
            q = len(w2) - 1
            for i in range(len(w1)):
                part = _insert_term(phi.n, phi.alg, w1, c1, i, w2, c2)
                put = _acc_neg if ksign(i * q) == -1 else _acc
                for word, coeff in part.items():
                    put(acc, word, coeff)
    return _op(phi.n, phi.alg, acc)


def gerstenhaber(phi: PolyDiffOp, psi: PolyDiffOp) -> PolyDiffOp:
    """[phi, psi] = phi circbar psi - (-1)^{pq} psi circbar phi, per component."""
    if phi.n != psi.n:
        raise ValueError("variable count mismatch")
    out = PolyDiffOp.zero(phi.n, phi.alg)
    for p in phi.degrees():
        for q in psi.degrees():
            a, b = phi.component(p), psi.component(q)
            out = out + circ_bar(a, b) - circ_bar(b, a).scale(ksign(p * q))
    return out


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
        for i in range(p + 1):
            sgn = ksign(p) * ksign(i)
            for (a, b), coef in _splits(w[i], 2):
                word = w[:i] + (a, b) + w[i + 1:]
                if coef == 1:
                    (_acc_neg if sgn == 1 else _acc)(out, word, c)
                else:
                    _acc(out, word, c.scale(-sgn * coef))
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
            out = out + Poly.monomial(tuple(e), Fraction(rng.randint(-3, 3)))
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
    """Conjugate by the substitution t -> M t (for equivariance checks)."""
    n = phi.n

    def slot_image(j):
        # product over variables of (sum_k Minv[k][i] d_k)^{j_i}, expanded
        acc = {_zero_mi(n): Fraction(1)}
        for i in range(n):
            for _ in range(j[i]):
                nxt = {}
                for mi, q in acc.items():
                    for k in range(n):
                        c = Fraction(M_inv[k][i])
                        if not c:
                            continue
                        e = list(mi)
                        e[k] += 1
                        key = tuple(e)
                        nxt[key] = nxt.get(key, Fraction(0)) + q * c
                acc = {k: v for k, v in nxt.items() if v}
        return acc

    out = {}
    for w, c in phi.terms.items():
        c2 = c.subs_linear(M)
        if not c2:
            continue
        slot_choices = [slot_image(j) for j in w]
        for combo in itertools.product(*(s.items() for s in slot_choices)):
            word = tuple(mi for mi, _ in combo)
            q = Fraction(1)
            for _, qq in combo:
                q *= qq
            _acc(out, word, c2.scale(q))
    return _op(n, phi.alg, out)

