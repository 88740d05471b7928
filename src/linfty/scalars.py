"""Exact scalars and finite-dimensional graded coefficient algebras.

Everything downstream is linear over a ``CoeffDGA``: a graded
super-commutative unital DG algebra over Q with an explicit finite basis,
explicit structure constants, and a designated nilpotent ideal.  Keeping the
basis finite makes every algebra axiom decidable by enumeration, which is what
``dga_check`` does.  The base field Q itself is the one-element special case
(see ``rational_field``).

Rationals are ``fractions.Fraction`` throughout: arbitrary precision, always
in lowest terms, positive denominator.  No floats appear anywhere.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, Fractions and 'num/den' strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def frac_str(q: Fraction) -> str:
    q = frac(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def ksign(k: int) -> int:
    """(-1)**k as an exact int, safe for negative k."""
    return 1 if k % 2 == 0 else -1


class ValidationReport:
    """Outcome of an axiom check: a list of violations, each with a witness."""

    def __init__(self):
        self.violations = []

    def add(self, axiom, witness, detail=""):
        self.violations.append({"axiom": axiom, "witness": witness, "detail": detail})

    @property
    def ok(self):
        return not self.violations

    def structural(self):
        return [v for v in self.violations if v["axiom"] == "structural"]

    def to_dict(self):
        return {"ok": self.ok, "violations": self.violations}

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok)"
        return f"ValidationReport({len(self.violations)} violations, first={self.violations[0]})"


class CoeffDGA:
    """Finite-dimensional graded super-commutative unital DG algebra over Q.

    basis       ordered generator names (index = canonical position)
    degrees     integer degree per basis element
    mul         dict (i, j) -> {k: Fraction}, the product b_i * b_j
    diff        dict i -> {k: Fraction}, the degree +1 differential
    unit_index  position of the unit
    ideal       frozenset of basis indices spanning the designated ideal m
    nilpotency_order  smallest N with m^N = 0 (1 when the ideal is zero)
    table       table[i][j] = ((k, q), ...), the nonzero terms of mul[(i, j)],
                with q an int whenever it is integral; built once from mul

    Instances are immutable after construction; all operations are pure.
    """

    def __init__(self, basis, degrees, mul, diff, unit_index, ideal,
                 nilpotency_order=None):
        self.basis = tuple(basis)
        self.degrees = tuple(degrees)
        self.mul = {k: dict(v) for k, v in mul.items()}
        self.diff = {k: dict(v) for k, v in diff.items()}
        self.unit_index = unit_index
        self.ideal = frozenset(ideal)
        self.index = {name: i for i, name in enumerate(self.basis)}
        self.table = [[tuple((k, q.numerator if q.denominator == 1 else q)
                             for k, q in self.mul.get((i, j), {}).items() if q)
                       for j in range(len(self.basis))]
                      for i in range(len(self.basis))]
        if nilpotency_order is None:
            nilpotency_order = self._compute_nilpotency_order()
        self.nilpotency_order = nilpotency_order

    def __len__(self):
        return len(self.basis)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, CoeffDGA)
            and self.basis == other.basis
            and self.degrees == other.degrees
            and self.mul == other.mul
            and self.diff == other.diff
            and self.unit_index == other.unit_index
            and self.ideal == other.ideal
        )

    def __repr__(self):
        return f"CoeffDGA({', '.join(self.basis)})"

    # -- elements ----------------------------------------------------------

    def zero(self):
        return _elem(self, {})

    def one(self):
        return _elem(self, {self.unit_index: _ONE})

    def scalar(self, q):
        q = frac(q)
        return _elem(self, {self.unit_index: q} if q else {})

    def gen(self, name):
        return _elem(self, {self.index[name]: _ONE})

    def elem(self, coeffs):
        """Element from {index-or-name: scalar}."""
        out = {}
        for k, v in coeffs.items():
            i = self.index[k] if isinstance(k, str) else k
            q = frac(v)
            if q:
                out[i] = out.get(i, Fraction(0)) + q
        return DgaElem(self, {i: q for i, q in out.items() if q})

    def basis_elem(self, i):
        return _elem(self, {i: _ONE})

    def mul_basis(self, i, j):
        """Product of basis elements as a sparse {k: Fraction} dict."""
        return self.mul.get((i, j), {})

    @property
    def is_rational_field(self):
        return len(self.basis) == 1 and not self.ideal

    @property
    def is_even(self):
        return all(d % 2 == 0 for d in self.degrees)

    @property
    def is_degree_zero(self):
        return all(d == 0 for d in self.degrees)

    def _compute_nilpotency_order(self):
        if not self.ideal:
            return 1
        span = set(self.ideal)
        order = 1
        # the span set of m^k: supports of all k-fold products of ideal basis elements
        while span:
            order += 1
            nxt = set()
            for i in span:
                for j in self.ideal:
                    nxt.update(k for k, q in self.mul_basis(i, j).items() if q)
            span = nxt
            if order > len(self.basis) + 2:
                raise ValueError("designated ideal is not nilpotent")
        return order

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        return {
            "basis": [{"name": n, "degree": d} for n, d in zip(self.basis, self.degrees)],
            "mul": [[i, j, [[k, frac_str(q)] for k, q in sorted(v.items())]]
                    for (i, j), v in sorted(self.mul.items())],
            "d": [[i, [[k, frac_str(q)] for k, q in sorted(v.items())]]
                  for i, v in sorted(self.diff.items())],
            "unit": self.unit_index,
            "ideal": sorted(self.ideal),
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc):
        basis = [b["name"] for b in doc["basis"]]
        degrees = [b["degree"] for b in doc["basis"]]
        mul = {(i, j): {k: frac(q) for k, q in entries}
               for i, j, entries in doc["mul"]}
        diff = {i: {k: frac(q) for k, q in entries} for i, entries in doc["d"]}
        return cls(basis, degrees, mul, diff, doc["unit"], doc.get("ideal", []))

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))


class DgaElem:
    """Sparse element of a CoeffDGA: {basis index: Fraction}.

    Elements are immutable: operations may return an operand unchanged.
    """

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg, coeffs):
        self.alg = alg
        self.coeffs = {i: q for i, q in coeffs.items() if q}

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, DgaElem)
                and (self.alg is other.alg or self.alg == other.alg)
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for i, q in other.coeffs.items():
            _acc(out, i, q)
        return _elem(self.alg, out)

    def __neg__(self):
        return _elem(self.alg, {i: -q for i, q in self.coeffs.items()})

    def __sub__(self, other):
        out = dict(self.coeffs)
        for i, q in other.coeffs.items():
            _acc_neg(out, i, q)
        return _elem(self.alg, out)

    def scale(self, q):
        """q times self for an exact rational q; +-1 costs no arithmetic."""
        if not isinstance(q, int):
            q = frac(q)
        if q == 1:
            return self
        if q == -1:
            return _elem(self.alg, {i: -c for i, c in self.coeffs.items()})
        if not q:
            return _elem(self.alg, {})
        return _elem(self.alg, {i: c * q for i, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        alg = self.alg
        if other.alg is not alg and other.alg != alg:
            raise ValueError("DgaElem product across different algebras")
        table = alg.table
        out = {}
        for i, a in self.coeffs.items():
            row = table[i]
            for j, b in other.coeffs.items():
                ab = a * b
                for k, q in row[j]:
                    _acc(out, k, ab if q == 1 else -ab if q == -1 else ab * q)
        return _elem(alg, out)

    __rmul__ = scale

    def d(self):
        out = {}
        for i, a in self.coeffs.items():
            for k, q in self.alg.diff.get(i, {}).items():
                s = out.get(k, Fraction(0)) + a * q
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return DgaElem(self.alg, out)

    def degree(self):
        """Common degree of the support, or None if zero or mixed."""
        degs = {self.alg.degrees[i] for i in self.coeffs}
        return degs.pop() if len(degs) == 1 else None

    def in_ideal(self):
        return all(i in self.alg.ideal for i in self.coeffs)

    def rational_part(self):
        """Coefficient of the unit basis element."""
        return self.coeffs.get(self.alg.unit_index, _ZERO)

    def to_pairs(self):
        return [[i, frac_str(q)] for i, q in sorted(self.coeffs.items())]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for i, q in sorted(self.coeffs.items()):
            name = self.alg.basis[i]
            if name == "1":
                bits.append(frac_str(q))
            elif q == 1:
                bits.append(name)
            else:
                bits.append(f"{frac_str(q)}*{name}")
        return " + ".join(bits)


def _acc(out, key, c):
    """out[key] += c for a nonzero c, dropping the key when the sum vanishes."""
    s = out.get(key)
    if s is None:
        out[key] = c
    else:
        s = s + c
        if s:
            out[key] = s
        else:
            del out[key]


def _acc_neg(out, key, c):
    """out[key] -= c for a nonzero c, dropping the key when the difference vanishes."""
    s = out.get(key)
    if s is None:
        out[key] = -c
    else:
        s = s - c
        if s:
            out[key] = s
        else:
            del out[key]


def _elem(alg, coeffs):
    """DgaElem from a dict the caller built without zero values; no copy."""
    x = object.__new__(DgaElem)
    x.alg = alg
    x.coeffs = coeffs
    return x


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

def dga_check(A: CoeffDGA) -> ValidationReport:
    """Verify every CoeffDGA axiom by enumeration over the basis.

    Structural problems (missing table entries) are reported with axiom
    "structural", distinct from genuine axiom failures, and suppress the
    checks that would crash on them.
    """
    rep = ValidationReport()
    n = len(A.basis)
    for i, j in itertools.product(range(n), repeat=2):
        if (i, j) not in A.mul:
            rep.add("structural", [A.basis[i], A.basis[j]], "missing product entry")
    for i in range(n):
        if i not in A.diff:
            rep.add("structural", [A.basis[i]], "missing differential entry")
    if rep.violations:
        return rep

    def prod(i, j):
        return DgaElem(A, A.mul_basis(i, j))

    # grading of the product and the differential
    for i, j in itertools.product(range(n), repeat=2):
        p = prod(i, j)
        want = A.degrees[i] + A.degrees[j]
        if p and p.degree() != want:
            rep.add("grading", [A.basis[i], A.basis[j]],
                    f"product not homogeneous of degree {want}")
    for i in range(n):
        di = A.basis_elem(i).d()
        if di and di.degree() != A.degrees[i] + 1:
            rep.add("grading", [A.basis[i]], "differential is not degree +1")

    # unit
    u = A.unit_index
    for i in range(n):
        if prod(u, i) != A.basis_elem(i) or prod(i, u) != A.basis_elem(i):
            rep.add("unit", [A.basis[i]], "1*a != a or a*1 != a")
    if A.basis_elem(u).d():
        rep.add("unit", ["1"], "d(1) != 0")

    # super-commutativity and odd squares
    for i, j in itertools.product(range(n), repeat=2):
        sign = (-1) ** (A.degrees[i] * A.degrees[j])
        if prod(j, i) != prod(i, j).scale(sign):
            rep.add("commutativity", [A.basis[i], A.basis[j]],
                    "b*a != (-1)^{deg a deg b} a*b")
    for i in range(n):
        if A.degrees[i] % 2 == 1 and prod(i, i):
            rep.add("commutativity", [A.basis[i], A.basis[i]], "odd c with c^2 != 0")

    # associativity
    for i, j, k in itertools.product(range(n), repeat=3):
        if (prod(i, j) * A.basis_elem(k)) != (A.basis_elem(i) * prod(j, k)):
            rep.add("associativity", [A.basis[i], A.basis[j], A.basis[k]],
                    "(ab)c != a(bc)")

    # d^2 = 0 and graded Leibniz
    for i in range(n):
        if A.basis_elem(i).d().d():
            rep.add("d_squared", [A.basis[i]], "d(d(a)) != 0")
    for i, j in itertools.product(range(n), repeat=2):
        lhs = prod(i, j).d()
        rhs = (A.basis_elem(i).d() * A.basis_elem(j)) + \
            (A.basis_elem(i) * A.basis_elem(j).d()).scale((-1) ** A.degrees[i])
        if lhs != rhs:
            rep.add("leibniz", [A.basis[i], A.basis[j]],
                    "d(ab) != d(a)b + (-1)^{deg a} a d(b)")

    # the designated ideal: closed under multiplication, nilpotent at its order
    for i in A.ideal:
        for j in range(n):
            for p in (prod(i, j), prod(j, i)):
                if not p.in_ideal():
                    rep.add("ideal", [A.basis[i], A.basis[j]],
                            "product leaves the ideal span")
    span = set(A.ideal)
    for _ in range(A.nilpotency_order - 1):
        nxt = set()
        for i in span:
            for j in A.ideal:
                nxt.update(k for k, q in A.mul_basis(i, j).items() if q)
        span = nxt
    if span:
        rep.add("nilpotency", sorted(A.basis[i] for i in span),
                f"m^{A.nilpotency_order} != 0")
    elif A.nilpotency_order > 1:
        # minimality: m^(order-1) must be nonzero
        span = set(A.ideal)
        for _ in range(A.nilpotency_order - 2):
            nxt = set()
            for i in span:
                for j in A.ideal:
                    nxt.update(k for k, q in A.mul_basis(i, j).items() if q)
            span = nxt
        if not span:
            rep.add("nilpotency", [], "nilpotency_order is not minimal")
    return rep


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _default_names(degrees):
    if len(degrees) == 1:
        return ["h"] if degrees[0] % 2 == 0 else ["th"]
    names = []
    ne = no = 0
    for d in degrees:
        if d % 2 == 0:
            ne += 1
            names.append("h" if ne == 1 else f"h{ne}")
        else:
            no += 1
            names.append("th" if no == 1 else f"th{no}")
    return names


def make_truncated_poly_dga(generator_degrees, truncation_order, names=None,
                            differential=None) -> CoeffDGA:
    """Free graded-commutative algebra on generators, power-truncated.

    Each even-degree generator g satisfies g^truncation_order = 0; odd ones
    square to zero regardless.  The designated ideal is generated by all the
    generators.  An empty generator list returns the base field.

    ``differential`` optionally maps generator name -> element dict on the
    monomial basis (extended by Leibniz); default is the zero differential.
    """
    if truncation_order < 1:
        raise ValueError("truncation_order must be >= 1")
    degrees = list(generator_degrees)
    if names is None:
        names = _default_names(degrees)
    if len(names) != len(degrees):
        raise ValueError("names/degrees length mismatch")
    k = len(degrees)

    caps = [2 if d % 2 else truncation_order for d in degrees]
    monos = [exps for exps in itertools.product(*(range(c) for c in caps))]
    monos.sort(key=lambda e: (sum(e), e))

    def mono_name(exps):
        if not any(exps):
            return "1"
        bits = []
        for g in range(k):
            if exps[g] == 1:
                bits.append(names[g])
            elif exps[g] > 1:
                bits.append(f"{names[g]}^{exps[g]}")
        return "*".join(bits)

    def mono_degree(exps):
        return sum(e * d for e, d in zip(exps, degrees))

    idx = {e: i for i, e in enumerate(monos)}
    basis = [mono_name(e) for e in monos]
    degs = [mono_degree(e) for e in monos]

    def mono_mul(e1, e2):
        """(sign, exps) or None when truncated away."""
        out = tuple(a + b for a, b in zip(e1, e2))
        for g in range(k):
            if out[g] >= caps[g]:
                return None
        # Koszul sign: odd generators of e2 move left past later odd generators of e1
        sign = 1
        for g2 in range(k):
            if degrees[g2] % 2 and e2[g2]:
                for g1 in range(g2 + 1, k):
                    if degrees[g1] % 2 and e1[g1]:
                        sign = -sign
        return sign, out

    mul = {}
    for e1 in monos:
        for e2 in monos:
            r = mono_mul(e1, e2)
            mul[(idx[e1], idx[e2])] = {} if r is None else {idx[r[1]]: Fraction(r[0])}

    diff = {i: {} for i in range(len(monos))}
    if differential:
        name_to_exps = {mono_name(e): e for e in monos}
        gen_d = {}
        for g, nm in enumerate(names):
            gen_d[g] = [(name_to_exps[t], frac(q))
                        for t, q in differential.get(nm, {}).items()]
        for e in monos:
            out = {}
            # Leibniz over the factors of the monomial, in canonical generator order
            for g in range(k):
                if not e[g]:
                    continue
                for tgt, q in gen_d[g]:
                    # replace one factor of generator g by a monomial term of d(g)
                    rest = tuple(x - (1 if h == g else 0) for h, x in enumerate(e))
                    sign = 1
                    # d (odd) moves past the factors preceding g
                    for h in range(g):
                        sign *= (-1) ** (degrees[h] * e[h])
                    # even g: the e[g] identical factors each get hit, same sign
                    mult = e[g] if degrees[g] % 2 == 0 else 1
                    r = mono_mul(tgt, rest)
                    if r is None:
                        continue
                    s2, ee = r
                    key = idx[ee]
                    val = out.get(key, Fraction(0)) + Fraction(sign * s2 * mult) * q
                    if val:
                        out[key] = val
                    else:
                        out.pop(key, None)
            diff[idx[e]] = out

    ideal = [i for i, e in enumerate(monos) if any(e)]
    return CoeffDGA(basis, degs, mul, diff, idx[tuple([0] * k)], ideal)


_QQ = None


def rational_field() -> CoeffDGA:
    """The base field Q as a CoeffDGA (shared singleton)."""
    global _QQ
    if _QQ is None:
        _QQ = make_truncated_poly_dga([], 1)
    return _QQ


def dga_tensor(A: CoeffDGA, B: CoeffDGA) -> CoeffDGA:
    """Tensor product DG algebra with the Koszul-sign product.

    (a1 x g1)(a2 x g2) = (-1)^{deg a2 * deg g1} (a1 a2) x (g1 g2), and
    d(a x g) = d(a) x g + (-1)^{deg a} a x d(g).
    """
    pairs = list(itertools.product(range(len(A)), range(len(B))))
    idx = {p: i for i, p in enumerate(pairs)}

    def name(p):
        na, nb = A.basis[p[0]], B.basis[p[1]]
        if na == "1":
            return nb
        if nb == "1":
            return na
        return f"{na}*{nb}"

    basis = [name(p) for p in pairs]
    degs = [A.degrees[p[0]] + B.degrees[p[1]] for p in pairs]

    mul = {}
    for p1 in pairs:
        for p2 in pairs:
            sign = (-1) ** (A.degrees[p2[0]] * B.degrees[p1[1]])
            out = {}
            for ka, qa in A.mul_basis(p1[0], p2[0]).items():
                for kb, qb in B.mul_basis(p1[1], p2[1]).items():
                    out[idx[(ka, kb)]] = Fraction(sign) * qa * qb
            mul[(idx[p1], idx[p2])] = {k: q for k, q in out.items() if q}

    diff = {}
    for p in pairs:
        out = {}
        for ka, qa in A.diff.get(p[0], {}).items():
            out[idx[(ka, p[1])]] = out.get(idx[(ka, p[1])], Fraction(0)) + qa
        sgn = (-1) ** A.degrees[p[0]]
        for kb, qb in B.diff.get(p[1], {}).items():
            key = idx[(p[0], kb)]
            out[key] = out.get(key, Fraction(0)) + Fraction(sgn) * qb
        diff[idx[p]] = {k: q for k, q in out.items() if q}

    unit = idx[(A.unit_index, B.unit_index)]
    ideal = [idx[p] for p in pairs if p[0] in A.ideal or p[1] in B.ideal]
    return CoeffDGA(basis, degs, mul, diff, unit, ideal)
