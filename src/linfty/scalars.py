"""Exact scalars, finite-dimensional graded coefficient algebras, and ``ParseError``.

Everything downstream is linear over a ``CoeffDGA``: a graded
super-commutative unital DG algebra over Q with an explicit finite basis,
explicit structure constants, and a designated nilpotent ideal.  The
constructor refuses repeated names, unit rows other than the identity and a
nilpotency order that is not an int >= 1; over the finite basis ``dga_check``
decides every other axiom by enumeration.  Q is the one-element case.

Rationals are exact: an ``int`` when integral, else a ``fractions.Fraction``
(see ``frac``).  Python's int/Fraction tower keeps mixed arithmetic exact as
long as no ``/`` acts on two ints, so quotients go through ``frac``.  No
floats appear anywhere.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def frac(x, den=None):
    """The exact rational x (or x/den): an int when integral, else a Fraction.

    x is an int or a Fraction; anything else, a bool, a float or a string
    among them, raises TypeError.
    """
    if type(x) is int and den is None:
        return x
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"not an exact scalar: {x!r}")
    q = Fraction(x, den)
    return q.numerator if q.denominator == 1 else q


def frac_str(q) -> str:
    return str(frac(q))


def ksign(k: int) -> int:
    """(-1)**k as an exact int, safe for negative k."""
    return 1 if k % 2 == 0 else -1


def koszul_sort(letters, odd):
    """Insertion-sort letters; swapping two letters of ``odd`` flips the sign.
    Returns (sign, sorted tuple), or None when a letter of ``odd`` repeats; the
    sign of reordering a sorted word is the sign of sorting it back."""
    w = list(letters)
    sign = 1
    for i in range(1, len(w)):
        j = i
        while j > 0 and w[j - 1] > w[j]:
            if w[j - 1] in odd and w[j] in odd:
                sign = -sign
            w[j - 1], w[j] = w[j], w[j - 1]
            j -= 1
    for a, b in zip(w, w[1:]):
        if a == b and a in odd:
            return None
    return sign, tuple(w)


def _check_basis(pairs, kind):
    """The (name, degree) pairs; a ValueError names a repeated or non-str name or non-int degree."""
    seen = set()
    for name, degree in pairs:
        if type(name) is not str or type(degree) is not int or name in seen:
            raise ValueError(f"{kind} {name!r}: expected a distinct name string and an "
                             f"int degree, got degree {degree!r}")
        seen.add(name)
    return pairs


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

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok)"
        return f"ValidationReport({len(self.violations)} violations, first={self.violations[0]})"


class ParseError(ValueError):
    """Malformed input; `pos` is the offset into an element's text, if there is one."""

    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (line 1, column {pos + 1})")
        self.pos = pos


class CoeffDGA:
    """Finite-dimensional graded super-commutative unital DG algebra over Q.

    basis       ordered distinct generator names (index = canonical position)
    degrees     int degree per basis element
    mul         dict (i, j) -> {k: q}, the product b_i * b_j
    diff        dict i -> {k: q}, the degree +1 differential
                (each q passes through ``frac``, and zeros are dropped; the
                (i, j) and i keys stay, since ``dga_check`` reads them)
    unit_index  position of the unit; mul[(unit_index, i)] and mul[(i, unit_index)]
                must be {i: 1} for every i, or the constructor raises ValueError
    ideal       frozenset of basis indices spanning the designated ideal m
    nilpotency_order  smallest N with m^N = 0 (1 when m = 0); a given N is an int >= 1
    table       table[i][j] = ((k, q), ...), the nonzero terms of mul[(i, j)];
                built once from mul

    Immutable, with pure operations; ``dga_check`` decides what __init__ does not.
    """

    def __init__(self, basis, degrees, mul, diff, unit_index, ideal,
                 nilpotency_order=None):
        _check_basis(tuple(zip(basis, degrees)), "coefficient algebra basis element")
        self.basis = tuple(basis)
        self.degrees = tuple(degrees)
        self.mul = {k: {i: frac(q) for i, q in v.items() if q} for k, v in mul.items()}
        self.diff = {k: {i: frac(q) for i, q in v.items() if q} for k, v in diff.items()}
        self.unit_index = unit_index
        self.ideal = frozenset(ideal)
        self.index = {name: i for i, name in enumerate(self.basis)}
        self.table = [[tuple(self.mul.get((i, j), {}).items())
                       for j in range(len(self.basis))]
                      for i in range(len(self.basis))]
        for b, name in enumerate(self.basis):  # products with the unit skip the table
            for key in ((unit_index, b), (b, unit_index)):
                if self.table[key[0]][key[1]] != ((b, 1),):
                    raise ValueError(f"coefficient algebra mul entry {list(key)}: "
                                     f"a product with the unit must be {name!r}")
        if nilpotency_order is None:
            nilpotency_order = self._compute_nilpotency_order()
        elif type(nilpotency_order) is not int or nilpotency_order < 1:
            raise ValueError(f"nilpotency_order must be an int >= 1, got {nilpotency_order!r}")
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
        return _elem(self, {self.unit_index: 1})

    def scalar(self, q):
        q = frac(q)
        return _elem(self, {self.unit_index: q} if q else {})

    def gen(self, name):
        return _elem(self, {self.index[name]: 1})

    def elem(self, coeffs):
        """Element from {index-or-name: scalar}."""
        out = {}
        for k, v in coeffs.items():
            q = frac(v)
            if q:
                _acc(out, self.index[k] if isinstance(k, str) else k, q)
        return _elem(self, out)

    def basis_elem(self, i):
        return _elem(self, {i: 1})

    def mul_basis(self, i, j):
        """Product of basis elements as a sparse {k: q} dict."""
        return self.mul.get((i, j), {})

    @property
    def is_rational_field(self):
        return len(self.basis) == 1 and not self.ideal

    @property
    def is_degree_zero(self):
        return all(d == 0 for d in self.degrees)

    def _compute_nilpotency_order(self):
        for k, span in enumerate(ideal_powers(self), 1):
            if not span:
                return k
            if k >= len(self.basis) + 2:
                raise ValueError("designated ideal is not nilpotent")


class DgaElem:
    """Sparse element of a CoeffDGA: {basis index: q}, q as ``frac`` returns it.

    Elements are immutable: operations may return an operand unchanged.
    """

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg, coeffs):
        self.alg = alg
        self.coeffs = {i: frac(q) for i, q in coeffs.items() if q}

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
        if type(q) is not int:
            q = frac(q)
        if q == 1:
            return self
        if q == -1:
            return _elem(self.alg, {i: -c for i, c in self.coeffs.items()})
        if not q:
            return _elem(self.alg, {})
        return _elem(self.alg, {i: frac(c * q) for i, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        alg = self.alg
        if other.alg is not alg and other.alg != alg:
            raise ValueError("DgaElem product across different algebras")
        out = {}
        _mul_acc(out, alg.table, self.coeffs, other.coeffs, 1)
        return _elem(alg, out)

    __rmul__ = scale

    def d(self):
        out = {}
        for i, a in self.coeffs.items():
            for k, q in self.alg.diff.get(i, {}).items():
                _acc(out, k, frac(a * q))
        return _elem(self.alg, out)

    def in_ideal(self):
        return all(i in self.alg.ideal for i in self.coeffs)

    def rational_part(self):
        """Coefficient of the unit basis element."""
        return self.coeffs.get(self.alg.unit_index, 0)

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
    """out[key] += c for a nonzero c; a zero sum drops the key, an integral one is an int."""
    s = out.get(key)
    if s is None:
        out[key] = c
    else:
        s = s + c
        if s:
            out[key] = s.numerator if type(s) is Fraction and s.denominator == 1 else s
        else:
            del out[key]


def _acc_neg(out, key, c):
    """out[key] -= c for a nonzero c, like ``_acc``."""
    s = out.get(key)
    if s is None:
        out[key] = -c
    else:
        s = s - c
        if s:
            out[key] = s.numerator if type(s) is Fraction and s.denominator == 1 else s
        else:
            del out[key]


def _mul_acc(out, table, x, y, sign):
    """out += sign * x * y for coefficient dicts x, y of one CoeffDGA with this
    ``table`` and sign +-1, term by term through ``_acc``."""
    for i, a in x.items():
        row = table[i]
        for j, b in y.items():
            ab = a * b if sign == 1 else -a * b
            if type(ab) is Fraction and ab.denominator == 1:
                ab = ab.numerator
            for k, q in row[j]:
                _acc(out, k, ab if q == 1 else -ab if q == -1 else frac(ab * q))


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
    """Decide by enumeration each CoeffDGA axiom the constructor leaves open:
    associativity on the unit-free triples, every other check on every pair.
    Each residue is a {basis index: q} dict summed by ``_mul_acc``: no DgaElem.

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
    mul, diff, deg, e = A.mul, A.diff, A.degrees, [{i: 1} for i in range(n)]
    # d as a table of one column: the product v * e[0] through D is d(v)
    T, D = A.table, [[tuple(diff[i].items())] for i in range(n)]

    def residue(*terms):
        """The sum of s * x * y over the (table, x, y, s) terms."""
        out = {}
        for table, x, y, s in terms:
            _mul_acc(out, table, x, y, s)
        return out

    # grading of the product and the differential, and d(1) = 0
    for i, j in itertools.product(range(n), repeat=2):
        if any(deg[k] != deg[i] + deg[j] for k in mul[(i, j)]):
            rep.add("grading", [A.basis[i], A.basis[j]],
                    f"product not homogeneous of degree {deg[i] + deg[j]}")
    for i in range(n):
        if any(deg[k] != deg[i] + 1 for k in diff[i]):
            rep.add("grading", [A.basis[i]], "differential is not degree +1")
    if diff[A.unit_index]:
        rep.add("unit", ["1"], "d(1) != 0")

    # super-commutativity and odd squares
    for i, j in itertools.product(range(n), repeat=2):
        if residue((T, e[j], e[i], 1), (T, e[i], e[j], -ksign(deg[i] * deg[j]))):
            rep.add("commutativity", [A.basis[i], A.basis[j]],
                    "b*a != (-1)^{deg a deg b} a*b")
    for i in range(n):
        if deg[i] % 2 == 1 and mul[(i, i)]:
            rep.add("commutativity", [A.basis[i], A.basis[i]], "odd c with c^2 != 0")

    # associativity on the unit-free triples: the unit rows decide the others
    for i, j, k in itertools.product([m for m in range(n) if m != A.unit_index], repeat=3):
        if residue((T, mul[(i, j)], e[k], 1), (T, e[i], mul[(j, k)], -1)):
            rep.add("associativity", [A.basis[i], A.basis[j], A.basis[k]],
                    "(ab)c != a(bc)")

    # d^2 = 0 and graded Leibniz
    for i in range(n):
        if residue((D, diff[i], e[0], 1)):
            rep.add("d_squared", [A.basis[i]], "d(d(a)) != 0")
    for i, j in itertools.product(range(n), repeat=2):
        if residue((D, mul[(i, j)], e[0], 1), (T, diff[i], e[j], -1),
                   (T, e[i], diff[j], -ksign(deg[i]))):
            rep.add("leibniz", [A.basis[i], A.basis[j]],
                    "d(ab) != d(a)b + (-1)^{deg a} a d(b)")

    # the designated ideal: closed under multiplication, nilpotent at its order
    for i, j in itertools.product(A.ideal, range(n)):
        for p in (mul[(i, j)], mul[(j, i)]):
            if not p.keys() <= A.ideal:
                rep.add("ideal", [A.basis[i], A.basis[j]],
                        "product leaves the ideal span")
    powers = list(itertools.islice(ideal_powers(A), max(A.nilpotency_order, 1)))
    if powers[-1]:
        rep.add("nilpotency", sorted(A.basis[i] for i in powers[-1]),
                f"m^{A.nilpotency_order} != 0")
    elif A.nilpotency_order > 1 and not powers[-2]:
        # minimality: m^(order-1) must be nonzero
        rep.add("nilpotency", [], "nilpotency_order is not minimal")
    return rep


def ideal_powers(A: CoeffDGA):
    """The supports of m, m^2, m^3, ... as sets of basis indices.

    The k-th set holds every index in some k-fold product of ideal basis
    elements.  The walk is endless; for a nilpotent ideal its sets are empty
    from the nilpotency order on.
    """
    span = set(A.ideal)
    while True:
        yield span
        span = {k for i in span for j in A.ideal for k in A.mul_basis(i, j)}


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _default_names(degrees):
    """h, h2, h3, ... for the even generators and th, th2, ... for the odd ones."""
    seen, names = [0, 0], []
    for d in degrees:
        seen[d % 2] += 1
        names.append(("h", "th")[d % 2] + (str(seen[d % 2]) if seen[d % 2] > 1 else ""))
    return names


def make_truncated_poly_dga(generator_degrees, truncation_order, names=None,
                            differential=None) -> CoeffDGA:
    """Free graded-commutative algebra on generators, power-truncated.

    Each even-degree generator g satisfies g^truncation_order = 0; odd ones
    square to zero regardless.  The designated ideal is generated by all the
    generators.  An empty generator list returns the base field.

    ``differential`` optionally maps generator name -> element dict on the
    monomial basis (extended by Leibniz); default is the zero differential.
    A key that names no generator, or a term that names no basis monomial, is
    a ValueError naming it.
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

    idx = {e: i for i, e in enumerate(monos)}
    basis = [mono_name(e) for e in monos]
    degs = [sum(x * d for x, d in zip(e, degrees)) for e in monos]

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
            mul[(idx[e1], idx[e2])] = {} if r is None else {idx[r[1]]: r[0]}

    # d(g) as given on each generator g; then, up the total degree, the
    # Leibniz rule d(g*rest) = d(g)*rest + (-1)^{|g|} g*d(rest) for g the
    # first generator (so g*rest has sign +1), both products read from mul
    index = {name: i for i, name in enumerate(basis)}
    diff = {i: {} for i in range(len(monos))}
    for nm, terms in (differential or {}).items():
        if nm not in names:
            raise ValueError(f"differential key {nm!r}: no generator of that name")
        for t in terms:
            if t not in index:
                raise ValueError(f"differential of {nm!r}: no basis monomial {t!r}")
        if nm in index:  # not an even generator cut by truncation_order 1
            diff[index[nm]] = {index[t]: frac(q) for t, q in terms.items() if frac(q)}
    for e in monos:
        if sum(e) < 2:
            continue
        g = next(h for h, x in enumerate(e) if x)
        first, rest = index[names[g]], idx[e[:g] + (e[g] - 1,) + e[g + 1:]]
        out = {}
        for t, q in diff[first].items():
            for i, s in mul[(t, rest)].items():
                _acc(out, i, s * q)
        for t, q in diff[rest].items():
            for i, s in mul[(first, t)].items():
                _acc(out, i, ksign(degrees[g]) * s * q)
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
            sign = ksign(A.degrees[p2[0]] * B.degrees[p1[1]])
            mul[(idx[p1], idx[p2])] = {
                idx[(ka, kb)]: sign * qa * qb
                for ka, qa in A.mul_basis(p1[0], p2[0]).items()
                for kb, qb in B.mul_basis(p1[1], p2[1]).items()}

    diff = {}
    for p in pairs:
        out = {}
        for ka, qa in A.diff.get(p[0], {}).items():
            _acc(out, idx[(ka, p[1])], qa)
        sgn = ksign(A.degrees[p[0]])
        for kb, qb in B.diff.get(p[1], {}).items():
            _acc(out, idx[(p[0], kb)], sgn * qb)
        diff[idx[p]] = out

    unit = idx[(A.unit_index, B.unit_index)]
    ideal = [idx[p] for p in pairs if p[0] in A.ideal or p[1] in B.ideal]
    return CoeffDGA(basis, degs, mul, diff, unit, ideal)
