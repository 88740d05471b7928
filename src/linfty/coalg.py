"""The truncated graded symmetric coalgebra and its (co)operators.

Everything lives over a degree-zero coefficient algebra C (typically a
nilpotent extension of Q such as Q[h]/(h^k)); graded algebras enter the
theory by enlarging the *module* basis, never the coefficient ring.  A module
handed to this layer is taken to be already shifted: its stored degrees are
the suspension degrees, so "degree 0" letters here are the degree-1 elements
of the unshifted world.

Words of the symmetric coalgebra are canonically sorted basis multisets; the
Koszul sign of sorting is absorbed into the C-coefficient at construction
time and a repeated odd letter kills the word.  An element may carry a
word-order guard W, unbounded by default: building or multiplying into a
longer word then raises ``OrderOverflowError``.  No operator or check reads
it; each check walks to the order its identity needs.

A ``CoalgOperator`` is given by its columns: ``column(w)``, the image of one
canonical word built once and kept by the operator, is the one way to read it
on a basis word, and ``__call__`` is its linear extension to elements.
``canon_word`` is memoised the same way, per module.
Coderivations and coalgebra morphisms get their columns from finite
sequences of Taylor coefficients (``TaylorSeq``).  A coderivation column sums
over the subsets S of a word's positions; a morphism column recurses on the
block B that holds the word's first letter,

    Psi(w) = sum over B of eps(B) Psi_|B|(w_B) * Psi(w minus B),

with eps(B) the Koszul sign of unshuffling B to the front.  These expansion
formulas are validated by the axiom checkers ``check_coderivation`` /
``check_comorphism`` and by the ``taylor_of`` round-trip; those checks, not
the formulas, are the contract.
"""

from __future__ import annotations

import itertools
import math

from .scalars import (CoeffDGA, DgaElem, ValidationReport, _acc, _acc_neg, _check_basis,
                      _elem, _mul_acc, frac, koszul_sort, ksign, rational_field)


class OrderOverflowError(Exception):
    """A computation needed a symmetric word longer than an element's guard W."""


class GradedBasisModule:
    """Finite graded module with a named, totally ordered basis.

    Degrees are whatever grading the caller intends; the coalgebra layer
    interprets them as suspension (g[1]) degrees.  The coefficient algebra
    must be concentrated in degree zero.
    """

    def __init__(self, name, gens, coeff: CoeffDGA | None = None):
        self.name = name
        self.gens = _check_basis(tuple((n, d) for n, d in gens), "generator")
        self.coeff = coeff if coeff is not None else rational_field()
        if not self.coeff.is_degree_zero:
            raise ValueError("coalgebra coefficients must sit in degree 0")
        self.index = {n: i for i, (n, _) in enumerate(self.gens)}
        self.odd = frozenset(i for i, (_, d) in enumerate(self.gens) if d % 2)
        self._canon = {}  # canon_word's memo: letter tuple -> (sign, word) or None

    def __len__(self):
        return len(self.gens)

    def gen_name(self, i):
        return self.gens[i][0]

    def degree(self, i):
        return self.gens[i][1]

    def shifted(self):
        """Same basis with degrees lowered by one: the suspension g -> g[1]."""
        return GradedBasisModule(f"{self.name}[1]",
                                 [(n, d - 1) for n, d in self.gens], self.coeff)

    def __eq__(self, other):
        return (isinstance(other, GradedBasisModule) and self.gens == other.gens
                and self.coeff == other.coeff)

    def __repr__(self):
        return f"GradedBasisModule({self.name}: " + \
            ", ".join(f"{n}:{d}" for n, d in self.gens) + ")"

    def words(self, order):
        """All canonical words of exactly this order (odd repeats excluded)."""
        return [w for w in itertools.combinations_with_replacement(range(len(self.gens)), order)
                if self.is_canonical(w)]

    def is_canonical(self, word):
        """Whether word is one that words(len(word)) lists: a tuple of int
        letters in range, sorted, with no odd letter repeated."""
        if type(word) is not tuple:
            return False
        prev, n, odd = -1, len(self.gens), self.odd
        for i in word:
            if type(i) is not int or not (prev < i < n or i == prev >= 0 and i not in odd):
                return False
            prev = i
        return True

    def words_up_to(self, max_order):
        out = []
        for j in range(max_order + 1):
            out.extend(self.words(j))
        return out


def canon_word(module, letters):
    """Sort a tuple of letters into canonical order.  Returns (sign, word), or
    None when a repeated odd letter kills the word; memoised per module.  Every
    unshuffle and permutation of a canonical word takes its sign from here."""
    try:
        return module._canon[letters]
    except KeyError:
        r = module._canon[letters] = koszul_sort(letters, module.odd)
        return r


def word_degree(module, word):
    return sum(module.degree(i) for i in word)


# -- elements of g[1] are sparse {basis index: C-coefficient} dicts ---------

def vect_acc(out, v, q=1):
    """out += q * v in place, for a DgaElem or rational q; returns out.

    Works on any sparse dict of DgaElem values (vects, coalgebra words).  A
    DgaElem q other than the unit multiplies each value straight into a copy of
    the running coefficient: one DgaElem per key touched, none per product.
    """
    if isinstance(q, DgaElem):
        C, x = q.alg, q.coeffs
        for c in v.values():
            if c.alg is not C and c.alg != C:
                raise ValueError("DgaElem product across different algebras")
        if x != {C.unit_index: 1}:
            for i, c in v.items():
                acc = dict(out[i].coeffs) if i in out else {}
                _mul_acc(acc, C.table, x, c.coeffs, 1)
                if acc:
                    out[i] = _elem(C, acc)
                else:
                    out.pop(i, None)
            return out
        q = 1
    if q == 1:
        terms = v.items()
    else:
        terms = ((i, c.scale(q)) for i, c in v.items())
    for i, c in terms:
        if c:
            _acc(out, i, c)
    return out


def vect_add(a, b):
    return vect_acc(dict(a), b)


def vect_scale(a, q):
    return vect_acc({}, a, q)


def vect_degree(module, a):
    degs = {module.degree(i) for i in a}
    return degs.pop() if len(degs) == 1 else None


class CoalgElem:
    """Element of the symmetric coalgebra S_C(module), with an optional guard W
    on its word orders (``math.inf``, no guard, unless given)."""

    __slots__ = ("module", "W", "words")

    def __init__(self, module, words, W=math.inf):
        self.module = module
        self.W = W
        clean = {}
        for w, c in words.items():
            if not isinstance(c, DgaElem):
                c = module.coeff.scalar(c)
            if not c:
                continue
            r = canon_word(module, w)
            if r is None:
                continue
            sign, cw = r
            if len(cw) > W:
                raise OrderOverflowError(
                    f"word of order {len(cw)} exceeds the cap W={W}")
            (_acc if sign == 1 else _acc_neg)(clean, cw, c)
        self.words = clean

    @classmethod
    def zero(cls, module, W=math.inf):
        return cls(module, {}, W)

    @classmethod
    def unit(cls, module, W=math.inf):
        return cls(module, {(): module.coeff.one()}, W)

    @classmethod
    def generator(cls, module, name, W=math.inf):
        return cls(module, {(module.index[name],): module.coeff.one()}, W)

    @classmethod
    def from_vect(cls, module, vect, W=math.inf):
        return cls(module, {(i,): c for i, c in vect.items()}, W)

    def is_zero(self):
        return not self.words

    def __bool__(self):
        return bool(self.words)

    def __eq__(self, other):
        return (isinstance(other, CoalgElem) and self.module == other.module
                and self.words == other.words)

    def __add__(self, other):
        return _coalg(self.module, vect_add(self.words, other.words),
                      max(self.W, other.W))

    def __neg__(self):
        return _coalg(self.module, {w: -c for w, c in self.words.items()}, self.W)

    def __sub__(self, other):
        return _coalg(self.module, vect_acc(dict(self.words), other.words, -1),
                      max(self.W, other.W))

    def scale(self, q):
        return _coalg(self.module, vect_scale(self.words, q), self.W)

    def __mul__(self, other):
        """Product in the symmetric algebra (coefficients commute, degree 0).

        Each pair of words adds its signed coefficient product term by term
        into the coefficient of the product word, which enters the result when
        its sum first becomes nonzero and leaves it when the sum cancels."""
        module, W = self.module, self.W
        C = module.coeff
        for c in itertools.chain(self.words.values(), other.words.values()):
            if c.alg is not C and c.alg != C:
                raise ValueError("DgaElem product across different algebras")
        table, canon = C.table, module._canon
        sums = {}
        for w1, c1 in self.words.items():
            for w2, c2 in other.words.items():
                try:
                    r = canon[w1 + w2]
                except KeyError:
                    r = canon_word(module, w1 + w2)
                if r is None:
                    continue
                sign, w = r
                if len(w) > W:
                    raise OrderOverflowError(
                        f"product word of order {len(w)} exceeds W={W}")
                acc = sums.get(w)
                if acc is None:
                    acc = sums[w] = {}
                _mul_acc(acc, table, c1.coeffs, c2.coeffs, sign)
                if not acc:
                    del sums[w]
        for w, acc in sums.items():
            sums[w] = _elem(C, acc)
        return _coalg(module, sums, W)

    def order_component(self, j):
        return _coalg(self.module,
                      {w: c for w, c in self.words.items() if len(w) == j}, self.W)

    def max_order(self):
        return max((len(w) for w in self.words), default=0)

    def ln(self):
        """Projection onto order-1 words, as a vect."""
        return {w[0]: c for w, c in self.words.items() if len(w) == 1}

    def constant_term(self):
        return self.words.get((), self.module.coeff.zero())

    def comult(self):
        """Delta as {(left word, right word): coefficient}, order preserved."""
        out = {}
        for w, c in self.words.items():
            for left, right, sign in _splits(self.module, w):
                (_acc if sign == 1 else _acc_neg)(out, (left, right), c)
        return out

    def __repr__(self):
        if not self.words:
            return "0"
        bits = []
        for w in sorted(self.words):
            c = self.words[w]
            mono = "*".join(self.module.gen_name(i) for i in w) if w else "1"
            bits.append(f"({c!r})·{mono}")
        return " + ".join(bits)


def _splits(module, w):
    """The terms (left, right, Koszul sign) of Delta(w) for one canonical word,
    order preserved, by increasing order of left: every unshuffle of w once."""
    n = len(w)
    for r in range(n + 1):
        # the complement of the k-th r-subset of positions is the k-th
        # (n - r)-subset from the end, both in lexicographic order
        rights = reversed(list(itertools.combinations(w, n - r)))
        for left, right in zip(itertools.combinations(w, r), rights):
            yield left, right, canon_word(module, left + right)[0]


def _coalg(module, words, W):
    """CoalgElem from canonical words of order <= W with nonzero values; no copy."""
    x = object.__new__(CoalgElem)
    x.module = module
    x.W = W
    x.words = words
    return x


def tensor_of(x: CoalgElem, y: CoalgElem):
    out = {}
    for w1, c1 in x.words.items():
        for w2, c2 in y.words.items():
            c = c1 * c2
            if c:
                out[(w1, w2)] = c
    return out


# ---------------------------------------------------------------------------
# Taylor coefficient tables
# ---------------------------------------------------------------------------

class TaylorSeq:
    """Finite sequence of graded symmetric multilinear maps S^j(source) -> target.

    maps: {j: {canonical word: vect}} with j >= 1.  Intent fixes the degree
    shift each map must satisfy: +1 for a coderivation, 0 for a coalgebra
    morphism.  Keys are canonicalized on construction (signs absorbed).
    """

    def __init__(self, source, target, maps, intent):
        if intent not in ("coderivation", "morphism"):
            raise ValueError("intent must be 'coderivation' or 'morphism'")
        if intent == "coderivation" and not (source == target):
            raise ValueError("coderivation Taylor maps need source == target")
        self.source = source
        self.target = target
        self.intent = intent
        shift = 1 if intent == "coderivation" else 0
        norm = {}
        for j, table in maps.items():
            if j < 1:
                raise ValueError("Taylor coefficients start at j = 1")
            ntab = {}
            for w, v in table.items():
                r = canon_word(source, w)
                if r is None:
                    if v:
                        raise ValueError(f"value on a vanishing word {w}")
                    continue
                sign, cw = r
                if len(cw) != j:
                    raise ValueError("word length disagrees with its order key")
                v = vect_scale({i: (c if isinstance(c, DgaElem) else source.coeff.scalar(c))
                                for i, c in v.items()}, sign)
                if not v:
                    continue
                want = word_degree(source, cw) + shift
                got = vect_degree(target, v)
                if got is not None and got != want:
                    raise ValueError(
                        f"degree mismatch on {cw}: value degree {got}, expected {want}")
                if got is None:
                    degs = {target.degree(i) for i in v}
                    if degs != {want}:
                        raise ValueError(
                            f"inhomogeneous value on {cw}: degrees {sorted(degs)}, expected {want}")
                vect_acc(ntab.setdefault(cw, {}), v)
            if ntab:
                norm[j] = ntab
        self.maps = norm

    def max_j(self):
        return max(self.maps, default=0)

    def eval_word(self, word):
        """Value on a canonical-or-not word of letters (multi-index tuple)."""
        j = len(word)
        table = self.maps.get(j)
        if not table:
            return {}
        r = canon_word(self.source, word)
        if r is None:
            return {}
        sign, cw = r
        v = table.get(cw, {})
        return vect_scale(v, -1) if sign == -1 else dict(v)

    def eval_elements(self, elements):
        """Multilinear evaluation on a list of vects."""
        j = len(elements)
        if j not in self.maps:
            return {}
        out = {}
        for combo in itertools.product(*(e.items() for e in elements)):
            letters = tuple(i for i, _ in combo)
            coeff = None
            for _, c in combo:
                coeff = c if coeff is None else coeff * c
            if coeff is None or not coeff:
                continue
            vect_acc(out, self.eval_word(letters), coeff)
        return out


def _taylor(source, target, maps, intent):
    """TaylorSeq from canonical maps (nonempty tables of canonical order-j words,
    nonzero values of the intent's degree), built from validated ones; no copy."""
    T = object.__new__(TaylorSeq)
    T.source = source
    T.target = target
    T.intent = intent
    T.maps = maps
    return T


class CoalgOperator:
    """A linear map of symmetric coalgebras, given by its columns.

    ``build(w)`` makes the image of one canonical source word as a sparse
    {canonical target word: nonzero coefficient} dict; ``degree`` is the
    operator's degree.
    """

    def __init__(self, source, target, degree, build):
        self.source = source
        self.target = target
        self.degree = degree
        self._build = build
        self._columns = {}  # canonical word -> build(word)

    def column(self, w):
        """The image of the canonical word w, built once; callers never mutate it."""
        try:
            return self._columns[w]
        except KeyError:
            col = self._columns[w] = self._build(w)
            return col

    def __call__(self, x: CoalgElem) -> CoalgElem:
        """The linear extension: the sum of c * column(w) over the words of x,
        with no guard."""
        column = self.column
        out = {}
        for w, c in x.words.items():
            vect_acc(out, column(w), c)
        return _coalg(self.target, out, math.inf)


def coder_from_taylor(T: TaylorSeq) -> CoalgOperator:
    """The unique coderivation with the given Taylor coefficients, Q(1) = 0.

    On a word: sum over nonempty position subsets S, Koszul-unshuffle S to the
    front, hit it with the |S|-th Taylor coefficient, and multiply the value
    back onto the remaining letters.
    """
    if T.intent != "coderivation":
        raise ValueError("TaylorSeq does not have coderivation intent")
    module = T.source
    maxj = T.max_j()
    # every block of a canonical word is canonical: read it from its table
    tables = [T.maps.get(j, {}) for j in range(maxj + 1)]

    def column(w):
        out = {}
        for sub, rest, sign in _splits(module, w):
            if len(sub) > maxj:
                break
            for i, cv in tables[len(sub)].get(sub, {}).items():
                r = canon_word(module, (i,) + rest)
                if r is None:
                    continue
                s2, cw = r
                (_acc if sign * s2 == 1 else _acc_neg)(out, cw, cv)
        return out

    return CoalgOperator(module, module, 1, column)


def morph_from_taylor(T: TaylorSeq) -> CoalgOperator:
    """The unique coalgebra morphism with the given Taylor coefficients, 1 -> 1.

    On a word w, by the first-block recursion: the sum over the blocks B of
    positions that hold w's first letter of eps(B) Psi_|B|(w_B) * Psi(w minus B),
    eps(B) the Koszul sign of unshuffling B to the front and the product taken
    in S(target).
    """
    if T.intent != "morphism":
        raise ValueError("TaylorSeq does not have morphism intent")
    one = T.target.coeff.one()

    def column(w):
        return _morph_column(T, w, {}) if w else {(): one}

    return CoalgOperator(T.source, T.target, 0, column)


def _morph_column(T, w, memo):
    """Psi(w) for a nonempty canonical word; memo keeps the columns of the
    sub-words already built for the same top word."""
    if w in memo:
        return memo[w]
    tgt, maxj = T.target, T.max_j()
    out = {}
    for left, right, sign in _splits(T.source, w[1:]):
        if len(left) >= maxj:
            break
        # w's first letter and a block of the rest: canonical, read from its table
        value = T.maps.get(len(left) + 1, {}).get(w[:1] + left)
        if not value:
            continue
        if not right:  # w is one block: sign +1, and no other term has order 1
            out.update(((i,), c) for i, c in value.items())
            continue
        rest = _morph_column(T, right, memo)
        for i, c in value.items():
            for cw, c2 in rest.items():
                r = canon_word(tgt, (i,) + cw)
                if r is None:
                    continue
                s2, word = r
                coeff = c * c2
                if coeff:
                    (_acc if sign * s2 == 1 else _acc_neg)(out, word, coeff)
    memo[w] = out
    return out


def taylor_of(op: CoalgOperator, j) -> dict:
    """j-th Taylor coefficient of an operator: the order-1 part of its S^j columns."""
    out = {}
    for w in op.source.words(j):
        v = {cw[0]: c for cw, c in op.column(w).items() if len(cw) == 1}
        if v:
            out[w] = v
    return out


# ---------------------------------------------------------------------------
# exp / ln, primitives, group-likes
# ---------------------------------------------------------------------------

def exp(omega: CoalgElem) -> CoalgElem:
    """exp of a nilpotent degree-0 order-1 element; finite by nilpotency."""
    if any(len(w) != 1 for w in omega.words):
        raise ValueError("exp needs a pure order-1 element")
    for w, c in omega.words.items():
        if omega.module.degree(w[0]) != 0:
            raise ValueError("exp needs letters of suspension degree 0")
        if not c.in_ideal():
            raise ValueError("exp requires nilpotent coefficients")
    out = {(): omega.module.coeff.one()}
    power = omega
    i = 1
    while power:
        vect_acc(out, power.words, frac(1, math.factorial(i)))
        i += 1
        power = power * omega
    return _coalg(omega.module, out, omega.W)


def ln(e: CoalgElem) -> CoalgElem:
    """Order-1 part (the inverse of exp on invertible group-likes)."""
    return e.order_component(1)


def is_primitive(x: CoalgElem) -> bool:
    lhs = x.comult()
    rhs = {}
    for w, c in x.words.items():
        _acc(rhs, (w, ()), c)
        _acc(rhs, ((), w), c)
    return lhs == rhs


def is_grouplike(e: CoalgElem) -> bool:
    return e.comult() == tensor_of(e, e)


def is_invertible(e: CoalgElem) -> bool:
    """Invertibility in S_C over the local ring C: unit part outside m."""
    c = e.constant_term()
    return bool(c.rational_part())


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------

def check_coderivation(op: CoalgOperator, max_order) -> ValidationReport:
    """Delta(Q w) = (Q x 1 + 1 x Q)(Delta w) on every word up to max_order."""
    rep = ValidationReport()
    module = op.source
    for w in module.words_up_to(max_order):
        lhs = _coalg(op.target, op.column(w), math.inf).comult()
        rhs = {}
        for w1, w2, sign in _splits(module, w):
            for v, cv in op.column(w1).items():
                (_acc if sign == 1 else _acc_neg)(rhs, (v, w2), cv)
            sign *= ksign(op.degree * word_degree(module, w1))
            for v, cv in op.column(w2).items():
                (_acc if sign == 1 else _acc_neg)(rhs, (w1, v), cv)
        if lhs != rhs:
            rep.add("coderivation", [module.gen_name(i) for i in w],
                    "Delta Q != (Q x 1 + 1 x Q) Delta")
    if op.column(()):
        rep.add("coderivation", ["1"], "Q(1) != 0")
    return rep


def check_comorphism(op: CoalgOperator, max_order) -> ValidationReport:
    """Delta'(Psi w) = (Psi x Psi)(Delta w) on every word up to max_order."""
    rep = ValidationReport()
    src = op.source
    if op.column(()) != {(): op.target.coeff.one()}:
        rep.add("comorphism", ["1"], "Psi(1) != 1")
    for w in src.words_up_to(max_order):
        lhs = _coalg(op.target, op.column(w), math.inf).comult()
        rhs = {}
        for w1, w2, sign in _splits(src, w):
            put = _acc if sign == 1 else _acc_neg
            right = op.column(w2)
            for v1, c1 in op.column(w1).items():
                for v2, c2 in right.items():
                    add = c1 * c2
                    if add:
                        put(rhs, (v1, v2), add)
        if lhs != rhs:
            rep.add("comorphism", [src.gen_name(i) for i in w],
                    "Delta Psi != (Psi x Psi) Delta")
    return rep


# ---------------------------------------------------------------------------
# tensor coalgebra internals (only used to state and test the symmetrization)
# ---------------------------------------------------------------------------

def tau(x: CoalgElem) -> dict:
    """Symmetrization into the tensor coalgebra: {unsorted tuple: coeff}."""
    out = {}
    for w, c in x.words.items():
        for perm in itertools.permutations(w):
            (_acc if canon_word(x.module, perm)[0] == 1 else _acc_neg)(out, perm, c)
    return out


def pi_tilde(module, tensor_elem) -> CoalgElem:
    """Averaged projection (1/j!) back onto the symmetric coalgebra."""
    return CoalgElem(module, {word: c.scale(frac(1, math.factorial(len(word))))
                              for word, c in tensor_elem.items()})


def tensor_comult(tensor_elem) -> dict:
    """Deconcatenation coproduct on tensor words."""
    out = {}
    for w, c in tensor_elem.items():
        for p in range(len(w) + 1):
            _acc(out, (w[:p], w[p:]), c)
    return out
