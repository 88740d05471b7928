"""The truncated graded symmetric coalgebra and its (co)operators.

Everything lives over a degree-zero coefficient algebra C (typically a
nilpotent extension of Q such as Q[h]/(h^k)); graded algebras enter the
theory by enlarging the *module* basis, never the coefficient ring.  A module
handed to this layer is taken to be already shifted: its stored degrees are
the suspension degrees, so "degree 0" letters here are the degree-1 elements
of the unshifted world.

Words of the symmetric coalgebra are canonically sorted basis multisets; the
Koszul sign of sorting is absorbed into the C-coefficient at construction
time and a repeated odd letter kills the word.  Every element carries a hard
word-order cap W: any operation that would need a longer word raises
``OrderOverflowError`` instead of silently truncating.

Coderivations and coalgebra morphisms are built from finite sequences of
Taylor coefficients (``TaylorSeq``).  The subset/partition expansion formulas
used here are validated by the axiom checkers ``check_coderivation`` /
``check_comorphism`` and by the ``taylor_of`` round-trip; those checks, not
the formulas, are the contract.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .scalars import CoeffDGA, DgaElem, ValidationReport, frac, ksign, rational_field


class OrderOverflowError(Exception):
    """A computation needed a symmetric word longer than the cap W."""


class GradedBasisModule:
    """Finite graded module with a named, totally ordered basis.

    Degrees are whatever grading the caller intends; the coalgebra layer
    interprets them as suspension (g[1]) degrees.  The coefficient algebra
    must be concentrated in degree zero.
    """

    def __init__(self, name, gens, coeff: CoeffDGA | None = None):
        self.name = name
        self.gens = tuple((str(n), int(d)) for n, d in gens)
        self.coeff = coeff if coeff is not None else rational_field()
        if not self.coeff.is_degree_zero:
            raise ValueError("coalgebra coefficients must sit in degree 0")
        self.index = {n: i for i, (n, _) in enumerate(self.gens)}
        if len(self.index) != len(self.gens):
            raise ValueError("duplicate generator names")

    def __len__(self):
        return len(self.gens)

    def gen_name(self, i):
        return self.gens[i][0]

    def degree(self, i):
        return self.gens[i][1]

    def shifted(self, offset=-1):
        """Same basis with degrees shifted (g -> g[1] is offset -1)."""
        return GradedBasisModule(f"{self.name}[{-offset}]",
                                 [(n, d + offset) for n, d in self.gens], self.coeff)

    def __eq__(self, other):
        return (isinstance(other, GradedBasisModule) and self.gens == other.gens
                and self.coeff == other.coeff)

    def __repr__(self):
        return f"GradedBasisModule({self.name}: " + \
            ", ".join(f"{n}:{d}" for n, d in self.gens) + ")"

    def words(self, order):
        """All canonical words of exactly this order (odd repeats excluded)."""
        out = []
        for w in itertools.combinations_with_replacement(range(len(self.gens)), order):
            ok = True
            for a, b in zip(w, w[1:]):
                if a == b and self.degree(a) % 2 == 1:
                    ok = False
                    break
            if ok:
                out.append(w)
        return out

    def words_up_to(self, max_order):
        out = []
        for j in range(max_order + 1):
            out.extend(self.words(j))
        return out


def canon_word(module, letters):
    """Sort letters into canonical order.  Returns (sign, word) or None."""
    w = list(letters)
    sign = 1
    for i in range(1, len(w)):
        j = i
        while j > 0 and w[j - 1] > w[j]:
            sign *= ksign(module.degree(w[j - 1]) * module.degree(w[j]))
            w[j - 1], w[j] = w[j], w[j - 1]
            j -= 1
    for a, b in zip(w, w[1:]):
        if a == b and module.degree(a) % 2 == 1:
            return None
    return sign, tuple(w)


def word_degree(module, word):
    return sum(module.degree(i) for i in word)


def perm_sign(module, letters, perm):
    """Koszul sign of reordering `letters` by the position permutation.

    perm[k] = original position of the letter placed at slot k.
    """
    sign = 1
    seen = []
    for p in perm:
        for q in seen:
            if q > p:
                sign *= ksign(module.degree(letters[p]) * module.degree(letters[q]))
        seen.append(p)
    return sign


def split_sign(module, word, positions):
    """Koszul sign of unshuffling `word` into (word[positions], rest)."""
    sel = set(positions)
    sign = 1
    for j in positions:
        for i in range(j):
            if i not in sel:
                sign *= ksign(module.degree(word[i]) * module.degree(word[j]))
    return sign


# -- elements of g[1] are sparse {basis index: C-coefficient} dicts ---------

def vect_add(a, b):
    out = dict(a)
    for i, c in b.items():
        s = out.get(i)
        s = c if s is None else s + c
        if s:
            out[i] = s
        else:
            out.pop(i, None)
    return out


def vect_scale(a, q):
    if isinstance(q, DgaElem):
        return {i: q * c for i, c in a.items() if q * c}
    q = frac(q)
    return {i: c.scale(q) for i, c in a.items() if c.scale(q)} if q else {}


def vect_is_zero(a):
    return not a


def vect_degree(module, a):
    degs = {module.degree(i) for i in a}
    return degs.pop() if len(degs) == 1 else None


class CoalgElem:
    """Element of the order-truncated symmetric coalgebra S_C(module)."""

    __slots__ = ("module", "W", "words")

    def __init__(self, module, words, W):
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
            if sign == -1:
                c = -c
            s = clean.get(cw)
            s = c if s is None else s + c
            if s:
                clean[cw] = s
            else:
                clean.pop(cw, None)
        self.words = clean

    @classmethod
    def zero(cls, module, W):
        return cls(module, {}, W)

    @classmethod
    def unit(cls, module, W):
        return cls(module, {(): module.coeff.one()}, W)

    @classmethod
    def generator(cls, module, name, W):
        return cls(module, {(module.index[name],): module.coeff.one()}, W)

    @classmethod
    def from_vect(cls, module, vect, W):
        return cls(module, {(i,): c for i, c in vect.items()}, W)

    def is_zero(self):
        return not self.words

    def __bool__(self):
        return bool(self.words)

    def __eq__(self, other):
        return (isinstance(other, CoalgElem) and self.module == other.module
                and self.words == other.words)

    def __add__(self, other):
        out = dict(self.words)
        for w, c in other.words.items():
            s = out.get(w)
            s = c if s is None else s + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return CoalgElem(self.module, out, max(self.W, other.W))

    def __neg__(self):
        return CoalgElem(self.module, {w: -c for w, c in self.words.items()}, self.W)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q):
        if isinstance(q, DgaElem):
            return CoalgElem(self.module,
                             {w: q * c for w, c in self.words.items()}, self.W)
        return CoalgElem(self.module,
                         {w: c.scale(frac(q)) for w, c in self.words.items()}, self.W)

    def __mul__(self, other):
        """Product in the symmetric algebra (coefficients commute, degree 0)."""
        out = {}
        for w1, c1 in self.words.items():
            for w2, c2 in other.words.items():
                r = canon_word(self.module, w1 + w2)
                if r is None:
                    continue
                sign, w = r
                if len(w) > self.W:
                    raise OrderOverflowError(
                        f"product word of order {len(w)} exceeds W={self.W}")
                c = c1 * c2
                if sign == -1:
                    c = -c
                s = out.get(w)
                s = c if s is None else s + c
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
        return CoalgElem(self.module, out, self.W)

    def order_component(self, j):
        return CoalgElem(self.module,
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
            for r in range(len(w) + 1):
                for positions in itertools.combinations(range(len(w)), r):
                    sel = set(positions)
                    left = tuple(w[i] for i in positions)
                    right = tuple(w[i] for i in range(len(w)) if i not in sel)
                    sign = split_sign(self.module, w, positions)
                    key = (left, right)
                    add = c.scale(sign)
                    s = out.get(key)
                    s = add if s is None else s + add
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return out

    def names(self):
        m = self.module
        return {tuple(m.gen_name(i) for i in w): c for w, c in self.words.items()}

    def to_json_list(self):
        from .scalars import frac_str
        out = []
        for w in sorted(self.words):
            c = self.words[w]
            if c.alg.is_rational_field:
                coeff = frac_str(c.rational_part())
            else:
                coeff = [[c.alg.basis[i], frac_str(q)] for i, q in sorted(c.coeffs.items())]
            out.append({"coeff": coeff, "word": [self.module.gen_name(i) for i in w]})
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
                    if not vect_is_zero(v):
                        raise ValueError(f"value on a vanishing word {w}")
                    continue
                sign, cw = r
                if len(cw) != j:
                    raise ValueError("word length disagrees with its order key")
                v = {i: (c if isinstance(c, DgaElem) else source.coeff.scalar(c))
                     for i, c in v.items()}
                v = {i: c for i, c in v.items() if c}
                if sign == -1:
                    v = vect_scale(v, Fraction(-1))
                if vect_is_zero(v):
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
                prev = ntab.get(cw)
                ntab[cw] = v if prev is None else vect_add(prev, v)
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
        return vect_scale(v, Fraction(sign)) if sign == -1 else dict(v)

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
            v = self.eval_word(letters)
            if vect_is_zero(v):
                continue
            out = vect_add(out, vect_scale(v, coeff))
        return out

    def scale(self, q):
        return TaylorSeq(self.source, self.target,
                         {j: {w: vect_scale(v, q) for w, v in t.items()}
                          for j, t in self.maps.items()}, self.intent)


class CoalgOperator:
    """Linear operator on CoalgElems with degree bookkeeping."""

    def __init__(self, source, target, degree, fn, label=""):
        self.source = source
        self.target = target
        self.degree = degree
        self.fn = fn
        self.label = label

    def __call__(self, x: CoalgElem) -> CoalgElem:
        return self.fn(x)

    def on_word(self, word, W):
        return self(CoalgElem(self.source, {tuple(word): self.source.coeff.one()}, W))

    def __repr__(self):
        return f"CoalgOperator({self.label or 'anonymous'}, degree {self.degree})"


def coder_from_taylor(T: TaylorSeq, W) -> CoalgOperator:
    """The unique coderivation with the given Taylor coefficients, Q(1) = 0.

    On a word: sum over nonempty position subsets S, Koszul-unshuffle S to the
    front, hit it with the |S|-th Taylor coefficient, and multiply the value
    back onto the remaining letters.
    """
    if T.intent != "coderivation":
        raise ValueError("TaylorSeq does not have coderivation intent")
    module = T.source
    maxj = T.max_j()

    def act(x: CoalgElem) -> CoalgElem:
        out = CoalgElem.zero(module, max(W, x.W))
        for w, c in x.words.items():
            for r in range(1, min(len(w), maxj) + 1):
                for positions in itertools.combinations(range(len(w)), r):
                    sel = set(positions)
                    sub = tuple(w[i] for i in positions)
                    rest = tuple(w[i] for i in range(len(w)) if i not in sel)
                    sign = split_sign(module, w, positions)
                    val = T.eval_word(sub)
                    if vect_is_zero(val):
                        continue
                    words = {}
                    for i, cv in val.items():
                        r2 = canon_word(module, (i,) + rest)
                        if r2 is None:
                            continue
                        s2, cw = r2
                        coeff = (c * cv).scale(sign * s2)
                        if not coeff:
                            continue
                        prev = words.get(cw)
                        words[cw] = coeff if prev is None else prev + coeff
                    out = out + CoalgElem(module, words, out.W)
        return out

    return CoalgOperator(module, module, 1, act, "coderivation")


def set_partitions(items):
    """All partitions of a list of positions; blocks keep ascending order."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]
        yield [[first]] + part


def morph_from_taylor(T: TaylorSeq, W) -> CoalgOperator:
    """The unique coalgebra morphism with the given Taylor coefficients, 1 -> 1.

    On a word: sum over set partitions of the positions (blocks ordered by
    smallest position), Koszul-unshuffle the word into the block concatenation
    and multiply the per-block Taylor values in the target.
    """
    if T.intent != "morphism":
        raise ValueError("TaylorSeq does not have morphism intent")
    src, tgt = T.source, T.target
    maxj = T.max_j()

    def act(x: CoalgElem) -> CoalgElem:
        Wout = max(W, x.W)
        out = CoalgElem.zero(tgt, Wout)
        for w, c in x.words.items():
            if not w:
                out = out + CoalgElem(tgt, {(): c}, Wout)
                continue
            acc = {}
            for blocks in set_partitions(range(len(w))):
                blocks = sorted(blocks, key=lambda b: b[0])
                if any(len(b) > maxj for b in blocks):
                    continue
                flat = [i for b in blocks for i in b]
                sign = perm_sign(src, w, flat)
                vals = []
                dead = False
                for b in blocks:
                    v = T.eval_word(tuple(w[i] for i in b))
                    if vect_is_zero(v):
                        dead = True
                        break
                    vals.append(v)
                if dead:
                    continue
                # product of the block values in S(target)
                for combo in itertools.product(*(v.items() for v in vals)):
                    letters = tuple(i for i, _ in combo)
                    r = canon_word(tgt, letters)
                    if r is None:
                        continue
                    s2, cw = r
                    if len(cw) > Wout:
                        raise OrderOverflowError(
                            f"morphism output word exceeds W={Wout}")
                    coeff = c.scale(sign * s2)
                    for _, cv in combo:
                        coeff = coeff * cv
                    if not coeff:
                        continue
                    prev = acc.get(cw)
                    s = coeff if prev is None else prev + coeff
                    if s:
                        acc[cw] = s
                    else:
                        acc.pop(cw, None)
            out = out + CoalgElem(tgt, acc, Wout)
        return out

    return CoalgOperator(src, tgt, 0, act, "morphism")


def taylor_of(op: CoalgOperator, j, W=None) -> dict:
    """j-th Taylor coefficient of an operator: ln after applying to S^j words."""
    W = W if W is not None else j
    out = {}
    for w in op.source.words(j):
        v = op.on_word(w, max(W, j)).ln()
        if not vect_is_zero(v):
            out[w] = v
    return out


def taylor_seq_of(op: CoalgOperator, max_j, intent, W=None) -> TaylorSeq:
    maps = {}
    for j in range(1, max_j + 1):
        t = taylor_of(op, j, W)
        if t:
            maps[j] = t
    return TaylorSeq(op.source, op.target, maps, intent)


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
    out = CoalgElem.unit(omega.module, omega.W)
    power = CoalgElem.unit(omega.module, omega.W)
    i = 0
    while True:
        i += 1
        power = power * omega
        if power.is_zero():
            break
        out = out + power.scale(Fraction(1, math.factorial(i)))
    return out


def ln(e: CoalgElem) -> CoalgElem:
    """Order-1 part (the inverse of exp on invertible group-likes)."""
    return e.order_component(1)


def is_primitive(x: CoalgElem) -> bool:
    lhs = x.comult()
    rhs = {}
    for w, c in x.words.items():
        for key in ((w, ()), ((), w)):
            s = rhs.get(key)
            s = c if s is None else s + c
            if s:
                rhs[key] = s
            else:
                rhs.pop(key, None)
    return lhs == rhs


def is_grouplike(e: CoalgElem) -> bool:
    return e.comult() == tensor_of(e, e)


def is_invertible(e: CoalgElem) -> bool:
    """Invertibility in S_C over the local ring C: unit part outside m."""
    c = e.constant_term()
    return bool(c.rational_part())


# ---------------------------------------------------------------------------
# axiom checkers and composition
# ---------------------------------------------------------------------------

def check_coderivation(op: CoalgOperator, W, max_order=None) -> ValidationReport:
    """Delta(Q w) = (Q x 1 + 1 x Q)(Delta w) on every word up to the cap."""
    rep = ValidationReport()
    module = op.source
    max_order = max_order if max_order is not None else W
    for w in module.words_up_to(max_order):
        x = CoalgElem(module, {w: module.coeff.one()}, W)
        lhs = op(x).comult()
        rhs = {}
        for (w1, w2), c in x.comult().items():
            left = op(CoalgElem(module, {w1: module.coeff.one()}, W))
            for v, cv in left.words.items():
                key = (v, w2)
                add = c * cv
                s = rhs.get(key)
                s = add if s is None else s + add
                if s:
                    rhs[key] = s
                else:
                    rhs.pop(key, None)
            right = op(CoalgElem(module, {w2: module.coeff.one()}, W))
            sgn = ksign(op.degree * word_degree(module, w1))
            for v, cv in right.words.items():
                key = (w1, v)
                add = (c * cv).scale(sgn)
                s = rhs.get(key)
                s = add if s is None else s + add
                if s:
                    rhs[key] = s
                else:
                    rhs.pop(key, None)
        if lhs != rhs:
            rep.add("coderivation", [module.gen_name(i) for i in w],
                    "Delta Q != (Q x 1 + 1 x Q) Delta")
    one = CoalgElem.unit(module, W)
    if not op(one).is_zero():
        rep.add("coderivation", ["1"], "Q(1) != 0")
    return rep


def check_comorphism(op: CoalgOperator, W, max_order=None) -> ValidationReport:
    """Delta'(Psi w) = (Psi x Psi)(Delta w) on every word up to the cap."""
    rep = ValidationReport()
    src = op.source
    max_order = max_order if max_order is not None else W
    one = CoalgElem.unit(src, W)
    out_one = op(one)
    if out_one != CoalgElem.unit(op.target, out_one.W):
        rep.add("comorphism", ["1"], "Psi(1) != 1")
    for w in src.words_up_to(max_order):
        x = CoalgElem(src, {w: src.coeff.one()}, W)
        lhs = op(x).comult()
        rhs = {}
        for (w1, w2), c in x.comult().items():
            left = op(CoalgElem(src, {w1: src.coeff.one()}, W))
            right = op(CoalgElem(src, {w2: src.coeff.one()}, W))
            for v1, c1 in left.words.items():
                for v2, c2 in right.words.items():
                    key = (v1, v2)
                    add = c * c1 * c2
                    s = rhs.get(key)
                    s = add if s is None else s + add
                    if s:
                        rhs[key] = s
                    else:
                        rhs.pop(key, None)
        if lhs != rhs:
            rep.add("comorphism", [src.gen_name(i) for i in w],
                    "Delta Psi != (Psi x Psi) Delta")
    return rep


def compose(f: CoalgOperator, g: CoalgOperator) -> CoalgOperator:
    """f after g."""
    if not (g.target == f.source):
        raise ValueError("operators do not chain")
    return CoalgOperator(g.source, f.target, f.degree + g.degree,
                         lambda x: f(g(x)), f"{f.label}∘{g.label}")


# ---------------------------------------------------------------------------
# tensor coalgebra internals (only used to state and test the symmetrization)
# ---------------------------------------------------------------------------

def tau(x: CoalgElem) -> dict:
    """Symmetrization into the tensor coalgebra: {unsorted tuple: coeff}."""
    out = {}
    for w, c in x.words.items():
        for perm in itertools.permutations(range(len(w))):
            sign = perm_sign(x.module, w, list(perm))
            key = tuple(w[p] for p in perm)
            add = c.scale(sign)
            s = out.get(key)
            s = add if s is None else s + add
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def pi_tilde(module, tensor_elem, W) -> CoalgElem:
    """Averaged projection (1/j!) back onto the symmetric coalgebra."""
    out = CoalgElem.zero(module, W)
    for word, c in tensor_elem.items():
        out = out + CoalgElem(module, {word: c.scale(Fraction(1, math.factorial(len(word))))}, W)
    return out


def tensor_comult(tensor_elem) -> dict:
    """Deconcatenation coproduct on tensor words."""
    out = {}
    for w, c in tensor_elem.items():
        for p in range(len(w) + 1):
            key = (w[:p], w[p:])
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out
