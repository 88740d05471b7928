"""L-infinity algebras and morphisms, Maurer-Cartan elements, twisting.

A DG Lie algebra (finite graded basis, tables for d and the bracket over a
degree-zero coefficient ring C) embeds as a square-zero coderivation Q on the
symmetric coalgebra of the shifted module.  The frozen suspension convention
is

    d^1 Q (g)        = d(g)
    d^2 Q (g1 g2)    = (-1)^{p1 + 1} [g1, g2]     (p1 = unshifted degree of
                                                   the first letter of the
                                                   canonical word)

chosen so that Q∘Q = 0 is exactly the DGLA axioms, the Maurer-Cartan residue
of the coderivation equals d(w) + 1/2 [w, w] on the nose, and the twisted
differential is d + ad(w) on the nose.  Constructors do not check: from_dgla
decides the axioms once, through dgla_check, and the tests pin their
equivalence with Q∘Q = 0, which check_square_zero() decides for any structure.

Q∘Q and Psi∘Q - Q'∘Psi are coderivations (the latter along Psi), and a
coderivation vanishes iff its corestriction π₁ does (Lada-Stasheff).  So
each check computes only the corestriction, reading π₁Q, π₁Q' and π₁Psi off
the Taylor tables (``_corestriction``) on the columns of the canonical words
up to a bound read off the Taylor lengths, beyond which the corestriction
vanishes.  The walk is order-ascending and stops at the first word where the
corestriction is nonzero.  A coderivation that vanishes on every word of
order below k equals its corestriction on order-k words, so that word is
also the first word where the full operator is nonzero: the verdict and the
one witness are those of a walk over every word.

Twisting follows the Taylor-coefficient formula: ``_corestriction`` on the
scaled powers sum_k w^k/k! up to the longest Taylor coefficient, built once
per call.  ``conjugation_twist`` builds the same operator a second way, by
conjugating with multiplication by exp(w), and the two are compared column
for column in the test suite.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

from .coalg import (CoalgElem, CoalgOperator, GradedBasisModule, TaylorSeq, _taylor,
                    coder_from_taylor, exp, morph_from_taylor, vect_acc,
                    vect_degree, vect_scale)
from .scalars import CoeffDGA, DgaElem, ValidationReport, _acc, frac, ksign


# ---------------------------------------------------------------------------
# DGLA tables and their axioms
# ---------------------------------------------------------------------------

def _as_vect(module, v):
    out = {}
    for k, c in v.items():
        if not isinstance(c, DgaElem):
            c = module.coeff.scalar(c)
        if c:
            _acc(out, module.index[k] if isinstance(k, str) else k, c)
    return out


def complete_bracket(module, bracket):
    """Fill missing (j,i) entries using graded antisymmetry."""
    out = {}
    for (i, j), v in bracket.items():
        i2 = module.index[i] if isinstance(i, str) else i
        j2 = module.index[j] if isinstance(j, str) else j
        out[(i2, j2)] = _as_vect(module, v)
    for (i, j) in list(out.keys()):
        if (j, i) not in out:
            sign = -ksign(module.degree(i) * module.degree(j))
            out[(j, i)] = vect_scale(out[(i, j)], sign)
    return out


def dgla_check(module, d_table, bracket_table) -> ValidationReport:
    """Graded antisymmetry, Jacobi, d^2 = 0, Leibniz, and degree bookkeeping;
    the walks skip only the pairs and triples whose checks have no nonzero
    term, so they report what the loops over all of them report."""
    rep = ValidationReport()
    n = len(module)
    # the nonzero [x_i, x_j]: the j by i, and by (i, l) for each x_l in it
    rows, into = defaultdict(set), defaultdict(set)
    for (i, j), v in bracket_table.items():
        if v:
            rows[i].add(j)
            for l in v:
                into[(i, l)].add(j)

    def dd(v):
        out = {}
        for i, c in v.items():
            vect_acc(out, d_table.get(i, {}), c)
        return out

    def br(i, j):
        return bracket_table.get((i, j), {})

    # [x_i, w] and [v, x_k] for generators x_i, x_k and vects v, w
    def br_left(i, w):
        out = {}
        for j, c in w.items():
            vect_acc(out, br(i, j), c)
        return out

    def br_right(v, k):
        out = {}
        for i, c in v.items():
            vect_acc(out, br(i, k), c)
        return out

    for i in range(n):
        v = d_table.get(i, {})
        got = vect_degree(module, v)
        if v and got != module.degree(i) + 1:
            rep.add("grading", [module.gen_name(i)], "d is not degree +1")
        if dd(v):
            rep.add("d_squared", [module.gen_name(i)], "d(d(x)) != 0")
    for i, j in itertools.product(range(n), repeat=2):
        v = br(i, j)
        if not (v or br(j, i) or d_table.get(i) or d_table.get(j)):
            continue
        want = module.degree(i) + module.degree(j)
        if v and vect_degree(module, v) != want:
            rep.add("grading", [module.gen_name(i), module.gen_name(j)],
                    "bracket is not degree-additive")
        anti = vect_acc(dict(v), br(j, i), ksign(module.degree(i) * module.degree(j)))
        if anti:
            rep.add("antisymmetry", [module.gen_name(i), module.gen_name(j)],
                    "[x,y] != -(-1)^{|x||y|}[y,x]")
        rhs = vect_acc(br_right(d_table.get(i, {}), j),
                       br_left(i, d_table.get(j, {})), ksign(module.degree(i)))
        if vect_acc(dd(v), rhs, -1):
            rep.add("leibniz", [module.gen_name(i), module.gen_name(j)],
                    "d[x,y] != [dx,y] + (-1)^{|x|}[x,dy]")

    def chained(i, j):
        """The k for which [x_i,[x_j,x_k]], [[x_i,x_j],x_k] or [x_j,[x_i,x_k]]
        is a chain of nonzero brackets; no other k has a nonzero Jacobi term."""
        return sorted(set().union(*(into.get((j, l), ()) for l in rows.get(i, ())),
                                  *(rows.get(l, ()) for l in br(i, j)),
                                  *(into.get((i, l), ()) for l in rows.get(j, ()))))

    for i, j in itertools.product(range(n), repeat=2):
        for k in chained(i, j):
            first = br_left(i, br(j, k))
            rhs = vect_acc(br_right(br(i, j), k), br_left(j, br(i, k)),
                           ksign(module.degree(i) * module.degree(j)))
            if vect_acc(first, rhs, -1):
                rep.add("jacobi", [module.gen_name(i), module.gen_name(j), module.gen_name(k)],
                        "[x,[y,z]] != [[x,y],z] + (-1)^{|x||y|}[y,[x,z]]")
    return rep


def taylor_from_dgla(module, d_table, bracket_table) -> TaylorSeq:
    """Embed DGLA tables as Taylor coefficients on the shifted module."""
    sh = module.shifted()
    maps = {1: {}, 2: {}}
    for i in range(len(module)):
        v = d_table.get(i, {})
        if v:
            maps[1][(i,)] = dict(v)
    for (i, j), v in sorted(bracket_table.items()):
        # the canonical words: i <= j, and no (i, i) for even x_i (odd in the shift)
        if v and i <= j and (i < j or module.degree(i) % 2):
            maps[2][(i, j)] = vect_scale(v, ksign(module.degree(i) + 1))
    maps = {j: t for j, t in maps.items() if t}
    return TaylorSeq(sh, sh, maps, "coderivation")


def dgla_tables_from_taylor(module, T: TaylorSeq):
    """Inverse of taylor_from_dgla: read (d, bracket) back off d^1, d^2."""
    d_table = {}
    for (i,), v in T.maps.get(1, {}).items():
        d_table[i] = dict(v)
    bracket = {}
    for i, j in sorted({p for i, j in T.maps.get(2, {}) for p in ((i, j), (j, i))}):
        v = T.eval_word((i, j))
        if v:
            bracket[(i, j)] = vect_scale(v, ksign(module.degree(i) + 1))
    return d_table, bracket


def _corestriction(taylor: TaylorSeq, words, extra=()) -> dict:
    """π₁ of the operator with these Taylor coefficients on the sum of
    c * (u extra) over the entries u: c of words, as a vect."""
    out = {}
    for u, c in words.items():
        vect_acc(out, taylor.eval_word(u + extra), c)
    return out


def _scaled_powers(omega: CoalgElem, top) -> dict:
    """The sum of omega^i / i! over i = 1 .. top as {word: coefficient},
    ending at the first zero power (top: the longest Taylor coefficient, the
    last one that reads a power).  Apart from coalg.exp on purpose: the
    conjugation oracle goes through exp."""
    out = {}
    power = omega
    for i in range(1, top + 1):
        if i > 1:
            power = power * omega
        if not power:
            break
        vect_acc(out, power.words, frac(1, math.factorial(i)))
    return out


# ---------------------------------------------------------------------------
# the structures
# ---------------------------------------------------------------------------

class LinfAlgebra:
    """Module + degree-1 coderivation Q on S(module[1]), meant to square to zero.

    The constructor does not decide Q∘Q = 0: from_dgla(check=True) decides it
    through dgla_check, and check_square_zero() decides it for any structure.
    W, unbounded by default, is kept only for callers that pass it (a
    morphism's W is its source's); no operator or check reads it.
    """

    def __init__(self, module: GradedBasisModule, taylor: TaylorSeq, W=math.inf):
        self.module = module
        self.shifted = taylor.source
        if self.shifted.gens != module.shifted().gens:
            raise ValueError("taylor sequence does not live on the shifted module")
        self.taylor = taylor
        self.W = W
        self.Q = coder_from_taylor(taylor)
        self._d_table = None
        self._bracket_table = None

    @classmethod
    def from_dgla(cls, module, d_table, bracket_table, W=math.inf, check=True):
        d_table = {module.index[k] if isinstance(k, str) else k: _as_vect(module, v)
                   for k, v in d_table.items()}
        bracket_table = complete_bracket(module, bracket_table)
        if check:
            rep = dgla_check(module, d_table, bracket_table)
            if not rep.ok:
                v = rep.violations[0]
                raise ValueError(f"DGLA axioms fail: {v['axiom']} at {v['witness']}")
        T = taylor_from_dgla(module, d_table, bracket_table)
        alg = cls(module, T, W)
        alg._d_table = d_table
        alg._bracket_table = bracket_table
        return alg

    @classmethod
    def abelian(cls, module, W=math.inf):
        return cls.from_dgla(module, {}, {}, W)

    @property
    def is_dgla(self):
        return self.taylor.max_j() <= 2

    def dgla_tables(self):
        if self._d_table is None or self._bracket_table is None:
            if not self.is_dgla:
                raise ValueError("higher Taylor coefficients present")
            self._d_table, self._bracket_table = dgla_tables_from_taylor(
                self.module, self.taylor)
        return self._d_table, self._bracket_table

    def d_of(self, v):
        d_table, _ = self.dgla_tables()
        out = {}
        for i, c in v.items():
            vect_acc(out, d_table.get(i, {}), c)
        return out

    def bracket_of(self, v, w):
        _, bracket = self.dgla_tables()
        out = {}
        for i, c in v.items():
            for j, c2 in w.items():
                vect_acc(out, bracket.get((i, j), {}), c * c2)
        return out

    def check_square_zero(self) -> ValidationReport:
        """π₁Q(Q(word)) = 0 on the canonical words up to 2·top − 1,
        stopping at the first word that fails, which is the one witness.

        With top = taylor.max_j(), π₁∘Q∘Q on an order-k word is a sum of
        Q_j(Q_i(...)) with i, j <= top and k = i + j − 1, so it vanishes for
        k > 2·top − 1; Q∘Q is zero iff this corestriction is, and the first
        word where it is not is the first word where Q∘Q is not.
        """
        rep = ValidationReport()
        order = max(1, 2 * self.taylor.max_j() - 1)
        for w in self.shifted.words_up_to(order):
            if _corestriction(self.taylor, self.Q.column(w)):
                rep.add("square_zero", [self.shifted.gen_name(i) for i in w],
                        "Q(Q(word)) != 0")
                break
        return rep

    def lower_bound(self):
        return min((d for _, d in self.module.gens), default=0)

    def __repr__(self):
        return f"LinfAlgebra({self.module.name})"


class MCElement:
    """Degree-1 element with nilpotent coefficients and vanishing MC residue."""

    def __init__(self, ambient: LinfAlgebra, vect, check=True):
        self.ambient = ambient
        self.vect = _as_vect(ambient.module, vect)
        for i, c in self.vect.items():
            if ambient.module.degree(i) != 1:
                raise ValueError("MC elements are concentrated in degree 1")
            if not c.in_ideal():
                raise ValueError("MC elements need nilpotent coefficients")
        if check:
            r = mc_residue(ambient, self.vect)
            if r:
                raise ValueError(f"not a Maurer-Cartan element, residue {r}")

    def as_coalg(self) -> CoalgElem:
        return CoalgElem.from_vect(self.ambient.shifted, self.vect)

    def exp(self) -> CoalgElem:
        return exp(self.as_coalg())

    def __repr__(self):
        return f"MCElement({self.vect!r})"


class LinfMorphism:
    """Coalgebra morphism intertwining two L-infinity structures.

    With check=True the constructor raises ValueError, naming the first
    witness word, unless check_intertwines() passes.
    """

    def __init__(self, source: LinfAlgebra, target: LinfAlgebra, taylor: TaylorSeq,
                 check=True):
        if taylor.intent != "morphism":
            raise ValueError("need a morphism-intent TaylorSeq")
        self.source = source
        self.target = target
        self.taylor = taylor
        self.W = source.W  # the guard of source elements, for callers that read it
        self.psi = morph_from_taylor(taylor)
        if check:
            self.require_intertwines()

    @classmethod
    def strict(cls, source, target, f_table, check=True):
        """Morphism with only a first Taylor coefficient (a DGLA map)."""
        sh_s = source.shifted
        table = {}
        for k, v in f_table.items():
            i = source.module.index[k] if isinstance(k, str) else k
            table[(i,)] = _as_vect(target.module, v)
        T = TaylorSeq(sh_s, target.shifted, {1: table}, "morphism")
        return cls(source, target, T, check=check)

    @classmethod
    def identity(cls, algebra):
        table = {(i,): {i: algebra.module.coeff.one()}
                 for i in range(len(algebra.module))}
        T = TaylorSeq(algebra.shifted, algebra.shifted, {1: table}, "morphism")
        return cls(algebra, algebra, T, check=False)

    def check_order(self):
        """K = max(1, top_Psi + top_Q − 1, top_Q'·top_Psi): on an order-k word
        the corestriction of Psi∘Q is a sum of Psi_j(Q_i(...)) with
        k = i + j − 1, and that of Q'∘Psi a sum of Q'_j on j blocks of Psi_i's
        with k <= j·i, so both vanish for k > K."""
        top = self.taylor.max_j()
        return max(1, top + self.source.taylor.max_j() - 1,
                   self.target.taylor.max_j() * top)

    def check_intertwines(self) -> ValidationReport:
        """π₁Psi(Q(word)) = π₁Q'(Psi(word)) on the canonical words up to
        check_order(), stopping at the first word that fails, which is the one
        witness.

        Psi∘Q − Q'∘Psi is a coderivation along Psi, zero iff its
        corestriction is, and the first word where the corestrictions differ
        is the first word where the two sides do.
        """
        rep = ValidationReport()
        sh = self.source.shifted
        for w in sh.words_up_to(self.check_order()):
            if (_corestriction(self.taylor, self.source.Q.column(w))
                    != _corestriction(self.target.taylor, self.psi.column(w))):
                rep.add("intertwine", [sh.gen_name(i) for i in w],
                        "Psi∘Q != Q'∘Psi")
                break
        return rep

    def require_intertwines(self):
        """Raise ValueError with the first witness unless check_intertwines() passes."""
        rep = self.check_intertwines()
        if not rep.ok:
            raise ValueError(
                f"not an L-infinity morphism: witness {rep.violations[0]['witness']}")

    def is_strict(self):
        return self.taylor.max_j() <= 1

    def __repr__(self):
        return f"LinfMorphism({self.source.module.name} -> {self.target.module.name})"


# ---------------------------------------------------------------------------
# Maurer-Cartan machinery
# ---------------------------------------------------------------------------

def mc_residue(algebra: LinfAlgebra, omega) -> dict:
    """sum_i 1/i! (d^i Q)(omega^i); zero iff omega is Maurer-Cartan."""
    omega = _as_vect(algebra.module, omega)
    for i, c in omega.items():
        if algebra.module.degree(i) != 1:
            raise ValueError("the MC equation lives in degree 1")
        if not c.in_ideal():
            raise ValueError("MC residue needs nilpotent coefficients")
    om = CoalgElem.from_vect(algebra.shifted, omega)
    return _corestriction(algebra.taylor, _scaled_powers(om, algebra.taylor.max_j()))


def mc_residue_dgla(algebra: LinfAlgebra, omega) -> dict:
    """Closed form d(w) + 1/2 [w,w] (independent path for DGLA provenance)."""
    omega = _as_vect(algebra.module, omega)
    return vect_acc(algebra.d_of(omega), algebra.bracket_of(omega, omega), frac(1, 2))


def mc_push(psi: LinfMorphism, omega: MCElement) -> MCElement:
    """Pushforward sum_i 1/i! (d^i Psi)(omega^i); MC in the target (asserted)."""
    if omega.ambient is not psi.source:
        raise ValueError("omega does not live in the morphism source")
    om = omega.as_coalg()
    v = _corestriction(psi.taylor, _scaled_powers(om, psi.taylor.max_j()))
    return MCElement(psi.target, v, check=True)


def twist_taylor(taylor: TaylorSeq, omega_elem: CoalgElem) -> TaylorSeq:
    """Taylor coefficients of the twist: (d^i T_w)(c) = sum_j 1/j! d^{i+j}T(w^j c).

    The table is validated: omega may come from input unchecked, and an entry
    off degree 1 gives values of the wrong degree, a ValueError here.
    """
    module = taylor.source
    powers = _scaled_powers(omega_elem, taylor.max_j())
    maps = {}
    for i in range(1, taylor.max_j() + 1):
        tab = {}
        for w in module.words(i):
            v = vect_acc(taylor.eval_word(w), _corestriction(taylor, powers, w))
            if v:
                tab[w] = v
        if tab:
            maps[i] = tab
    return TaylorSeq(module, taylor.target, maps, taylor.intent)


def twist_coder(algebra: LinfAlgebra, omega, allow_non_mc=False) -> LinfAlgebra:
    """Twist of the L-infinity structure by omega, which must be Maurer-Cartan
    unless allow_non_mc is set.  The result is not checked."""
    if isinstance(omega, MCElement):
        om_vect = omega.vect
    else:
        om_vect = _as_vect(algebra.module, omega)
        if not allow_non_mc:
            MCElement(algebra, om_vect, check=True)
    T = twist_taylor(algebra.taylor, CoalgElem.from_vect(algebra.shifted, om_vect))
    return LinfAlgebra(algebra.module, T)


def twist_morphism(psi: LinfMorphism, omega: MCElement, twisted_source=None) -> LinfMorphism:
    """Twist of a morphism by a Maurer-Cartan element of its source.

    Neither the result nor its twisted ends are checked: check_square_zero()
    on the ends and check_intertwines() are the caller's to run.
    """
    omega_t = mc_push(psi, omega)
    src = twisted_source if twisted_source is not None else twist_coder(psi.source, omega)
    tgt = twist_coder(psi.target, omega_t)
    T = twist_taylor(psi.taylor, omega.as_coalg())
    return LinfMorphism(src, tgt, T, check=False)


def _conjugated(op, om_source, om_target) -> CoalgOperator:
    """exp(-om_target) * op(exp(om_source) * word) per column."""
    src, tgt = op.source, op.target
    e = exp(CoalgElem.from_vect(src, om_source))
    e_inv = exp(CoalgElem.from_vect(tgt, vect_scale(om_target, -1)))
    one = src.coeff.one()

    def column(w):
        return (e_inv * op(e * CoalgElem(src, {w: one}))).words

    return CoalgOperator(src, tgt, op.degree, column)


def conjugation_twist(algebra: LinfAlgebra, omega) -> CoalgOperator:
    """The twist built the other way: Phi_e^{-1} ∘ Q ∘ Phi_e with Phi_e(x) = exp(w) x.

    The final values agree with the Taylor-formula twist word for word.
    """
    if isinstance(omega, MCElement):
        om_vect = omega.vect
    else:
        om_vect = _as_vect(algebra.module, omega)
    return _conjugated(algebra.Q, om_vect, om_vect)


def conjugation_twist_morphism(psi: LinfMorphism, omega: MCElement) -> CoalgOperator:
    """Phi_{e'}^{-1} ∘ Psi ∘ Phi_e, the conjugation route for morphisms."""
    return _conjugated(psi.psi, omega.vect, mc_push(psi, omega).vect)


def operators_agree(op1, op2, module, max_order) -> ValidationReport:
    """Column-for-column comparison of two operators on the canonical basis."""
    rep = ValidationReport()
    for w in module.words_up_to(max_order):
        if op1.column(w) != op2.column(w):
            rep.add("operator_mismatch", [module.gen_name(i) for i in w], "")
    return rep


# ---------------------------------------------------------------------------
# the explicit DGLA-morphism identity (evaluated from a frozen sign rule)
# ---------------------------------------------------------------------------

def identity_sign_data(shifted_degrees):
    """Per-term signs of the explicit identity, from the letters' shifted degrees.

    Returns a dict with the three structured sums: internal-d terms (one per
    position), bracket-target terms (one per 2-block partition, first block
    containing position 0), and bracket-source terms (one per position pair).
    All signs are pure functions of the degree pattern; the regression suite
    freezes their values on a spanning set.
    """
    s = list(shifted_degrees)
    i = len(s)
    data = {"internal_d": [], "bracket_target": [], "bracket_source": []}
    for k in range(i):
        sign = ksign(s[k] * sum(s[:k]))
        data["internal_d"].append((k, sign))
    for r in range(1, i):
        for rest in itertools.combinations(range(1, i), r):
            B = tuple(p for p in range(i) if p not in set(rest))
            split = split_sign_pattern(s, B)
            decal = ksign(sum(s[p] for p in B))
            data["bracket_target"].append((B, rest, split * decal))
    for k in range(i):
        for l in range(k + 1, i):
            split = split_sign_pattern(s, (k, l))
            decal = ksign(s[k])
            data["bracket_source"].append((k, l, split * decal))
    return data


def split_sign_pattern(sdegs, positions):
    sel = set(positions)
    sign = 1
    for j in positions:
        for i2 in range(j):
            if i2 not in sel:
                sign *= ksign(sdegs[i2] * sdegs[j])
    return sign


def explicit_identity_residual(psi_taylor: TaylorSeq, source: LinfAlgebra,
                               target: LinfAlgebra, word) -> dict:
    """Evaluate the explicit DGLA-morphism identity on a canonical word.

    Computes  d'(psi_i(w)) + sum_{2-blocks} ±[psi(B), psi(B^c)]
             - sum_k ± psi_i(d(g_k)·rest) - sum_{k<l} ± psi_{i-1}([g_k,g_l]·rest)
    directly from the DGLA tables; the coalgebra computation
    ln∘(Q'∘Psi − Psi∘Q) is the independent normative path it must match.
    """
    sh = source.shifted
    letters = tuple(word)
    sdegs = tuple(sh.degree(i) for i in letters)
    signs = identity_sign_data(sdegs)
    C = source.module.coeff

    def psi_on_vects(vs):
        return psi_taylor.eval_elements(vs)

    unit_vect = [{i: C.one()} for i in letters]

    # d'(psi_i(w))
    out = target.d_of(psi_taylor.eval_word(letters))

    # bracket-target terms
    for B, rest, sign in signs["bracket_target"]:
        vb = psi_on_vects([unit_vect[p] for p in B])
        vc = psi_on_vects([unit_vect[p] for p in rest])
        if not vb or not vc:
            continue
        vect_acc(out, target.bracket_of(vb, vc), sign)

    # internal-d terms (subtracted)
    for k, sign in signs["internal_d"]:
        dv = source.d_of({letters[k]: C.one()})
        if not dv:
            continue
        args = [dv] + [unit_vect[p] for p in range(len(letters)) if p != k]
        vect_acc(out, psi_on_vects(args), -sign)

    # bracket-source terms (subtracted)
    for k, l, sign in signs["bracket_source"]:
        bv = source.bracket_of({letters[k]: C.one()}, {letters[l]: C.one()})
        if not bv:
            continue
        args = [bv] + [unit_vect[p] for p in range(len(letters)) if p not in (k, l)]
        vect_acc(out, psi_on_vects(args), -sign)

    return out


def coalgebra_identity_residual(psi_taylor: TaylorSeq, source: LinfAlgebra,
                                target: LinfAlgebra, word) -> dict:
    """ln((Q'∘Psi − Psi∘Q)(word)) through the full coalgebra operators."""
    psi = morph_from_taylor(psi_taylor)
    x = CoalgElem(source.shifted, {tuple(word): source.module.coeff.one()})
    lhs = target.Q(psi(x)).ln()
    rhs = psi(source.Q(x)).ln()
    return vect_acc(lhs, rhs, -1)


def linf_identity_check(psi_taylor: TaylorSeq, source: LinfAlgebra,
                        target: LinfAlgebra, words) -> ValidationReport:
    """Both identity paths must agree on every sample word (DGLA endpoints)."""
    rep = ValidationReport()
    for w in words:
        a = explicit_identity_residual(psi_taylor, source, target, w)
        b = coalgebra_identity_residual(psi_taylor, source, target, w)
        if vect_acc(a, b, -1):
            rep.add("identity_paths", [source.shifted.gen_name(i) for i in w],
                    "explicit identity disagrees with the coalgebra computation")
    return rep


# ---------------------------------------------------------------------------
# A-multilinear extension and the degree-count bound
# ---------------------------------------------------------------------------

def tensor_module(A: CoeffDGA, module: GradedBasisModule):
    """A x g with paired basis and added degrees (coefficients stay over C)."""
    gens = []
    pairs = []
    for ai in range(len(A)):
        for gi in range(len(module)):
            nm = module.gen_name(gi) if ai == A.unit_index \
                else f"{A.basis[ai]}|{module.gen_name(gi)}"
            gens.append((nm, A.degrees[ai] + module.degree(gi)))
            pairs.append((ai, gi))
    tm = GradedBasisModule(f"{A.basis}x{module.name}", gens, module.coeff)
    return tm, pairs


def tensor_dgla(A: CoeffDGA, algebra: LinfAlgebra, W=math.inf, check=True):
    """The tensor DG Lie algebra A x g with the Koszul-sign structure maps."""
    if not algebra.is_dgla:
        raise ValueError("tensor extension implemented for DGLA provenance")
    module = algebra.module
    d_table, bracket = algebra.dgla_tables()
    tm, pairs = tensor_module(A, module)
    pair_index = {p: i for i, p in enumerate(pairs)}
    C = module.coeff

    def embed(ai, gvect):
        return {pair_index[(ai, gi)]: c for gi, c in gvect.items()}

    td = {}
    for idx, (ai, gi) in enumerate(pairs):
        out = {}
        # d_A part
        for ai2, q in A.diff.get(ai, {}).items():
            _acc(out, pair_index[(ai2, gi)], C.scalar(q))
        # (-1)^{deg a} a x d_g part
        vect_acc(out, embed(ai, d_table.get(gi, {})), ksign(A.degrees[ai]))
        if out:
            td[idx] = out

    # the letters (a2, g2) with [g1, g2] nonzero, in letter order, by g1
    partners = [[i2 for i2, (_, g2) in enumerate(pairs) if bracket.get((g1, g2))]
                for g1 in range(len(module))]
    tb = {}
    for i1, (a1, g1) in enumerate(pairs):
        for i2 in partners[g1]:
            a2, g2 = pairs[i2]
            br = bracket[(g1, g2)]
            sgn = ksign(A.degrees[a2] * module.degree(g1))
            out = {}
            for ak, q in A.mul_basis(a1, a2).items():
                vect_acc(out, embed(ak, br), sgn * q)
            if out:
                tb[(i1, i2)] = out

    alg = LinfAlgebra.from_dgla(tm, td, tb, W, check=check)
    alg.tensor_pairs = pairs
    alg.tensor_factor = A
    return alg


def extend_multilinear(psi: LinfMorphism, A: CoeffDGA, W=math.inf,
                       check=True) -> LinfMorphism:
    """A-multilinear extension of a morphism between DGLAs over the base field.

    The j-th extended coefficient sends (a_1 g_1)...(a_j g_j) to
    ± a_1...a_j x (d^j Psi)(g_1...g_j), the sign moving each a_k left past the
    suspended g_1..g_{k-1}.  The walk emits canonical words with nonzero
    values, homogeneous when A passes dga_check, so the table is not re-validated.
    """
    if not psi.source.module.coeff.is_rational_field:
        raise ValueError("extension starts from a morphism over the base field")
    src_ext = tensor_dgla(A, psi.source, W, check=check)
    tgt_ext = tensor_dgla(A, psi.target, W, check=check)
    s_pairs = src_ext.tensor_pairs
    t_pair_index = {p: i for i, p in enumerate(tgt_ext.tensor_pairs)}
    sh_src = src_ext.shifted
    g_deg = psi.source.module.degree
    g_range = range(len(psi.source.module))
    taylor = psi.taylor
    top = taylor.max_j()
    # every sorted g-multiset that is part of a word with a Taylor value
    wanted = {sub for table in taylor.maps.values() for cw in table
              for k in range(1, len(cw) + 1) for sub in itertools.combinations(cw, k)}
    values = {}   # eval_word by g-part, shared by words with other a-parts

    tabs = {j: {} for j in taylor.maps}
    # Depth-first over the canonical words, each order in words(j) order (the
    # children of a prefix are pushed largest letter first).  A stack entry is
    # (word, g-part, a_1...a_k in A, Koszul sign, suspended degrees crossed);
    # each a_k crosses the suspended g_1..g_{k-1}.  A prefix is dropped when
    # its product is zero (right multiplication keeps it zero) or no Taylor
    # word contains its g-multiset (every extension then evaluates to {}).
    # The stack is explicit: a recursive closure would be a reference cycle
    # left to the garbage collector on every call.
    stack = [((), (), {A.unit_index: 1}, 1, 0)]
    while stack:
        w, g_part, prod, sign, crossing = stack.pop()
        tab = tabs.get(len(w))
        if tab is not None:
            base = values.get(g_part)
            if base is None:
                base = values[g_part] = taylor.eval_word(g_part)
            # (ares, gi) -> key is one-to-one, so no two terms share a key
            if base:
                tab[w] = {t_pair_index[(ares, gi)]: c.scale(q * sign)
                          for ares, q in prod.items() for gi, c in base.items()}
        if len(w) == top:
            continue
        first = w[-1] if w else 0
        grows = [tuple(sorted(g_part + (g,))) in wanted for g in g_range]
        for i in range(len(s_pairs) - 1, first - 1, -1):
            if i == first and w and sh_src.degree(i) % 2:
                continue  # a repeated odd letter kills the word
            a, g = s_pairs[i]
            if not grows[g]:
                continue
            nxt = {}
            for cur, q in prod.items():
                for res, q2 in A.mul_basis(cur, a).items():
                    _acc(nxt, res, q * q2)
            if nxt:
                stack.append((w + (i,), g_part + (g,), nxt,
                              sign * ksign(A.degrees[a] * crossing),
                              crossing + g_deg(g) - 1))
    maps = {j: tab for j, tab in tabs.items() if tab}
    T = _taylor(sh_src, tgt_ext.shifted, maps, "morphism")
    return LinfMorphism(src_ext, tgt_ext, T, check=False)


def finiteness_bound(j, word_degrees, r0):
    """k0 with (d^{j+k} Psi_A)(w^k c) = 0 for all k > k0, by degree count."""
    p = sum(word_degrees)
    return max(0, p + 1 - j - r0)

