import contextlib
import gc
import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from linfty.coalg import (CoalgElem, CoalgOperator, GradedBasisModule,
                          OrderOverflowError, TaylorSeq, _splits, canon_word,
                          check_coderivation, check_comorphism, coder_from_taylor, exp,
                          is_grouplike, is_invertible, is_primitive, ln,
                          morph_from_taylor, pi_tilde, tau, taylor_of,
                          tensor_comult, vect_add, word_degree)
from linfty import jsonio, samples
from linfty.cli import run
from linfty.linf import LinfAlgebra, LinfMorphism, conjugation_twist
from linfty.poly import Poly
from linfty.polyvec import PolyVec, schouten, wedge
from linfty.scalars import make_truncated_poly_dga, rational_field
from reference_checks import reference_canon, reference_morph_column

W = 4


@pytest.fixture
def C():
    return make_truncated_poly_dga([0], 3)


@pytest.fixture
def module(C):
    # two even letters, one odd, one negative: exercises every sign path
    return GradedBasisModule("g", [("a", 0), ("b", 0), ("c", 1), ("e", -1)], C)


def rand_vect(rng, module, degree):
    out = {}
    for i in range(len(module)):
        if module.degree(i) == degree and rng.random() < 0.7:
            q = Fraction(rng.randint(-2, 2))
            c = module.coeff.basis_elem(rng.randint(0, 2)).scale(q)
            if c:
                out[i] = c
    return out


def rand_taylor(rng, module, intent, max_j):
    shift = 1 if intent == "coderivation" else 0
    maps = {}
    for j in range(1, max_j + 1):
        tab = {}
        for w in module.words(j):
            v = rand_vect(rng, module, word_degree(module, w) + shift)
            if v:
                tab[w] = v
        if tab:
            maps[j] = tab
    return TaylorSeq(module, module, maps, intent)


class TestComult:
    def test_unit(self, module, C):
        one = CoalgElem.unit(module, W)
        assert one.comult() == {((), ()): C.one()}

    def test_generator_is_primitive_formula(self, module, C):
        ga = CoalgElem.generator(module, "a", W)
        assert ga.comult() == {((0,), ()): C.one(), ((), (0,)): C.one()}

    def test_product_of_primitives(self, module, C):
        ga = CoalgElem.generator(module, "a", W)
        gc = CoalgElem.generator(module, "c", W)
        d = (ga * gc).comult()
        # cross terms carry the Koszul sign of moving c past a (even*odd: +)
        assert d[((0,), (2,))] == C.one()
        assert d[((2,), (0,))] == C.one()
        assert d[((0, 2), ())] == C.one() and d[((), (0, 2))] == C.one()

    def test_order_preserved(self, module):
        x = CoalgElem.generator(module, "a", W) * CoalgElem.generator(module, "b", W)
        for (w1, w2), _ in x.comult().items():
            assert len(w1) + len(w2) == 2

    @given(st.lists(st.integers(-2, 3), min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_splits_are_the_unshuffles_with_their_inversion_signs(self, degrees):
        # each subset of positions once, by increasing order, with (-1) to the
        # number of odd letters of the subset that pass an odd letter of the rest
        module = GradedBasisModule("m", [(f"g{i}", d) for i, d in enumerate(degrees)])
        for w in module.words_up_to(5):
            want = []
            for r in range(len(w) + 1):
                for left in itertools.combinations(range(len(w)), r):
                    right = [i for i in range(len(w)) if i not in left]
                    passes = sum(degrees[w[i]] * degrees[w[j]] % 2
                                 for j in left for i in right if i < j)
                    want.append((tuple(w[j] for j in left), tuple(w[i] for i in right),
                                 (-1) ** passes))
            assert list(_splits(module, w)) == want

    def test_odd_square_dies(self, module):
        gc = CoalgElem.generator(module, "c", W)
        assert (gc * gc).is_zero()

    def test_order_overflow_is_loud(self, module, C):
        with pytest.raises(OrderOverflowError):
            CoalgElem(module, {(0, 0, 0): C.one()}, 2)


class TestSymmetrization:
    def test_tau_single_letter(self, module, C):
        ga = CoalgElem.generator(module, "a", W)
        assert tau(ga) == {(0,): C.one()}

    def test_tau_two_letters_with_sign(self, module, C):
        x = CoalgElem(module, {(2, 3): C.one()}, W)  # c (odd) * e (odd)
        t = tau(x)
        assert t == {(2, 3): C.one(), (3, 2): -C.one()}

    def test_symmetrization_is_coalgebra_iso_exhaustive(self, module, C):
        # tau is a coalgebra morphism onto the invariants and pi_tilde inverts it
        for w in module.words_up_to(4):
            x = CoalgElem(module, {w: C.one()}, W)
            assert pi_tilde(module, tau(x)) == x
            lhs = {}
            for (w1, w2), c in x.comult().items():
                for v1, c1 in tau(CoalgElem(module, {w1: C.one()}, W)).items():
                    for v2, c2 in tau(CoalgElem(module, {w2: C.one()}, W)).items():
                        key = (v1, v2)
                        add = c * c1 * c2
                        prev = lhs.get(key)
                        s = add if prev is None else prev + add
                        if s:
                            lhs[key] = s
                        else:
                            lhs.pop(key, None)
            assert lhs == tensor_comult(tau(x))

    def test_pi_tilde_tau_random_words(self, module, C):
        rng = random.Random(17)
        for _ in range(100):
            words = {}
            for _ in range(rng.randint(1, 3)):
                j = rng.randint(0, 4)
                w = tuple(sorted(rng.choices(range(len(module)), k=j)))
                q = Fraction(rng.randint(-2, 2))
                if q:
                    words[w] = C.scalar(q)
            try:
                x = CoalgElem(module, words, W)
            except OrderOverflowError:
                continue
            assert pi_tilde(module, tau(x)) == x


class TestCoderivations:
    def test_leibniz_on_two_letters(self, module, C):
        d_table = {1: {(0,): {2: C.one()}}}  # d(a) = c
        T = TaylorSeq(module, module, d_table, "coderivation")
        Q = coder_from_taylor(T)
        ga, gb = CoalgElem.generator(module, "a", W), CoalgElem.generator(module, "b", W)
        gc = CoalgElem.generator(module, "c", W)
        assert Q(ga * gb) == gc * gb
        assert Q(CoalgElem.unit(module, W)).is_zero()

    def test_pair_taylor_expansion(self, module, C):
        rng = random.Random(23)
        T = rand_taylor(rng, module, "coderivation", 2)
        Q = coder_from_taylor(T)
        # on a three-letter word the order-2 part acts through every pair
        w = (0, 0, 1)
        got = Q(CoalgElem(module, {w: C.one()}, W))
        manual = CoalgElem.zero(module, W)
        for positions in itertools.combinations(range(3), 2):
            sub = tuple(w[i] for i in positions)
            rest = tuple(w[i] for i in range(3) if i not in positions)
            val = T.eval_word(sub)
            for g, c in val.items():
                manual = manual + CoalgElem(module, {(g,) + rest: c}, W)
        for positions in [(0,), (1,), (2,)]:
            sub = (w[positions[0]],)
            rest = tuple(w[i] for i in range(3) if i != positions[0])
            for g, c in T.eval_word(sub).items():
                manual = manual + CoalgElem(module, {(g,) + rest: c}, W)
        assert got == manual  # even letters: no signs anywhere

    def test_axioms_and_roundtrip_random(self, module):
        rng = random.Random(29)
        for _ in range(8):
            T = rand_taylor(rng, module, "coderivation", 3)
            Q = coder_from_taylor(T)
            assert check_coderivation(Q, 4).ok
            for j, tab in T.maps.items():
                assert taylor_of(Q, j) == tab

    def test_uniqueness(self, module, C):
        rng = random.Random(31)
        T = rand_taylor(rng, module, "coderivation", 3)
        Q1 = coder_from_taylor(T)
        Q2 = coder_from_taylor(TaylorSeq(module, module, T.maps, "coderivation"))
        for w in module.words_up_to(W):
            x = CoalgElem(module, {w: C.one()}, W)
            assert Q1(x) == Q2(x)

    def test_corrupted_operator_fails_with_witness(self, module, C):
        rng = random.Random(37)
        T = rand_taylor(rng, module, "coderivation", 2)
        Q = coder_from_taylor(T)

        def tampered(w):
            col = Q.column(w)
            return vect_add(col, {(0, 0): C.one()}) if len(w) == 2 else col

        rep = check_coderivation(CoalgOperator(module, module, 1, tampered), 3)
        assert not rep.ok
        assert rep.violations[0]["witness"]


class TestMorphisms:
    def test_strict_is_multiplicative(self, module, C):
        table = {(i,): {i: C.one()} for i in range(len(module))}
        table[(0,)] = {1: C.one()}  # a -> b
        T = TaylorSeq(module, module, {1: table}, "morphism")
        Psi = morph_from_taylor(T)
        ga = CoalgElem.generator(module, "a", W)
        gc = CoalgElem.generator(module, "c", W)
        gb = CoalgElem.generator(module, "b", W)
        assert Psi(ga * gc) == gb * gc
        assert Psi(CoalgElem.unit(module, W)) == CoalgElem.unit(module, W)

    def test_axioms_and_roundtrip_random(self, module):
        rng = random.Random(41)
        for _ in range(8):
            T = rand_taylor(rng, module, "morphism", 3)
            Psi = morph_from_taylor(T)
            assert check_comorphism(Psi, 4).ok
            for j, tab in T.maps.items():
                assert taylor_of(Psi, j) == tab

    def test_fifty_random_taylor_sequences_pass_axioms(self, module):
        rng = random.Random(47)
        for _ in range(50):
            T = rand_taylor(rng, module, "morphism", rng.randint(1, 3))
            assert check_comorphism(morph_from_taylor(T), 3).ok

    def test_composition_is_morphism(self, module):
        rng = random.Random(43)
        P1 = morph_from_taylor(rand_taylor(rng, module, "morphism", 2))
        P2 = morph_from_taylor(rand_taylor(rng, module, "morphism", 2))

        def column(w):  # P1 after P2
            return P1(CoalgElem(module, P2.column(w), W)).words

        assert check_comorphism(CoalgOperator(module, module, 0, column), 3).ok

    def test_morphism_uniqueness(self, module, C):
        rng = random.Random(53)
        T = rand_taylor(rng, module, "morphism", 3)
        P1 = morph_from_taylor(T)
        P2 = morph_from_taylor(TaylorSeq(module, module, T.maps, "morphism"))
        for w in module.words_up_to(W):
            x = CoalgElem(module, {w: C.one()}, W)
            assert P1(x) == P2(x)

    def test_taylor_of_identity(self, module, C):
        table = {(i,): {i: C.one()} for i in range(len(module))}
        ident = morph_from_taylor(TaylorSeq(module, module, {1: table}, "morphism"))
        assert taylor_of(ident, 1) == table
        assert taylor_of(ident, 2) == {}
        assert taylor_of(ident, 3) == {}

    @given(st.integers(0, 2 ** 32), st.booleans(),
           st.lists(st.integers(-1, 1), min_size=1, max_size=3),
           st.lists(st.integers(-1, 1), min_size=1, max_size=3), st.integers(1, 3))
    @example(seed=0, over_q=True, src_degs=[1, 1, 0], tgt_degs=[1, 0, 0], top=3)
    @example(seed=1, over_q=False, src_degs=[-1, 1], tgt_degs=[-1, 1, 0], top=2)
    @example(seed=2, over_q=False, src_degs=[0], tgt_degs=[0, 1], top=3)
    @settings(max_examples=40, deadline=None)
    def test_columns_are_the_partition_sum(self, seed, over_q, src_degs, tgt_degs, top):
        # the first-block recursion against the walk over every set partition,
        # with odd letters on both sides, so products repeat odd letters
        rng = random.Random(seed)
        C = rational_field() if over_q else C3
        src = GradedBasisModule("s", [(f"a{i}", d) for i, d in enumerate(src_degs)], C)
        tgt = GradedBasisModule("t", [(f"b{i}", d) for i, d in enumerate(tgt_degs)], C)
        maps = {}
        for j in range(1, top + 1):
            maps[j] = {w: {g: C.basis_elem(rng.randrange(len(C.basis))).scale(
                           Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2))))
                           for g in range(len(tgt)) if tgt.degree(g) == word_degree(src, w)}
                       for w in src.words(j) if rng.random() < 0.7}
        T = TaylorSeq(src, tgt, maps, "morphism")
        Psi = morph_from_taylor(T)
        for w in src.words_up_to(5):
            assert Psi.column(w) == reference_morph_column(T, w), w

    def test_column_reads_few_taylor_values(self, monkeypatch):
        # Psi_4(a^4) = y: the column of a^9 reads its values block by block,
        # where the partition sum visits 21,147 partitions
        QQ = rational_field()
        src = GradedBasisModule("s", [("a", 0)], QQ)
        tgt = GradedBasisModule("t", [("y", 0), ("z", 1)], QQ)
        T = TaylorSeq(src, tgt, {4: {(0,) * 4: {0: QQ.one()}}}, "morphism")
        reads = []
        eval_word = TaylorSeq.eval_word

        def counted(self, word):
            reads.append(word)
            return eval_word(self, word)

        monkeypatch.setattr(TaylorSeq, "eval_word", counted)
        col = morph_from_taylor(T).column((0,) * 9)
        assert col == {} and len(reads) < 500
        assert morph_from_taylor(T).column((0,) * 8) == {(0, 0): QQ.scalar(35)}


class TestExpLn:
    def test_h_squared_truncation(self):
        C2 = make_truncated_poly_dga([0], 2)
        m = GradedBasisModule("g", [("g1", 0)], C2)
        om = CoalgElem.generator(m, "g1", 3).scale(C2.gen("h"))
        e = exp(om)
        assert e == CoalgElem.unit(m, 3) + om

    def test_h_cubed(self, C):
        m = GradedBasisModule("g", [("g1", 0)], C)
        h = C.gen("h")
        om = CoalgElem.generator(m, "g1", 4).scale(h)
        e = exp(om)
        want = CoalgElem.unit(m, 4) + om + (om * om).scale(Fraction(1, 2))
        assert e == want
        assert is_grouplike(e)

    def test_exp_requires_nilpotent(self, module):
        with pytest.raises(ValueError, match="nilpotent"):
            exp(CoalgElem.generator(module, "a", W))

    def test_exp_requires_degree_zero(self, module, C):
        with pytest.raises(ValueError):
            exp(CoalgElem.generator(module, "c", W).scale(C.gen("h")))

    def test_exp_ln_bijection_lattice_exhaustive(self, C):
        # exp and ln are mutually inverse between nilpotent degree-0 elements
        # and invertible group-likes, over the lattice {0,±1,±1/2}·h^k
        m = GradedBasisModule("g", [("g1", 0), ("g2", 0)], C)
        h = C.gen("h")
        lattice = [C.zero()]
        for q in (1, -1, Fraction(1, 2), Fraction(-1, 2)):
            for k in (1, 2):
                lattice.append((h if k == 1 else h * h).scale(q))
        count = 0
        for c1 in lattice:
            for c2 in lattice:
                om = CoalgElem(m, {(0,): c1, (1,): c2}, 4)
                e = exp(om)
                assert is_grouplike(e) and is_invertible(e)
                assert ln(e) == om
                assert exp(ln(e)) == e
                count += 1
        assert count == len(lattice) ** 2

    def test_invertible_grouplikes_are_exponentials(self, C):
        # scan a one-generator lattice of candidates e = 1 + w + x
        m = GradedBasisModule("g", [("g1", 0)], C)
        h = C.gen("h")
        lattice = [C.zero()]
        for q in (1, -1, Fraction(1, 2), Fraction(-1, 2)):
            for k in (1, 2):
                lattice.append((h if k == 1 else h * h).scale(q))
        grouplikes = 0
        expected = sum(1 for c1 in lattice for c2 in lattice
                       if (c1 * c1).scale(Fraction(1, 2)) == c2)
        for c1 in lattice:
            for c2 in lattice:
                e = CoalgElem(m, {(): C.one(), (0,): c1, (0, 0): c2}, 4)
                if is_grouplike(e) and is_invertible(e):
                    grouplikes += 1
                    assert exp(ln(e)) == e
        # the group-likes in the scan are exactly the exponentials it contains
        assert grouplikes == expected == 7


class TestPrimitives:
    def test_primitives_are_exactly_order_one(self, module, C):
        # primitives are exactly the order-1 part, over the truncated basis
        for w in module.words_up_to(3):
            x = CoalgElem(module, {w: C.one()}, W)
            assert is_primitive(x) == (len(w) == 1)

    def test_unit_is_grouplike(self, module):
        one = CoalgElem.unit(module, W)
        assert is_grouplike(one) and not is_primitive(one)

    def test_mixed_sums(self, module, C):
        ga = CoalgElem.generator(module, "a", W)
        gc = CoalgElem.generator(module, "c", W)
        assert is_primitive(ga + gc.scale(Fraction(2)))
        assert not is_primitive(ga + ga * ga)


# ---------------------------------------------------------------------------
# results built without the public constructor, checked against it, over
# Q[h]/(h^3) with an odd letter, where products and repeated odd letters vanish
# ---------------------------------------------------------------------------

C3 = make_truncated_poly_dga([0], 3)
MOD = GradedBasisModule("g", [("a", 0), ("b", 0), ("c", 1), ("e", -1)], C3)
small_q = st.fractions(-2, 2, max_denominator=2)
coefficients = st.builds(lambda i, q: C3.basis_elem(i).scale(q), st.integers(0, 2), small_q)
elements = st.dictionaries(st.lists(st.integers(0, len(MOD) - 1), max_size=2).map(tuple),
                           coefficients, max_size=5).map(lambda d: CoalgElem(MOD, d, W))


def assert_canonical(x):
    """x equals its re-canonicalisation, holds no zero and fits its word cap."""
    assert CoalgElem(x.module, dict(x.words), x.W).words == x.words
    assert all(x.words.values())
    assert all(len(w) <= x.W for w in x.words)


def naive_sum(dicts):
    out = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if v}


class TestTrustedResults:
    @given(elements, elements, coefficients, small_q)
    @settings(max_examples=150)
    def test_element_arithmetic(self, x, y, c, q):
        minus_y = {w: -v for w, v in y.words.items()}
        by_c = naive_sum({w: c * v} for w, v in x.words.items())
        by_q = naive_sum({w: v.scale(q)} for w, v in x.words.items())
        for name, got, want in [("add", x + y, naive_sum([x.words, y.words])),
                                ("sub", x - y, naive_sum([x.words, minus_y])),
                                ("neg", -y, minus_y),
                                ("mul", x * y, None),
                                ("scale by a nilpotent", x.scale(c), by_c),
                                ("scale by a rational", x.scale(q), by_q)]:
            assert_canonical(got)
            assert want is None or got.words == want, name

    @given(elements)
    @settings(max_examples=100)
    def test_comult(self, x):
        got = x.comult()
        assert all(got.values())
        for left, right in got:
            assert canon_word(MOD, left) == (1, left) and canon_word(MOD, right) == (1, right)
        assert got == naive_sum(CoalgElem(MOD, {w: c}, W).comult() for w, c in x.words.items())

    @given(st.integers(0, 2 ** 32), elements)
    @settings(max_examples=60)
    def test_operators(self, seed, x):
        rng = random.Random(seed)
        for op in (coder_from_taylor(rand_taylor(rng, MOD, "coderivation", 2)),
                   morph_from_taylor(rand_taylor(rng, MOD, "morphism", 2))):
            got = op(x)
            assert_canonical(got)
            assert got.words == naive_sum(op(CoalgElem(MOD, {w: c}, W)).words
                                          for w, c in x.words.items())

    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=100)
    def test_polyvec_add_and_wedge(self, seed):
        rng = random.Random(seed)
        n = 3

        def rand_polyvec():
            terms = {}
            for _ in range(rng.randint(0, 3)):
                word = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, 2))))
                exps = tuple(rng.randint(0, 1) for _ in range(n))
                c = C3.basis_elem(rng.randint(0, 2)).scale(rng.choice([-1, 1, 2]))
                terms[word] = Poly(n, {exps: c}, alg=C3)
            return PolyVec(n, terms, C3)

        a, b = rand_polyvec(), rand_polyvec()
        for got in (a + b, a + (-a), wedge(a, b), wedge(a, a), schouten(a, b)):
            assert PolyVec(n, dict(got.terms), C3).terms == got.terms
            assert all(got.terms.values())
            assert all(len(w) <= n for w in got.terms)
        want = PolyVec.zero(n, C3)
        for w1, f1 in a.terms.items():
            for w2, f2 in b.terms.items():
                want = want + schouten(PolyVec(n, {w1: f1}, C3), PolyVec(n, {w2: f2}, C3))
        assert schouten(a, b) == want

    @given(st.dictionaries(st.sampled_from([MOD.index["a"], MOD.index["b"]]),
                           st.builds(lambda i, q: C3.basis_elem(i).scale(q),
                                     st.integers(1, 2), small_q), max_size=2))
    @settings(max_examples=60)
    def test_exp(self, vect):
        omega = CoalgElem.from_vect(MOD, vect, W)
        got = exp(omega)
        assert_canonical(got)
        powers, power = [{(): C3.one()}], CoalgElem.unit(MOD, W)
        for i in range(1, W + 1):
            power = power * omega
            powers.append(power.scale(Fraction(1, math.factorial(i))).words)
        assert got.words == naive_sum(powers)


# ---------------------------------------------------------------------------
# operators are their columns: the one linear extension, checked by hand
# ---------------------------------------------------------------------------

# shifted letters x (odd), y, z (even); d x = y, [x, y] = y, [x, z] = z
TWIST_ALG = LinfAlgebra.from_dgla(
    GradedBasisModule("g", [("x", 0), ("y", 1), ("z", 1)], C3),
    {"x": {"y": 1}}, {("x", "y"): {"y": 1}, ("x", "z"): {"z": 1}})
multi_words = st.dictionaries(st.lists(st.integers(0, len(MOD) - 1), max_size=3).map(tuple),
                              coefficients, min_size=2, max_size=5)
twist_words = st.dictionaries(st.lists(st.integers(0, 2), max_size=3).map(tuple),
                              coefficients, min_size=2, max_size=5)
nilpotent = st.builds(lambda i, q: C3.basis_elem(i).scale(q), st.integers(1, 2), small_q)


def by_columns(op, x):
    """The sum of c * column(w) over the words of x, term by term."""
    return naive_sum({v: c * cv} for w, c in x.words.items()
                     for v, cv in op.column(w).items())


class TestColumns:
    @given(st.integers(0, 2 ** 32), multi_words)
    @settings(max_examples=60)
    def test_taylor_operators_extend_their_columns(self, seed, words):
        rng = random.Random(seed)
        x = CoalgElem(MOD, words, W)
        for op in (coder_from_taylor(rand_taylor(rng, MOD, "coderivation", 3)),
                   morph_from_taylor(rand_taylor(rng, MOD, "morphism", 3))):
            got = op(x)
            assert_canonical(got)
            assert got.words == by_columns(op, x)

    @given(twist_words, nilpotent, nilpotent)
    @settings(max_examples=30, deadline=None)
    def test_conjugation_twist_extends_its_columns(self, words, cy, cz):
        op = conjugation_twist(TWIST_ALG, {"y": cy, "z": cz})
        x = CoalgElem(TWIST_ALG.shifted, words, W)
        assert op(x).words == by_columns(op, x)

    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=40)
    def test_columns_never_lengthen_words(self, seed):
        # an output word of coder_from_taylor or morph_from_taylor is never
        # longer than its input word
        rng = random.Random(seed)
        for op in (coder_from_taylor(rand_taylor(rng, MOD, "coderivation", 3)),
                   morph_from_taylor(rand_taylor(rng, MOD, "morphism", 3))):
            for w in MOD.words_up_to(W):
                col = op.column(w)
                assert all(col.values())
                assert all(canon_word(MOD, v) == (1, v) and len(v) <= len(w) for v in col)


# ---------------------------------------------------------------------------
# memos: canon_word per module, columns per operator
# ---------------------------------------------------------------------------

class TestMemos:
    @given(st.lists(st.integers(-2, 3), min_size=1, max_size=5).flatmap(
        lambda degs: st.tuples(st.just(degs), st.lists(
            st.lists(st.integers(0, len(degs) - 1), max_size=5).map(tuple), max_size=8))))
    @settings(max_examples=150)
    def test_canon_word_is_the_sort(self, case):
        degrees, words = case
        module = GradedBasisModule("m", [(f"g{i}", d) for i, d in enumerate(degrees)])
        orders = [p for letters in words for p in sorted(set(itertools.permutations(letters)))]
        for _ in range(2):  # a miss, then a hit
            for letters in orders:
                assert canon_word(module, letters) == reference_canon(degrees, letters)

    @given(st.integers(0, 2 ** 32), multi_words)
    @settings(max_examples=40)
    def test_a_result_is_not_the_memo(self, seed, words):
        rng = random.Random(seed)
        for x in (CoalgElem(MOD, words, W), CoalgElem(MOD, dict([next(iter(words.items()))]), W)):
            for op in (coder_from_taylor(rand_taylor(rng, MOD, "coderivation", 3)),
                       morph_from_taylor(rand_taylor(rng, MOD, "morphism", 3))):
                first = op(x)
                want = dict(first.words)
                first.words.clear()
                first.words[(0,)] = C3.one()
                assert op(x).words == want

    def test_each_column_is_built_once(self):
        # __call__, column and taylor_of all read the one memo
        rng = random.Random(61)
        for intent, make in (("coderivation", coder_from_taylor),
                             ("morphism", morph_from_taylor)):
            inner = make(rand_taylor(rng, MOD, intent, 3))
            built = []

            def build(w):
                built.append(w)
                return inner.column(w)

            op = CoalgOperator(MOD, MOD, inner.degree, build)
            x = CoalgElem(MOD, {w: C3.scalar(k + 1) for k, w in enumerate(MOD.words_up_to(2))},
                          W)
            for _ in range(2):
                op(x)
                for w in MOD.words_up_to(3):
                    op.column(w)
                for j in (1, 2, 3):
                    taylor_of(op, j)
            assert sorted(built) == sorted(MOD.words_up_to(3))

    def test_axiom_checks_read_columns(self, monkeypatch):
        # no element is built around a basis word to apply the operator to it
        rng = random.Random(67)
        Q = coder_from_taylor(rand_taylor(rng, MOD, "coderivation", 3))
        Psi = morph_from_taylor(rand_taylor(rng, MOD, "morphism", 3))
        inits = []
        init = CoalgElem.__init__

        def counted(self, *args, **kwargs):
            inits.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CoalgElem, "__init__", counted)
        assert check_coderivation(Q, 3).ok
        assert check_comorphism(Psi, 3).ok
        assert inits == []

    def test_twist_check_leaves_no_garbage(self, tmp_path):
        # the memos hang off their operator and module, with no reference back
        rng = random.Random(505)
        C = make_truncated_poly_dga([0], 4)
        paths = []
        for trial in range(12):
            alg = samples.sample_dgla(rng, C)
            om = samples.sample_mc(rng, alg)
            phi = samples.strict_base_change_morphism(rng, alg) if trial % 2 \
                else LinfMorphism.identity(alg)
            path = tmp_path / f"{trial}.json"
            path.write_text(json.dumps(jsonio.instance_to_json(alg, om.vect, phi)))
            paths.append(str(path))

        def twist_check(path):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return run(["twist-check", "--instance", path])

        assert twist_check(paths[0]) == 0  # the one-time parser and imports
        gc.collect()
        gc.disable()
        try:
            assert [twist_check(p) for p in paths] == [0] * len(paths)
            assert gc.collect() == 0
        finally:
            gc.enable()
