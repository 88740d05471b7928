import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linfty.poly import INF, Poly
from linfty.scalars import make_truncated_poly_dga


def t(i, n=2):
    return Poly.var(i, n)


@st.composite
def polys(draw, n=2, max_degree=3):
    terms = draw(st.lists(
        st.tuples(st.tuples(*([st.integers(0, max_degree)] * n)),
                  st.fractions(min_value=-50, max_value=50, max_denominator=10)),
        max_size=4))
    out = Poly.zero(n)
    for e, q in terms:
        if sum(e) <= max_degree and q:
            out = out + Poly.monomial(e, q)
    return out


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (t(1) + t(2)) * (t(1) - t(2)) == t(1) * t(1) - t(2) * t(2)

    def test_truncated_square(self):
        f = Poly(2, (Poly.one(2) + t(1)).terms, 3)
        g = f * f
        assert g == Poly(2, {(0, 0): 1, (1, 0): 2, (2, 0): 1}, 3)
        assert g.trunc == 3

    def test_zero_preserves_truncation(self):
        f = Poly(2, {(1, 0): 1}, 4)
        z = f * Poly.zero(2)
        assert z.is_zero() and z.trunc == 4

    def test_mixed_truncations_take_the_min(self):
        # the unknown tail of the shorter factor pollutes from its threshold on
        f = Poly(1, {(0,): 1, (1,): 1}, 3)
        g = Poly(1, {(0,): 1, (1,): 1}, 2)
        assert (f * g).trunc == 2
        assert (f * g) == Poly(1, {(0,): 1, (1,): 2}, 2)
        assert (f + g).trunc == 2
        assert (f * Poly.one(1)).trunc == 3  # untruncated factor changes nothing

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            Poly.var(1, 2) + Poly.var(1, 3)

    def test_coefficient_over_another_algebra_is_refused(self):
        H = make_truncated_poly_dga([0], 3)
        with pytest.raises(ValueError, match="coefficient algebra mismatch"):
            Poly(1, {(0,): H.gen("h")})
        assert Poly(1, {(0,): H.gen("h")}, alg=H) * Poly(1, {(1,): 2}, alg=H) == \
            Poly(1, {(1,): H.gen("h").scale(2)}, alg=H)

    def test_constructors_take_the_algebra_of_their_coefficient(self):
        H = make_truncated_poly_dga([0], 3)
        h = H.gen("h")
        assert Poly.const(2, h).alg is H and Poly.monomial((1, 2), h).alg is H
        assert Poly.const(2, h) == Poly(2, {(0, 0): h}, alg=H)
        assert Poly.monomial((1, 2), h) * Poly.monomial((1, 0), h) == \
            Poly(2, {(2, 2): H.gen("h^2")}, alg=H)
        assert Poly.const(2, 3).alg is Poly.monomial((1, 2), 3).alg is Poly.one(2).alg
        with pytest.raises(ValueError, match="coefficient algebra mismatch"):
            Poly.const(2, h, alg=Poly.one(2).alg)


class TestPartial:
    def test_monomial(self):
        assert Poly.monomial((2, 1)).partial(1) == Poly.monomial((1, 1), 2)

    def test_absent_variable(self):
        assert Poly.monomial((2, 0)).partial(2).is_zero()

    def test_truncated_geometric(self):
        f = Poly(1, {(k,): 1 for k in range(4)}, 4)
        df = f.partial(1)
        assert df == Poly(1, {(0,): 1, (1,): 2, (2,): 3}, 3)
        assert df.trunc == 3

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            Poly.one(2).partial(3)

    @given(polys(), st.integers(1, 2), st.integers(1, 2))
    @settings(max_examples=60)
    def test_partials_commute(self, f, i, j):
        assert f.partial(i).partial(j) == f.partial(j).partial(i)

    def test_partials_commute_two_hundred(self):
        rng = random.Random(200)
        for _ in range(200):
            n = rng.randint(2, 3)
            f = Poly.zero(n)
            for _ in range(rng.randint(1, 4)):
                e = tuple(rng.randint(0, 3) for _ in range(n))
                f = f + Poly.monomial(e, Fraction(rng.randint(-5, 5)))
            i, j = rng.randint(1, n), rng.randint(1, n)
            assert f.partial(i).partial(j) == f.partial(j).partial(i)


class TestAdicOrder:
    def test_examples(self):
        assert (Poly.monomial((1, 1, 0)) + Poly.monomial((3, 0, 0))).adic_order() == 2
        assert Poly.zero(2).adic_order() == INF
        assert (Poly.const(2, 3) + t(1)).adic_order() == 0

    def test_infinity_sentinel(self):
        assert INF > 10 ** 9 and INF >= INF and not (INF < 5)
        assert INF + 3 == INF and 3 + INF == INF

    @given(polys(), polys())
    @settings(max_examples=80)
    def test_order_of_product(self, f, g):
        # equality over an integral coefficient domain (here Q)
        lhs = (f * g).adic_order()
        rhs = f.adic_order() + g.adic_order()
        assert lhs == rhs


class TestTruncate:
    def test_identity_beyond_max_degree(self):
        f = Poly.monomial((2, 0)) + Poly.one(2)
        assert f.truncate(10).terms == f.terms

    def test_truncate_to_zero(self):
        assert (Poly.one(2) + t(1)).truncate(0).is_zero()

    def test_basic(self):
        f = Poly.one(1) + Poly.var(1, 1) + Poly.monomial((2,))
        assert f.truncate(2) == Poly(1, {(0,): 1, (1,): 1}, 2)

    @given(polys(), polys(), st.integers(0, 4))
    @settings(max_examples=60)
    def test_truncation_soundness(self, f, g, N):
        lhs = (f * g).truncate(N)
        rhs = (f.truncate(N) * g.truncate(N)).truncate(N)
        assert lhs.terms == rhs.terms


class TestSubstitution:
    def test_swap(self):
        M = [[0, 1], [1, 0]]
        assert Poly.monomial((2, 1)).subs_linear(M) == Poly.monomial((1, 2))

    def test_shear_is_ring_map(self):
        M = [[1, 1], [0, 1]]
        f, g = Poly.monomial((1, 1)), t(2) + Poly.one(2)
        assert (f * g).subs_linear(M) == f.subs_linear(M) * g.subs_linear(M)

    @given(polys(n=3, max_degree=3),
           st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                    min_size=9, max_size=9),
           st.one_of(st.none(), st.integers(0, 5)))
    @settings(max_examples=100)
    def test_equals_naive_sum(self, f, entries, trunc):
        f = Poly(3, f.terms, trunc)
        M = [entries[3 * i:3 * i + 3] for i in range(3)]
        images = [sum((t(j + 1, 3).scale(q) for j, q in enumerate(row)), Poly.zero(3))
                  for row in M]
        want = Poly.zero(3)
        for e, c in f.terms.items():
            term = Poly.const(3, c)
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * images[i]
            want = want + term
        want = Poly(3, want.terms, trunc)
        got = f.subs_linear(M)
        assert got == want
        assert list(got.terms.items()) == list(want.terms.items())


class TestPartialWord:
    @given(polys(n=3, max_degree=4), st.tuples(*([st.integers(0, 3)] * 3)),
           st.one_of(st.none(), st.integers(0, 6)))
    @settings(max_examples=150)
    def test_equals_iterated_partials(self, f, word, trunc):
        f = Poly(3, f.terms, trunc)
        g = f
        for i, k in enumerate(word, start=1):
            for _ in range(k):
                g = g.partial(i)
        assert f.partial_word(word) == g

    def test_index_out_of_range(self):
        assert Poly.var(1, 2).partial_word((1,)) == Poly.one(2)
        assert Poly.var(1, 2).partial_word((1, 0, 0)) == Poly.one(2)
        with pytest.raises(ValueError, match="out of range"):
            Poly.var(1, 2).partial_word((0, 0, 1))

    @pytest.mark.parametrize("word", [(-1,), (1, -1), (0, 0, -1)])
    def test_negative_order_rejected(self, word):
        with pytest.raises(ValueError, match="negative derivative order"):
            Poly.var(1, 2).partial_word(word)
