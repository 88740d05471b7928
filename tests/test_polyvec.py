import itertools
import random
from fractions import Fraction

import pytest

from linfty.diffop import gerstenhaber
from linfty.hkr import u1
from linfty.poly import Poly
from linfty.polyvec import PolyVec, is_poisson, schouten, transform, wedge
from linfty.scalars import ksign, make_truncated_poly_dga


def d(i, n=3, coeff=None):
    return PolyVec.basis((i,), n, coeff=coeff)


def rand_poly(rng, n, maxdeg=2):
    out = Poly.zero(n)
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 1) for _ in range(n))
        if sum(e) <= maxdeg:
            out = out + Poly.monomial(e, Fraction(rng.randint(-2, 2)))
    return out


def rand_vec(rng, n, p, maxdeg=3):
    words = list(itertools.combinations(range(1, n + 1), p + 1))
    out = PolyVec.zero(n)
    for _ in range(rng.randint(1, 2)):
        out = out + PolyVec(n, {rng.choice(words): rand_poly(rng, n, maxdeg)})
    return out


class TestWedge:
    def test_antisymmetry_of_generators(self):
        assert wedge(d(1), d(2)) == wedge(d(2), d(1)).scale(-1)

    def test_repeated_generator_vanishes(self):
        a = PolyVec.basis((1,), 3, coeff=Poly.var(1, 3))
        b = PolyVec.basis((1,), 3, coeff=Poly.var(2, 3))
        assert wedge(a, b).is_zero()

    def test_function_acts_as_scalar(self):
        f = PolyVec.from_function(Poly.var(1, 3))
        assert wedge(f, wedge(d(1), d(2))) == PolyVec(3, {(1, 2): Poly.var(1, 3)})

    def test_degree_cap(self):
        w = wedge(wedge(d(1, 2), d(2, 2)), d(1, 2))
        assert w.is_zero()


class TestArithmetic:
    def test_subtraction_negates_every_term_of_the_right_side(self):
        a = PolyVec.basis((1,), 2, coeff=Poly.var(1, 2))
        b = PolyVec.basis((1,), 2, coeff=Poly.var(2, 2)) + d(2, 2)
        diff = a - b
        assert diff == PolyVec(2, {(1,): Poly.var(1, 2) + Poly.monomial((0, 1), -1),
                                   (2,): Poly.monomial((0, 0), -1)})
        assert repr(diff) == "-t2*d1 + t1*d1 - d2"
        assert (a - a).is_zero() and (a - b) + b == a


class TestSchoutenExamples:
    def test_derivation_on_function(self):
        f = PolyVec.from_function(Poly.monomial((2, 0, 0)))
        assert schouten(d(1), f) == PolyVec.from_function(Poly.monomial((1, 0, 0), 2))

    def test_commutator_of_vector_fields(self):
        # oracle: apply-level commutator of the first-order operators
        lhs = schouten(d(1), PolyVec.basis((1,), 3, coeff=Poly.var(1, 3)))
        assert lhs == d(1)
        rng = random.Random(5)
        args = [rand_poly(rng, 3) for _ in range(4)]
        op = gerstenhaber(u1(d(1)), u1(PolyVec.basis((1,), 3, coeff=Poly.var(1, 3))))
        for a in args:
            assert u1(lhs).apply([a]) == op.apply([a])

    def test_bivector_on_function(self):
        t1, t2 = Poly.var(1, 3), Poly.var(2, 3)
        got = schouten(wedge(d(1), d(2)), PolyVec.from_function(t1 * t2))
        want = PolyVec(3, {(1,): t1, (2,): -t2})
        assert got == want
        # independent oracle: both sides act on random test functions
        rng = random.Random(11)
        for _ in range(20):
            f = rand_poly(rng, 3)
            assert u1(got).apply([f]) == u1(want).apply([f])


class TestSchoutenIdentities:
    def test_graded_antisymmetry_and_jacobi(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(2, 3)
            p1, p2, p3 = (rng.randint(-1, n - 1) for _ in range(3))
            a, b, c = rand_vec(rng, n, p1), rand_vec(rng, n, p2), rand_vec(rng, n, p3)
            assert schouten(a, b) == schouten(b, a).scale(ksign(1 + p1 * p2))
            lhs = schouten(a, schouten(b, c))
            rhs = schouten(schouten(a, b), c) + \
                schouten(b, schouten(a, c)).scale(ksign(p1 * p2))
            assert lhs == rhs

    def test_odd_leibniz_rule(self):
        # [a1 ^ a2, a3] = a1 ^ [a2,a3] + (-1)^{(p2+1) p3} [a1,a3] ^ a2
        rng = random.Random(31)
        for _ in range(25):
            n = 3
            p1, p2, p3 = rng.randint(0, 1), rng.randint(-1, 2), rng.randint(-1, 2)
            a1, a2, a3 = rand_vec(rng, n, p1), rand_vec(rng, n, p2), rand_vec(rng, n, p3)
            lhs = schouten(wedge(a1, a2), a3)
            rhs = wedge(a1, schouten(a2, a3)) + \
                wedge(schouten(a1, a3), a2).scale(ksign((p2 + 1) * p3))
            assert lhs == rhs
            # oracle on test functions where both sides are vector fields
            if lhs.degrees() == [0]:
                for _ in range(3):
                    f = rand_poly(rng, n)
                    assert u1(lhs).apply([f]) == u1(rhs).apply([f])

    def test_vector_field_agreement_with_operator_commutator(self):
        rng = random.Random(77)
        for _ in range(20):
            n = rng.randint(2, 3)
            a, b = rand_vec(rng, n, 0), rand_vec(rng, n, 0)
            assert u1(schouten(a, b)) == gerstenhaber(u1(a), u1(b))


class TestPoisson:
    def test_constant_bivector(self):
        assert is_poisson(PolyVec(2, {(1, 2): Poly.one(2)}))

    def test_any_bivector_on_two_variables(self):
        assert is_poisson(PolyVec(2, {(1, 2): Poly.var(1, 2)}))

    def test_so3_linear_structure(self):
        t1, t2, t3 = (Poly.var(i, 3) for i in (1, 2, 3))
        pi = PolyVec(3, {(1, 2): t3}) + PolyVec(3, {(2, 3): t1}) + \
            PolyVec(3, {(1, 3): -t2})
        assert is_poisson(pi)

    def test_non_poisson_witness(self):
        t3 = Poly.var(3, 3)
        pi = PolyVec(3, {(1, 2): t3}) + PolyVec(3, {(1, 3): t3})
        assert schouten(pi, pi).is_zero() == is_poisson(pi)

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            is_poisson(d(1))


class TestCoefficientAlgebra:
    H = make_truncated_poly_dga([0], 3)

    def test_refuses_a_coefficient_over_another_algebra(self):
        f = Poly(1, {(2,): self.H.gen("h")}, alg=self.H)
        with pytest.raises(ValueError, match="coefficient algebra mismatch"):
            PolyVec(1, {(1,): f})
        with pytest.raises(ValueError, match="coefficient algebra mismatch"):
            PolyVec(1, {(1,): Poly.one(1)}, alg=self.H)

    def test_basis_lives_over_its_coefficient_algebra(self):
        # [h t^2 d1, t d1] = h t^2 d1 - t (2 h t) d1 = -h t^2 d1, over H both ways
        H = self.H
        v = PolyVec.basis((1,), 1, coeff=Poly(1, {(2,): H.gen("h")}, alg=H))
        w = PolyVec.basis((1,), 1, coeff=Poly(1, {(1,): 1}, alg=H))
        assert v.alg is H and w.alg is H
        want = PolyVec(1, {(1,): Poly(1, {(2,): H.gen("h").scale(-1)}, alg=H)}, alg=H)
        assert schouten(v, w) == want and schouten(w, v) == want.scale(-1)
        assert schouten(v, w).alg is H and schouten(w, v).alg is H
        assert "h" in repr(schouten(v, w))


class TestTransform:
    def test_respects_bracket(self):
        rng = random.Random(13)
        M = [[1, 1], [0, 1]]
        Minv = [[1, -1], [0, 1]]
        for _ in range(10):
            a, b = rand_vec(rng, 2, rng.randint(-1, 1)), rand_vec(rng, 2, rng.randint(-1, 1))
            lhs = transform(schouten(a, b), M, Minv)
            rhs = schouten(transform(a, M, Minv), transform(b, M, Minv))
            assert lhs == rhs
