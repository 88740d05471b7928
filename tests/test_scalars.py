from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linfty.scalars import (CoeffDGA, dga_check, dga_tensor,
                            make_truncated_poly_dga, rational_field)

rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)


class TestRationals:
    @given(rationals, rationals, rationals)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a:
            assert a * (1 / a) == 1

    def test_field_axioms_thousand_triples(self):
        import random
        rng = random.Random(1000)
        for _ in range(1000):
            a, b, c = (Fraction(rng.randint(-999, 999), rng.randint(1, 99))
                       for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == 0 and (a == 0 or a * (1 / a) == 1)

    @given(rationals)
    def test_normalization_idempotent(self, a):
        b = Fraction(a.numerator, a.denominator)
        assert b == a and b.denominator > 0
        assert Fraction(b.numerator, b.denominator) == b


class TestDgaCheck:
    def test_base_field_passes(self):
        assert dga_check(rational_field()).ok

    def test_truncated_h_cubed(self):
        A = make_truncated_poly_dga([0], 3)
        assert dga_check(A).ok
        assert A.nilpotency_order == 3
        assert A.basis == ("1", "h", "h^2")

    def test_tampered_exterior_algebra_fails_with_witness(self):
        L = make_truncated_poly_dga([1], 2)
        mul = {k: dict(v) for k, v in L.mul.items()}
        mul[(1, 1)] = {0: Fraction(1)}  # th*th := 1
        bad = CoeffDGA(L.basis, L.degrees, mul, L.diff, 0, [1], 2)
        rep = dga_check(bad)
        assert not rep.ok
        assert any(v["witness"] == ["th", "th"] for v in rep.violations)

    def test_missing_entry_is_structural(self):
        L = make_truncated_poly_dga([1], 2)
        mul = {k: dict(v) for k, v in L.mul.items()}
        del mul[(1, 1)]
        bad = CoeffDGA(L.basis, L.degrees, mul, L.diff, 0, [1], 2)
        rep = dga_check(bad)
        assert not rep.ok
        assert rep.structural()
        assert all(v["axiom"] == "structural" for v in rep.violations)


class TestBuilder:
    def test_h_squared(self):
        A = make_truncated_poly_dga([0], 2)
        assert A.basis == ("1", "h")
        assert A.nilpotency_order == 2

    def test_odd_generator_squares_to_zero(self):
        L = make_truncated_poly_dga([1], 2)
        th = L.gen("th")
        assert (th * th).is_zero()
        assert dga_check(L).ok

    def test_mixed_generators_basis_size(self):
        # oracle: tensor-basis enumeration, |Q[h]/(h^3)| * |Lambda(th)| = 3 * 2
        M = make_truncated_poly_dga([0, 1], 3)
        assert len(M) == 6
        assert dga_check(M).ok
        assert M.nilpotency_order == 4

    def test_empty_generators_is_base_field(self):
        A = make_truncated_poly_dga([], 5)
        assert len(A) == 1 and not A.ideal
        assert A.nilpotency_order == 1

    def test_builders_always_pass_dga_check(self):
        for degrees in ([0], [1], [0, 0], [0, 1], [1, 1], [0, 1, 2]):
            for order in (2, 3):
                assert dga_check(make_truncated_poly_dga(degrees, order)).ok


class TestTensor:
    def test_unit_of_tensor(self):
        A = make_truncated_poly_dga([0, 1], 3)
        T = dga_tensor(A, rational_field())
        assert T.basis == A.basis
        assert T.mul == A.mul and T.diff == A.diff
        assert dga_check(T).ok

    def test_odd_odd_koszul_sign(self):
        L1 = make_truncated_poly_dga([1], 2, names=["th1"])
        L2 = make_truncated_poly_dga([1], 2, names=["th2"])
        T = dga_tensor(L1, L2)
        i, j = T.index["th1"], T.index["th2"]
        assert T.mul_basis(j, i) == {T.index["th1*th2"]: Fraction(-1)}
        assert dga_check(T).ok

    def test_zero_differentials_tensor_to_zero(self):
        T = dga_tensor(make_truncated_poly_dga([0], 2), make_truncated_poly_dga([1], 2))
        assert all(not v for v in T.diff.values())
        assert dga_check(T).ok

    def test_leibniz_differential_through_tensor(self):
        D = make_truncated_poly_dga([1, 2], 2, names=["th", "y"],
                                    differential={"th": {"y": 1}})
        T = dga_tensor(D, make_truncated_poly_dga([0], 2))
        assert dga_check(T).ok
        th = T.gen("th")
        assert th.d() == T.gen("y")

    def test_associativity_up_to_identification(self):
        A = make_truncated_poly_dga([0], 2)
        B = make_truncated_poly_dga([1], 2)
        C = make_truncated_poly_dga([0], 3, names=["k"])
        left = dga_tensor(dga_tensor(A, B), C)
        right = dga_tensor(A, dga_tensor(B, C))
        # the product enumeration orders coincide, so tables match on the nose
        assert left.degrees == right.degrees
        assert left.mul == right.mul
        assert left.diff == right.diff
        assert left.ideal == right.ideal

    def test_json_roundtrip(self):
        A = dga_tensor(make_truncated_poly_dga([1], 2),
                       make_truncated_poly_dga([0], 3))
        B = CoeffDGA.from_json(A.to_json())
        assert B == A
        assert B.nilpotency_order == A.nilpotency_order


# ---------------------------------------------------------------------------
# DgaElem arithmetic against naive references written from alg.mul
# ---------------------------------------------------------------------------

ALGEBRAS = (
    rational_field(),
    make_truncated_poly_dga([0], 4),                                   # Q[h]/(h^4)
    dga_tensor(make_truncated_poly_dga([1, 1], 2),
               make_truncated_poly_dga([0], 3)),                       # Λ(θ1,θ2)⊗Q[h]/(h^3)
)
small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def elem_pairs(draw):
    A = draw(st.sampled_from(ALGEBRAS))
    idx = st.integers(0, len(A) - 1)
    xd = draw(st.dictionaries(idx, small_rationals, max_size=len(A)))
    yd = draw(st.dictionaries(idx, small_rationals, max_size=len(A)))
    if draw(st.booleans()):  # make some coefficients of x + y cancel
        yd = {i: yd.get(i, 0) - xd.get(i, 0) for i in set(xd) | set(yd)}
    return A, A.elem(xd), A.elem(yd)


def naive_mul(A, x, y):
    out = {}
    for i, a in x.coeffs.items():
        for j, b in y.coeffs.items():
            for k, q in A.mul.get((i, j), {}).items():
                out[k] = out.get(k, 0) + a * b * q
    return {k: v for k, v in out.items() if v}


def naive_combine(x, y, sign):
    out = dict(x.coeffs)
    for i, q in y.coeffs.items():
        out[i] = out.get(i, 0) + sign * q
    return {k: v for k, v in out.items() if v}


class TestDgaElemKernels:
    @given(elem_pairs(), small_rationals)
    @settings(max_examples=300)
    def test_against_naive_reference(self, pair, q):
        A, x, y = pair
        results = {"mul": (x * y, naive_mul(A, x, y)),
                   "add": (x + y, naive_combine(x, y, 1)),
                   "sub": (x - y, naive_combine(x, y, -1)),
                   "neg": (-x, {i: -c for i, c in x.coeffs.items()}),
                   "scale": (x.scale(q), {i: q * c for i, c in x.coeffs.items() if q})}
        for name, (got, want) in results.items():
            assert got.coeffs == want, name
            assert got.alg is A and all(got.coeffs.values()), name

    @given(elem_pairs(), st.sampled_from([1, -1, 0, 2, Fraction(1), Fraction(-1)]))
    def test_scale_by_integers(self, pair, k):
        _, x, _ = pair
        assert x.scale(k).coeffs == {i: k * c for i, c in x.coeffs.items() if k}
        assert (x * k).coeffs == x.scale(k).coeffs

    def test_scale_rejects_inexact_scalars(self):
        with pytest.raises(TypeError):
            rational_field().one().scale(0.5)
