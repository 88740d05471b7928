import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linfty import jsonio
from linfty.scalars import (CoeffDGA, dga_check, dga_tensor, ksign,
                            make_truncated_poly_dga, rational_field)
from reference_checks import is_exact

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

    @pytest.mark.parametrize("order", [0, -1])
    def test_nilpotency_order_below_one_rejected(self, order):
        A = make_truncated_poly_dga([0], 3)
        with pytest.raises(ValueError, match="nilpotency_order must be an int >= 1"):
            CoeffDGA(A.basis, A.degrees, A.mul, A.diff, A.unit_index, A.ideal, order)

    def test_explicit_zero_constants_are_dropped(self):
        A = make_truncated_poly_dga([0, 1], 3)
        doc = jsonio.coeff_algebra_to_json(A)
        for entry in doc["mul"]:  # a "0" for every basis index a product lacks
            present = {k for k, _ in entry[2]}
            entry[2] += [[k, "0"] for k in range(len(A)) if k not in present]
        for entry in doc["d"]:
            entry[1].append([0, "0"])
        B = jsonio.coeff_algebra_from_json(doc)
        assert B == A and jsonio.coeff_algebra_to_json(B) == jsonio.coeff_algebra_to_json(A)
        assert all(q for table in (B.mul, B.diff) for v in table.values() for q in v.values())
        assert dga_check(B).ok

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

    def test_differential_key_naming_no_generator_is_refused(self):
        # the default names are th, th2, th3: a key "z" used to be dropped, d = 0
        with pytest.raises(ValueError, match="differential key 'z'"):
            make_truncated_poly_dga([1, 1, 1], 2, differential={"z": {"x*y": 1}})
        A = make_truncated_poly_dga([1, 1, 1], 2, names=["x", "y", "z"],
                                    differential={"z": {"x*y": 1}})
        assert A.diff[A.index["z"]] == {A.index["x*y"]: 1} and dga_check(A).ok

    def test_differential_term_outside_the_basis_is_refused(self):
        # a target monomial that is not a basis name used to be a bare KeyError
        for term in ("y*x", "x^2", "w"):
            with pytest.raises(ValueError, match=re.escape(f"of 'z': no basis monomial '{term}'")):
                make_truncated_poly_dga([1, 1, 1], 2, names=["x", "y", "z"],
                                        differential={"z": {term: 1}})


@st.composite
def truncated_differentials(draw):
    """(degrees, truncation order, names, differential): each generator maps to
    +-1 or +-2 times up to two basis monomials one degree up."""
    degrees = draw(st.lists(st.sampled_from([-1, 0, 1, 2]), min_size=1, max_size=3))
    order = draw(st.integers(2, 4))
    names = [f"g{i}" for i in range(len(degrees))]
    A = make_truncated_poly_dga(degrees, order, names=names)
    differential = {}
    for name, degree in zip(names, degrees):
        targets = [b for b, d in zip(A.basis, A.degrees) if d == degree + 1]
        chosen = draw(st.lists(st.sampled_from(targets), max_size=2, unique=True)) \
            if targets else []
        differential[name] = {t: draw(st.sampled_from([1, -1, 2, -2])) for t in chosen}
    return degrees, order, names, differential


class TestLeibnizDifferential:
    @given(truncated_differentials())
    @settings(max_examples=150, deadline=None)
    def test_d_of_a_monomial_is_the_leibniz_sum_over_its_factors(self, case):
        # d(g1...gr) = sum_k (-1)^{|g1|+...+|g_{k-1}|} g1...g_{k-1} d(g_k) g_{k+1}...g_r
        degrees, order, names, differential = case
        A = make_truncated_poly_dga(degrees, order, names=names, differential=differential)
        degree = dict(zip(names, degrees))

        def prod(factors):
            out = A.one()
            for f in factors:
                out = out * A.gen(f)
            return out

        for i, name in enumerate(A.basis):
            factors = []
            for bit in name.split("*") if name != "1" else []:
                g, _, power = bit.partition("^")
                factors += [g] * int(power or 1)
            assert prod(factors) == A.basis_elem(i)
            want = A.zero()
            for k, g in enumerate(factors):
                term = prod(factors[:k]) * A.elem(differential[g]) * prod(factors[k + 1:])
                want = want + term.scale(ksign(sum(degree[f] for f in factors[:k])))
            assert A.basis_elem(i).d() == want, name

    def test_even_generator_with_a_differential_after_an_odd_one(self):
        # d(a*x) = (-1)^{|a|} a*d(x) = -a*x*b: d(x) moves past the odd a
        A = make_truncated_poly_dga([1, 0, 1], 3, names=["a", "x", "b"],
                                    differential={"x": {"x*b": 1}})
        assert dga_check(A).ok
        assert A.basis_elem(A.index["a*x"]).d() == A.elem({"a*x*b": -1})


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

    def test_negative_degrees_stay_exact(self):
        # d(a*b) = -a*c: d passes the odd a of degree -1, a sign (-1)^{-1}
        A = make_truncated_poly_dga([-1, -1, 0], 2, names=["a", "b", "c"],
                                    differential={"b": {"c": 1}})
        assert A.diff[A.index["a*b"]] == {A.index["a*c"]: Fraction(-1)}
        for T in (A, dga_tensor(make_truncated_poly_dga([-1], 2), make_truncated_poly_dga([1], 2)),
                  dga_tensor(A, make_truncated_poly_dga([-2, 1], 3))):
            assert all(is_exact(q)
                       for table in (T.mul, T.diff) for v in table.values() for q in v.values())
            assert dga_check(T).ok

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
        B = jsonio.coeff_algebra_from_json(json.loads(jsonio.dumps(
            jsonio.coeff_algebra_to_json(A))))
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
