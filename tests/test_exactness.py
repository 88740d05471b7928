"""Integral coefficients are stored as ints, the rest as Fractions, and never
as a float or a bool.

Random elements built from a mix of int and Fraction(p, q) inputs go through
+ - * scale d over Q, over Q[h]/(h^3), and over a rescaled Q[h]/(h^3) whose
structure constants are not integral.  Each result must equal a reference that
computes on plain {key: Fraction} dicts, and every coefficient stored in it
must satisfy ``reference_checks.is_exact``.  So must ``coalg.vect_acc`` with a
DgaElem factor, against a product and then a sum per term, and every
coefficient loaded from the golden files and from instances of the
benchmark's twist workload.
"""

import importlib.util
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linfty import jsonio
from linfty.coalg import vect_acc
from linfty.diffop import PolyDiffOp, gerstenhaber, hochschild_d
from linfty.grammar import parse_polydiffop
from linfty.poly import Poly
from linfty.scalars import (CoeffDGA, DgaElem, _acc, dga_check, dga_tensor,
                            make_truncated_poly_dga, rational_field)
from reference_checks import is_exact, reference_gerstenhaber

HERE = os.path.dirname(__file__)
N = 2


def _rescaled():
    """Q[h]/(h^3) on the basis 1, h, g = 2h^2, so that h*h = 1/2 g."""
    H, s = make_truncated_poly_dga([0], 3), (1, 1, 2)  # new basis vector k is s[k] * old
    mul = {(i, j): {k: Fraction(q * s[i] * s[j], s[k]) for k, q in v.items()}
           for (i, j), v in H.mul.items()}
    return CoeffDGA(("1", "h", "g"), H.degrees, mul, H.diff, 0, H.ideal)


ALGEBRAS = [rational_field(), make_truncated_poly_dga([0], 3), _rescaled()]
assert all(dga_check(A).ok for A in ALGEBRAS)

scalars = st.one_of(st.integers(-4, 4),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
exponents = st.tuples(*[st.integers(0, 2)] * N)
words = st.lists(st.tuples(*[st.integers(0, 1)] * N), min_size=1, max_size=2).map(tuple)


def elem_dicts(A):
    return st.dictionaries(st.integers(0, len(A) - 1), scalars, max_size=3)


# -- the all-Fraction reference ------------------------------------------------

def ref(coeffs):
    return {k: Fraction(q) for k, q in coeffs.items() if q}


def ref_add(a, b, sign=1):
    out = dict(a)
    for k, q in b.items():
        out[k] = out.get(k, Fraction(0)) + sign * q
    return {k: q for k, q in out.items() if q}


def ref_scale(a, q):
    return {k: c * Fraction(q) for k, c in a.items() if c * q}


def ref_mul(A, a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out = ref_add(out, {k: x * y * Fraction(q) for k, q in A.mul[i, j].items()})
    return out


def ref_d(A, a):
    out = {}
    for i, x in a.items():
        out = ref_add(out, {k: x * Fraction(q) for k, q in A.diff[i].items()})
    return out


def ref_poly(f):
    return {e: ref(c.coeffs) for e, c in f.terms.items()}


def ref_poly_add(f, g, sign=1):
    out = dict(f)
    for e, c in g.items():
        out[e] = ref_add(out.get(e, {}), c, sign)
    return {e: c for e, c in out.items() if c}


def ref_poly_mul(A, f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out = ref_poly_add(out, {e: ref_mul(A, c1, c2)})
    return out


# -- the storage invariant -------------------------------------------------------

def stored(x):
    """Every coefficient stored in a DgaElem, Poly, PolyDiffOp, vect or table."""
    if isinstance(x, DgaElem):
        yield from x.coeffs.values()
    elif isinstance(x, Poly):
        for c in x.terms.values():
            yield from stored(c)
    elif isinstance(x, PolyDiffOp):
        for c in x.terms.values():
            yield from stored(c)
    elif isinstance(x, CoeffDGA):
        for table in (x.mul, x.diff):
            for v in table.values():
                yield from v.values()
        for row in x.table:
            for terms in row:
                yield from (q for _, q in terms)
    else:  # a dict of any of these
        for v in x.values():
            yield from stored(v)


def assert_exact(*xs):
    for x in xs:
        bad = [q for q in stored(x) if not is_exact(q)]
        assert not bad, bad


def test_tables_are_exact():
    assert_exact(*ALGEBRAS)
    assert any(type(q) is Fraction for q in stored(ALGEBRAS[2]))


# -- DgaElem ---------------------------------------------------------------------

@st.composite
def elem_pairs(draw):
    A = draw(st.sampled_from(ALGEBRAS))
    return A, draw(elem_dicts(A)), draw(elem_dicts(A)), draw(scalars)


@given(elem_pairs())
@settings(max_examples=300, deadline=None)
def test_dga_elem_ops_match_the_fraction_reference(case):
    A, ca, cb, q = case
    a, b = A.elem(ca), DgaElem(A, cb)
    ra, rb = ref(ca), ref(cb)
    results = [(a + b, ref_add(ra, rb)), (a - b, ref_add(ra, rb, -1)),
               (a * b, ref_mul(A, ra, rb)), (a.scale(q), ref_scale(ra, q)),
               (q * a, ref_scale(ra, q)), (a * q, ref_scale(ra, q)),
               (-a, ref_scale(ra, -1)), (a.d(), ref_d(A, ra)),
               (A.scalar(q), ref({A.unit_index: q}))]
    for got, want in results:
        assert got.coeffs == want
        assert_exact(got)


def test_integral_sums_of_fractions_become_ints():
    Q = rational_field()
    half = Q.scalar(Fraction(1, 2))
    for x in (half + half, (half + half) * Q.scalar(3), Q.scalar(Fraction(4, 2)),
              Q.scalar(Fraction(3, 2)) - half, half.scale(2), half * Q.scalar(2)):
        assert x.coeffs == {0: x.rational_part()} and type(x.rational_part()) is int


# -- Poly and PolyDiffOp -------------------------------------------------------

@st.composite
def polys(draw, A):
    terms = draw(st.dictionaries(exponents, elem_dicts(A), max_size=3))
    return Poly(N, {e: A.elem(c) for e, c in terms.items()}, alg=A)


@st.composite
def poly_pairs(draw):
    A = draw(st.sampled_from(ALGEBRAS))
    return A, draw(polys(A)), draw(polys(A)), draw(scalars)


@given(poly_pairs())
@settings(max_examples=200, deadline=None)
def test_poly_ops_match_the_fraction_reference(case):
    A, f, g, q = case
    rf, rg = ref_poly(f), ref_poly(g)
    partial = {tuple(x - (k == 0) for k, x in enumerate(e)): ref_scale(c, e[0])
               for e, c in rf.items() if e[0]}
    scaled = {e: ref_scale(c, q) for e, c in rf.items()} if q else {}
    results = [(f + g, ref_poly_add(rf, rg)), (f - g, ref_poly_add(rf, rg, -1)),
               (f * g, ref_poly_mul(A, rf, rg)), (f.scale(q), scaled), (f.partial(1), partial)]
    for got, want in results:
        assert ref_poly(got) == want
        assert_exact(got)


@st.composite
def op_pairs(draw):
    A = draw(st.sampled_from(ALGEBRAS))
    ops = [PolyDiffOp(N, draw(st.dictionaries(words, polys(A), max_size=2)), alg=A)
           for _ in range(2)]
    return A, ops[0], ops[1], draw(scalars)


@given(op_pairs())
@settings(max_examples=100, deadline=None)
def test_diffop_ops_match_the_fraction_reference(case):
    A, a, b, q = case
    ra, rb = ({w: ref_poly(c) for w, c in x.terms.items()} for x in (a, b))

    def ref_ops_add(x, y, sign=1):
        out = dict(x)
        for w, c in y.items():
            out[w] = ref_poly_add(out.get(w, {}), c, sign)
        return {w: c for w, c in out.items() if c}

    z = (0,) * N
    mu = {(z, z): Poly.one(N, A)}
    for got, want in [(a + b, ref_ops_add(ra, rb)), (a - b, ref_ops_add(ra, rb, -1)),
                      (a.scale(q), ref_ops_add({}, ra, Fraction(q)) if q else {})]:
        assert {w: ref_poly(c) for w, c in got.terms.items()} == want
        assert_exact(got)
    # the bracket and d against the slot-by-slot reference, which shares Poly only
    for got, want in [(gerstenhaber(a, b), reference_gerstenhaber(a.terms, b.terms)),
                      (hochschild_d(a), reference_gerstenhaber(mu, a.terms))]:
        assert got.terms == want
        assert_exact(got)


# -- vect_acc with a DgaElem factor ----------------------------------------------

# with Lambda(th1,th2) x Q[h]/(h^3): odd basis elements, signs in the table
VECT_ALGEBRAS = ALGEBRAS + [dga_tensor(make_truncated_poly_dga([1, 1], 2, names=["th1", "th2"]),
                                       make_truncated_poly_dga([0], 3))]


def ref_vect_acc(out, v, q):
    """out += q * v as one product and then one sum per entry of v."""
    for i, c in v.items():
        p = q * c
        if p:
            _acc(out, i, p)
    return out


@st.composite
def vect_cases(draw):
    """(A, out, v, q): out and v vects over A, q over A, the unit among them;
    on some keys out holds q * c and v holds -c, so that the sum cancels."""
    A = draw(st.sampled_from(VECT_ALGEBRAS))
    elems = elem_dicts(A).map(A.elem).filter(bool)
    keys = st.integers(0, 4)
    q = draw(st.one_of(st.just(A.one()), st.just(A.scalar(-2)), elems))
    out = draw(st.dictionaries(keys, elems, max_size=4))
    v = draw(st.dictionaries(keys, elems, max_size=4))
    for i, c in draw(st.dictionaries(keys, elems, max_size=2)).items():
        if q * c:
            out[i], v[i] = q * c, -c
    return A, out, v, q


@given(vect_cases())
@settings(max_examples=150, deadline=None)
def test_vect_acc_matches_a_product_then_a_sum_per_term(case):
    A, out, v, q = case
    got, want = vect_acc(dict(out), v, q), ref_vect_acc(dict(out), v, q)
    assert list(got.items()) == list(want.items())
    assert all(c for c in got.values())
    assert_exact(got)
    # a factor or a value over another algebra is refused, the unit factor too
    B = VECT_ALGEBRAS[(VECT_ALGEBRAS.index(A) + 1) % len(VECT_ALGEBRAS)]
    if v:
        for stranger in (B.one(), B.scalar(3), B.basis_elem(len(B) - 1)):
            with pytest.raises(ValueError, match="different algebras"):
                vect_acc(dict(out), v, stranger)
    with pytest.raises(ValueError, match="different algebras"):
        vect_acc(dict(out), {**v, 5: B.one()}, q)


def test_vect_acc_cancels_vanishes_and_keeps_the_order():
    A = VECT_ALGEBRAS[3]
    h, th1 = A.elem({"h": 1}), A.elem({"th1": 1})
    out = {0: h * th1, 1: h}
    got = vect_acc(dict(out), {0: th1.scale(-1), 2: th1}, h)
    assert list(got.items()) == [(1, h), (2, h * th1)]
    got = vect_acc(dict(out), {2: th1, 1: h}, A.one())
    assert list(got.items()) == [(0, h * th1), (1, h.scale(2)), (2, th1)]
    assert vect_acc({}, {0: th1}, th1) == {}  # th1 * th1 = 0 adds no key


# -- loaded coefficients ---------------------------------------------------------

def assert_instance_exact(doc):
    algebra, omega, morphism = jsonio.instance_from_json(doc)
    assert_exact(algebra.module.coeff, *algebra.dgla_tables(), algebra.taylor.maps)
    if omega is not None:
        assert_exact(omega)
    if morphism is not None:
        assert_exact(morphism.taylor.maps, morphism.target.taylor.maps)


def test_golden_coefficients_are_exact():
    for name in ("scrambled", "strict_morphism", "odd_square_h2"):
        with open(os.path.join(HERE, "golden", f"twist_{name}.json")) as fh:
            assert_instance_exact(json.load(fh)["instance"])
    with open(os.path.join(HERE, "golden", "so3_workflow_residue.json")) as fh:
        residue = json.load(fh)["residue"]
    assert_exact({k: parse_polydiffop(text, 3) for k, text in residue.items()})


def test_twist_workload_coefficients_are_exact(tmp_path):
    path = os.path.join(HERE, os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    twist = workloads.Twist()
    ctx = {**twist.setup(), "workdir": str(tmp_path)}
    jobs = twist.make_jobs(ctx, seed=5, count=twist.BLOCK)
    for job in jobs:
        with open(job["argv"][-1]) as fh:
            assert_instance_exact(json.load(fh))
