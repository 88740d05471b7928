import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import linfty
from linfty import hkr
from linfty.cli import run
from linfty.diffop import PolyDiffOp, gerstenhaber, hochschild_d
from linfty.hkr import (FormalityPlugin, TruncationSpec, cohomology_rank,
                        formality_identity_residual, hkr_report,
                        kontsevich_conditions, m_adic_order, mc_bivector_workflow,
                        op_coords, random_polyvec, trivial_plugin, u1, u1_chain_check,
                        u1_matrix)
from linfty.linalg import nullspace, rank
from linfty.poly import Poly, monomials_up_to
from linfty.polyvec import PolyVec, schouten
from linfty.scalars import dga_tensor, make_truncated_poly_dga
from reference_checks import reference_hkr_report

HERE = os.path.dirname(__file__)


def full_basis(spec, words):
    """The (e, w) basis of a whole slice: every monomial t^e times every word."""
    return [(e, w) for w in words for e in monomials_up_to(spec.n, spec.max_poly_degree)]


def outcome(report, spec):
    """The report, or the message of the closure failure it raises."""
    try:
        return report(spec)
    except ValueError as ex:
        return str(ex)


class TestU1:
    def test_identity_on_functions(self):
        f = Poly.var(1, 2) * Poly.var(2, 2)
        assert u1(PolyVec.from_function(f)) == PolyDiffOp.from_function(f)

    def test_two_vector_antisymmetrization(self):
        # golden formula: u1(d1^d2)(c1,c2) = (d1 c1 d2 c2 - d2 c1 d1 c2)/2
        n = 2
        op = u1(PolyVec(n, {(1, 2): Poly.one(n)}))
        rng = random.Random(3)
        for _ in range(20):
            c1 = Poly.monomial(tuple(rng.randint(0, 2) for _ in range(n)),
                               rng.randint(-3, 3))
            c2 = Poly.monomial(tuple(rng.randint(0, 2) for _ in range(n)),
                               rng.randint(-3, 3))
            want = (c1.partial(1) * c2.partial(2) -
                    c1.partial(2) * c2.partial(1)).scale(Fraction(1, 2))
            assert op.apply([c1, c2]) == want

    def test_golden_coefficient_case(self):
        n = 2
        op = u1(PolyVec(n, {(1, 2): Poly.var(1, n)}))
        got = op.apply([Poly.var(1, n), Poly.var(2, n)])
        assert got == Poly.var(1, n).scale(Fraction(1, 2))

    def test_normalized_and_order_one(self):
        rng = random.Random(5)
        for _ in range(40):
            alpha = random_polyvec(rng.choice([2, 3]), rng)
            op = u1(alpha)
            assert op.order() <= 1
            assert op.is_normalized()

    def test_chain_map(self):
        assert u1_chain_check(2, 60, seed=11)["ok"]
        assert u1_chain_check(3, 40, seed=13)["ok"]

    def test_injective_on_slices(self):
        for n in (1, 2):
            spec = TruncationSpec(n, 2, 2, -1, 1)
            for p in (-1, 0):
                images = [u1(PolyVec(n, {w: Poly.monomial(e)}))
                          for e, w in full_basis(spec, spec.t_slice_words(p))]
                rows = u1_matrix(spec, p, images)
                assert rank(rows) == len(rows)


class TestCohomologyRank:
    def test_degree_minus_one(self):
        # d vanishes out of functions, so H^{-1} is the whole coefficient slice
        spec = TruncationSpec(1, 2, 2, -1, 1)
        ker, im, h = cohomology_rank(spec, -1)
        assert (ker, im, h) == (3, 0, 3)
        assert h == len(full_basis(spec, spec.t_slice_words(-1)))
        assert spec.d_slice_words(-1) == [()] and spec.d_slice_words(-2) == []

    def test_degree_zero_against_cocycle_oracle(self):
        # oracle: solve a phi(b) - phi(ab) + phi(a) b = 0 by brute force
        spec = TruncationSpec(1, 2, 2, -1, 1)
        basis = full_basis(spec, spec.d_slice_words(0))
        monos = monomials_up_to(1, 3)
        rows = {}
        for col, (e, w) in enumerate(basis):
            op = PolyDiffOp(1, {w: Poly.monomial(e)})
            for a_e in monos:
                for b_e in monos:
                    a, b = Poly.monomial(a_e), Poly.monomial(b_e)
                    val = a * op.apply([b]) - op.apply([a * b]) + op.apply([a]) * b
                    for ee, c in val.terms.items():
                        key = (a_e, b_e, ee)
                        rows.setdefault(key, {})[col] = c.rational_part()
        kernel = nullspace(list(rows.values()), len(basis))
        ker, im, h = cohomology_rank(spec, 0)
        assert len(kernel) == ker
        assert h == len(full_basis(spec, spec.t_slice_words(0)))

    def test_zero_slice(self):
        spec = TruncationSpec(1, 0, 0, -1, 3)
        # degree 2 slice in one variable with order cap 0: only multiplication words
        ker, im, h = cohomology_rank(spec, 2)
        assert (ker, im, h)[2] == 0

    def test_edge_degree_error(self):
        spec = TruncationSpec(1, 2, 2, -1, 1)
        with pytest.raises(ValueError, match="edge degree"):
            cohomology_rank(spec, 1)

    def test_closure_check_guards_slices(self):
        # tampering with the slice must raise, not silently produce ranks
        spec = TruncationSpec(1, 2, 2, -1, 1)
        op = PolyDiffOp.basis(((3,),), 1)  # outside the order cap
        with pytest.raises(ValueError, match="slice"):
            op_coords(op, spec, 0)

    def test_closure_check_sees_every_cap(self):
        spec = TruncationSpec(2, 1, 1, -1, 1)
        inside = PolyDiffOp(2, {((1, 0),): Poly.monomial((0, 1), 3)})
        assert op_coords(inside, spec, 0) == {((0, 1), ((1, 0),)): 3}
        for op, p in ((inside, 1),  # wrong arity
                      (PolyDiffOp(2, {((1, 0),): Poly.monomial((1, 1))}), 0)):  # degree cap
            with pytest.raises(ValueError, match="leaves the declared slice"):
                op_coords(op, spec, p)

    @given(st.data(), st.integers(1, 3), st.integers(-1, 2))
    @settings(max_examples=60, deadline=None)
    def test_d_and_u1_are_c_t_linear(self, data, n, p):
        # the slices are computed on constant-coefficient words because
        # d(f D[w]) = f d(D[w]) and u1(f d_w) = f u1(d_w)
        exps = st.tuples(*[st.integers(0, 2)] * n)
        f = Poly.zero(n)
        for e, c in data.draw(st.lists(st.tuples(exps, st.integers(-3, 3).filter(bool)),
                                       min_size=1, max_size=3, unique_by=lambda t: t[0])):
            f = f + Poly.monomial(e, c)

        def times_f(op):
            return PolyDiffOp(n, {w: c * f for w, c in op.terms.items()})

        word = tuple(data.draw(st.lists(exps, min_size=p + 1, max_size=p + 1)))
        assert hochschild_d(PolyDiffOp(n, {word: f})) == \
            times_f(hochschild_d(PolyDiffOp(n, {word: Poly.one(n)})))
        if p < n:
            wedge_word = tuple(sorted(data.draw(st.lists(st.integers(1, n), min_size=p + 1,
                                                         max_size=p + 1, unique=True))))
            assert u1(PolyVec(n, {wedge_word: f})) == \
                times_f(u1(PolyVec.basis(wedge_word, n)))


class TestHkrReport:
    @pytest.mark.parametrize("n", [1, 2])
    def test_rank_match_window(self, n):
        rep = hkr_report(TruncationSpec(n, 2, 2, -1, 1))
        assert rep["ok"]
        reliable = [r for r in rep["rows"] if r["window_reliable"]]
        assert {r["p"] for r in reliable} == {-1, 0}
        for r in reliable:
            assert r["match"] and r["u1_injective"] and r["u1_spans_H"]
            assert r["u1_chain_map"]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("window", [(-1, 1), (-1, 2), (0, 2)])
    def test_report_equals_the_full_slice_reference(self, n, window):
        # the multiplicity m = C(n + trunc, n) against m explicit copies
        for trunc, order in itertools.product(range(4), repeat=2):
            spec = TruncationSpec(n, trunc, order, *window)
            got = outcome(hkr_report, spec)
            assert got == outcome(reference_hkr_report, spec)
            if order == 0 and window == (-1, 1):
                assert got.startswith("operator leaves the declared slice")

    def test_shrunken_window_flags_edges(self):
        rep = hkr_report(TruncationSpec(1, 2, 2, 0, 0))
        rows = {r["p"]: r for r in rep["rows"]}
        assert rows[0]["window_reliable"] is False
        assert rows[0].get("edge_degree")


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestHkrReportCli:
    def test_golden_report(self):
        for n, trunc in ((2, 2), (3, 3)):
            code, out, _ = cli(["hkr-report", "--n", str(n), "--trunc", str(trunc),
                                "--order", "2", "--window", "-1", "1"])
            with open(os.path.join(HERE, "golden", f"hkr_report_n{n}.json")) as fh:
                assert (code, out) == (0, fh.read())

    def test_slice_witness(self):
        code, out, err = cli(["hkr-report", "--n", "2", "--order", "0"])
        assert (code, out) == (2, "")
        assert err == ("error: operator leaves the declared slice at "
                       "((0, 0), ((1, 0),)) (u1 at degree 0)\n")

    @pytest.mark.parametrize("flags", [["--n", "0"], ["--n", "-1"], ["--trunc", "-1"],
                                       ["--order", "-1"]])
    def test_empty_variables_and_negative_caps_exit_two(self, flags):
        # a separate process, so that a traceback would show in stderr
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(linfty.__file__))}
        proc = subprocess.run([sys.executable, "-m", "linfty.cli", "hkr-report", *flags],
                              capture_output=True, text=True, env=env, timeout=120)
        lines = proc.stderr.splitlines()
        assert (proc.returncode, proc.stdout) == (2, "")
        if flags[0] == "--n":  # argparse refuses it, after its usage lines
            assert lines[-1] == ("linfty hkr-report: error: argument --n: "
                                 f"invalid positive value: '{flags[1]}'")
            assert lines[0].startswith("usage: linfty hkr-report")
        else:
            assert len(lines) == 1
            assert lines[0].startswith("error: a slice needs n >= 1 and nonnegative caps")

    @pytest.mark.parametrize("window", [["0", "0"], ["3", "3"]])
    def test_window_without_a_reliable_degree_fails(self, window):
        code, out, _ = cli(["hkr-report", "--n", "1", "--window", *window])
        doc = json.loads(out)
        assert not any(r["window_reliable"] for r in doc["rows"])
        assert (code, doc["ok"]) == (1, False)


class TestSamplers:
    @pytest.mark.parametrize("n", [2, 3])
    def test_random_polyvec_reaches_every_degree(self, n):
        degrees = set()
        for seed in range(40):
            degrees.update(random_polyvec(n, random.Random(seed)).degrees())
        assert degrees == set(range(-1, n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_kontsevich_conditions_draws_every_degree(self, n, monkeypatch):
        drawn = []

        def recording(n, rng, p=None):
            drawn.append(p)
            return random_polyvec(n, rng, p=p)

        monkeypatch.setattr(hkr, "random_polyvec", recording)
        kontsevich_conditions(trivial_plugin(), n=n, samples=12, seed=7)
        assert {p for p in drawn if p is not None} == set(range(-1, n))


class TestKontsevichConditions:
    def test_trivial_plugin_passes_static_conditions(self):
        rep = kontsevich_conditions(trivial_plugin(), n=2, samples=10, seed=7,
                                    max_arity=1)
        conds = rep["conditions"]
        assert conds["iv_first_coefficient"]["ok"]
        assert conds["v_vector_fields"]["ok"]
        assert conds["vi_linear_first_slot"]["ok"]
        assert conds["iii_equivariance"]["ok"]
        assert conds["i_linf_identity"]["ok"]  # arity 1 alone holds (chain map)

    def test_trivial_plugin_fails_arity_two_with_witness(self):
        rep = kontsevich_conditions(trivial_plugin(), n=2, samples=12, seed=7,
                                    max_arity=2)
        cond = rep["conditions"]["i_linf_identity"]
        assert not cond["ok"]
        assert cond["witnesses"] and cond["witnesses"][0]["arity"] == 2
        assert not rep["ok"]

    def test_failure_is_deterministic(self):
        r1 = kontsevich_conditions(trivial_plugin(), n=2, samples=12, seed=7)
        r2 = kontsevich_conditions(trivial_plugin(), n=2, samples=12, seed=7)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_corrupted_first_coefficient_fails_iv(self):
        def bad_u1(args):
            return u1(args[0]).scale(2)
        rep = kontsevich_conditions(FormalityPlugin({1: bad_u1}, name="bad"),
                                    n=2, samples=6, seed=9, max_arity=1)
        assert not rep["conditions"]["iv_first_coefficient"]["ok"]

    def test_explicit_witness_of_the_arity_two_defect(self):
        # u1 alone misses the bracket compatibility on coefficient bivectors;
        # the defect is a Hochschild cocycle (what a second coefficient bounds)
        n = 2
        alpha = PolyVec(n, {(1, 2): Poly.var(1, n)})
        beta = PolyVec(n, {(1, 2): Poly.var(2, n)})
        res = formality_identity_residual(trivial_plugin(), [alpha, beta])
        assert not res.is_zero()
        assert hochschild_d(res).is_zero()
        # vector-field pairs do satisfy the identity already at the first level
        xi = PolyVec(n, {(1,): Poly.var(2, n)})
        eta = PolyVec(n, {(2,): Poly.var(1, n) * Poly.var(1, n)})
        assert formality_identity_residual(trivial_plugin(), [xi, eta]).is_zero()

    def test_normalization_reported_for_plugins(self):
        # normalization of plugin outputs is observed and reported, not asserted
        alpha = PolyVec(2, {(1, 2): Poly.one(2)})
        assert u1(alpha).is_normalized()
        rep = kontsevich_conditions(trivial_plugin(), n=2, samples=8, seed=5,
                                    max_arity=1)
        obs = rep["normalization_observed"]
        assert 1 in obs and obs[1]["total"] > 0
        assert rep["conditions"]["ii_operator_valued"]["ok"]


def first_coefficient(a):
    return a.terms[min(a.terms)]


def u2_plugin():
    """u1 with U2(a, b) = c(a) c(b) D[2,0,...], c the coefficient of the first
    word: a nonzero second coefficient, so the identity's U2 terms are reached."""
    def u2(args):
        a, b = args
        return PolyDiffOp(a.n, {((2,) + (0,) * (a.n - 1),):
                                first_coefficient(a) * first_coefficient(b)})
    return FormalityPlugin({2: u2}, name="u2")


def homogeneous_args(rng, n, arity):
    """arity nonzero homogeneous poly vector fields, drawn as kontsevich_conditions draws them."""
    args = []
    for _ in range(arity):
        p = rng.randint(-1, n - 1)
        a = random_polyvec(n, rng, p=p)
        args.append(a if a else PolyVec.basis(tuple(range(1, p + 2)), n))
    return args


def formality_residual_cases():
    """The residual texts of seeded arity-3 triples under u1 alone and under
    u2_plugin(); arity 3 is where the target brackets take two-letter blocks.
    tests/golden/formality_residuals.json holds them."""
    cases = []
    for n in (1, 2, 3):
        for seed in range(20):
            args = homogeneous_args(random.Random(seed), n, 3)
            cases.append({"n": n, "seed": seed, "args": [a.text() for a in args],
                          "residuals": {pl.name: formality_identity_residual(pl, args).text()
                                        for pl in (trivial_plugin(), u2_plugin())}})
    return cases


class TestFormalityIdentity:
    def test_second_coefficient_adds_its_hochschild_differential(self):
        # at arity 2, U2 enters the identity only through d(U2(a, b)); the
        # bracket terms take U1 alone
        for n in (1, 2, 3):
            for seed in range(60):
                a, b = homogeneous_args(random.Random(seed), n, 2)
                d_u2 = hochschild_d(u2_plugin().eval([a, b]))
                assert not d_u2.is_zero()
                assert (formality_identity_residual(u2_plugin(), [a, b])
                        - formality_identity_residual(trivial_plugin(), [a, b])) == d_u2

    def test_arity_three_residuals_golden(self):
        with open(os.path.join(HERE, "golden", "formality_residuals.json")) as fh:
            assert formality_residual_cases() == json.load(fh)["cases"]


class TestBivectorWorkflow:
    def test_flat_bivector_odd_coefficient(self):
        A = dga_tensor(make_truncated_poly_dga([1], 2, names=["th"]),
                       make_truncated_poly_dga([0], 2))
        pi = PolyVec(2, {(1, 2): Poly.one(2)})
        rep = mc_bivector_workflow(pi, A, a_elem={"th*h": 1})
        assert rep["residue_zero"]
        assert rep["a_degree"] == 1 and rep["omega_degree"] == 2

    def test_zero_bivector(self):
        A = make_truncated_poly_dga([0], 2)
        rep = mc_bivector_workflow(PolyVec.zero(2), A)
        assert rep["omega_prime"] == {} and rep["residue_zero"]

    def test_so3_golden_residue(self):
        # frozen from the apply-level oracle: residue = h^2/2 [u1 pi, u1 pi]
        t1, t2, t3 = (Poly.var(i, 3) for i in (1, 2, 3))
        pi = PolyVec(3, {(1, 2): t3}) + PolyVec(3, {(2, 3): t1}) + \
            PolyVec(3, {(1, 3): -t2})
        A = make_truncated_poly_dga([0], 3)
        rep = mc_bivector_workflow(pi, A)
        with open(os.path.join(HERE, "golden", "so3_workflow_residue.json")) as fh:
            golden = json.load(fh)
        assert rep["a"] == golden["a"]
        assert rep["residue_m_order"] == golden["residue_m_order"] == 2
        assert rep["residue"] == golden["residue"]
        assert not rep["residue_zero"]
        assert rep["residue_m_order_ge_2"]

    def test_so3_residue_matches_bracket_oracle(self):
        # independent path: the residue must equal  h^2/2 x [u1 pi, u1 pi]
        t1, t2, t3 = (Poly.var(i, 3) for i in (1, 2, 3))
        pi = PolyVec(3, {(1, 2): t3}) + PolyVec(3, {(2, 3): t1}) + \
            PolyVec(3, {(1, 3): -t2})
        A = make_truncated_poly_dga([0], 3)
        rep = mc_bivector_workflow(pi, A)
        want = gerstenhaber(u1(pi), u1(pi)).scale(Fraction(1, 2))
        assert rep["residue"] == {"h^2": want.text()}

    def test_non_poisson_rejected(self):
        t3 = Poly.var(3, 3)
        bad = PolyVec(3, {(1, 2): t3 * t3}) + PolyVec(3, {(2, 3): Poly.var(1, 3)})
        if not schouten(bad, bad).is_zero():
            with pytest.raises(ValueError, match="Poisson"):
                mc_bivector_workflow(bad, make_truncated_poly_dga([0], 3))

    def test_tensor_differential_signs(self):
        # the workflow reaches d(a x g) only where both parts vanish (a closed,
        # u1 a chain map), so its two signs are pinned here
        from linfty.hkr import tensor_mc_residue
        pi = PolyVec(2, {(1, 2): Poly.one(2)})  # [pi, pi] = 0
        A = make_truncated_poly_dga([0, 1], 3, names=["x", "y"], differential={"x": {"y": 1}})
        assert tensor_mc_residue(A, {A.index["x"]: pi}, None, schouten) == {A.index["y"]: pi}
        # th of degree 1 squares to zero, so the bracket drops out
        B = make_truncated_poly_dga([1], 2)
        phi = PolyDiffOp(2, {((2, 0),): Poly.var(1, 2)})
        assert not hochschild_d(phi).is_zero()
        assert tensor_mc_residue(B, {B.index["th"]: phi}, hochschild_d, gerstenhaber) == \
            {B.index["th"]: -hochschild_d(phi)}

    def test_m_adic_order(self):
        A = make_truncated_poly_dga([0], 4)
        assert m_adic_order(A, [A.index["h^2"]]) == 2
        assert m_adic_order(A, [A.index["h"], A.index["h^2"]]) == 1
        assert m_adic_order(A, [A.unit_index]) == 0
