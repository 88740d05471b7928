"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints one PASS/FAIL line (run pytest with -s to see them inline)
and enforces the stated wall-clock budget.
"""

import io
import contextlib
import itertools
import json
import random
import time
from fractions import Fraction

from linfty import jsonio, samples
from linfty.cli import run as cli_run
from linfty.coalg import (CoalgElem, GradedBasisModule, TaylorSeq, exp,
                          is_grouplike, is_invertible, is_primitive, ln,
                          pi_tilde, tau, tensor_comult, vect_scale, word_degree)
from linfty.diffop import (PolyDiffOp, filtration_check, gerstenhaber,
                           hochschild_d, mu)
from linfty.grammar import parse_element
from linfty.hkr import (TruncationSpec, hkr_report, kontsevich_conditions,
                        trivial_plugin, u1, u1_chain_check)
from linfty.linf import (LinfAlgebra, LinfMorphism, coalgebra_identity_residual,
                         conjugation_twist, explicit_identity_residual,
                         extend_multilinear, finiteness_bound, identity_sign_data,
                         mc_push, mc_residue, mc_residue_dgla, operators_agree,
                         twist_coder, twist_morphism, dgla_tables_from_taylor)
from linfty.poly import Poly
from linfty.polyvec import PolyVec, schouten
from linfty.scalars import (dga_tensor, ksign, make_truncated_poly_dga,
                            rational_field)
from reference_checks import intertwine_witnesses, square_zero_witnesses


def report(name, budget, t0, detail):
    elapsed = time.time() - t0
    line = f"{name} PASS ({elapsed:.2f}s < {budget}s): {detail}"
    print(line)
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.2f}s"


def rand_poly(rng, n, maxdeg):
    out = Poly.zero(n)
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, maxdeg) for _ in range(n))
        if sum(e) <= maxdeg:
            out = out + Poly.monomial(e, Fraction(rng.randint(-3, 3)))
    return out


def rand_vec(rng, n, p, maxdeg=3):
    words = list(itertools.combinations(range(1, n + 1), p + 1))
    out = PolyVec.zero(n)
    for _ in range(rng.randint(1, 2)):
        out = out + PolyVec(n, {rng.choice(words): rand_poly(rng, n, maxdeg)})
    return out


def test_a1_schouten_dgla_axioms():
    t0 = time.time()
    rng = random.Random(101)
    for trial in range(300):
        n = rng.randint(2, 3)
        p1, p2, p3 = (rng.randint(-1, min(2, n - 1)) for _ in range(3))
        a, b, c = rand_vec(rng, n, p1), rand_vec(rng, n, p2), rand_vec(rng, n, p3)
        assert schouten(a, b) == schouten(b, a).scale(ksign(1 + p1 * p2)), \
            f"antisymmetry failed at trial {trial}"
        lhs = schouten(a, schouten(b, c))
        rhs = schouten(schouten(a, b), c) + \
            schouten(b, schouten(a, c)).scale(ksign(p1 * p2))
        assert lhs == rhs, f"Jacobi failed at trial {trial}"
    report("A1", 10, t0, "300 Schouten antisymmetry+Jacobi instances, exact zeros")


def test_a2_hochschild_gerstenhaber():
    t0 = time.time()
    rng = random.Random(202)

    def rand_op(n, p):
        out = PolyDiffOp.zero(n)
        for _ in range(rng.randint(1, 2)):
            word = []
            for _ in range(p + 1):
                mi = [0] * n
                mi[rng.randrange(n)] = rng.randint(0, 2)
                word.append(tuple(mi))
            out = out + PolyDiffOp.basis(tuple(word), n, coeff=rand_poly(rng, n, 2))
        return out

    for trial in range(200):
        n = rng.randint(1, 2)
        p, q = rng.randint(-1, 2), rng.randint(-1, 2)
        a, b = rand_op(n, max(p, -1)), rand_op(n, max(q, -1))
        assert hochschild_d(hochschild_d(a)).is_zero(), "d^2 != 0"
        assert hochschild_d(a) == gerstenhaber(mu(n), a), "d != [mu,-]"
        assert filtration_check(a, b), "order filtration bound violated"
        c = rand_op(n, rng.randint(-1, 2))
        pa = a.degrees()[0] if a.terms else -1
        pb = b.degrees()[0] if b.terms else -1
        lhs = gerstenhaber(a, gerstenhaber(b, c))
        rhs = gerstenhaber(gerstenhaber(a, b), c) + \
            gerstenhaber(b, gerstenhaber(a, c)).scale(ksign(pa * pb))
        assert lhs == rhs, "Gerstenhaber Jacobi failed"
        assert gerstenhaber(a, b) == \
            gerstenhaber(b, a).scale(-ksign(pa * pb)), "antisymmetry failed"
    report("A2", 20, t0,
           "200 operators: d^2=0, d=[mu,-] two-path, order filtration bounds, "
           "antisymmetry, Jacobi")


def test_a3_coalgebra_layer():
    t0 = time.time()
    C = make_truncated_poly_dga([0], 3)
    m = GradedBasisModule("g", [("a", 0), ("b", 0), ("c", 1), ("e", -1)], C)
    # symmetrization is a coalgebra isomorphism with averaged inverse
    for w in m.words_up_to(4):
        x = CoalgElem(m, {w: C.one()})
        assert pi_tilde(m, tau(x)) == x
        lhs = {}
        for (w1, w2), c in x.comult().items():
            for v1, c1 in tau(CoalgElem(m, {w1: C.one()})).items():
                for v2, c2 in tau(CoalgElem(m, {w2: C.one()})).items():
                    key = (v1, v2)
                    add = c * c1 * c2
                    prev = lhs.get(key)
                    s = add if prev is None else prev + add
                    if s:
                        lhs[key] = s
                    else:
                        lhs.pop(key, None)
        assert lhs == tensor_comult(tau(x))
    # primitives are exactly the order-1 words
    for w in m.words_up_to(4):
        x = CoalgElem(m, {w: C.one()})
        assert is_primitive(x) == (len(w) == 1)
    # exp/ln are mutually inverse over the lattice {0,±1,±1/2}·h^k
    m0 = GradedBasisModule("g0", [("g1", 0), ("g2", 0)], C)
    h = C.gen("h")
    lattice = [C.zero()]
    for q in (1, -1, Fraction(1, 2), Fraction(-1, 2)):
        for k in (1, 2):
            lattice.append((h if k == 1 else h * h).scale(q))
    for c1 in lattice:
        for c2 in lattice:
            om = CoalgElem(m0, {(0,): c1, (1,): c2}, 4)
            e = exp(om)
            assert is_grouplike(e) and is_invertible(e)
            assert ln(e) == om and exp(ln(e)) == e
    report("A3", 30, t0,
           "symmetrization iso + primitives exhaustive to order 4; exp/ln "
           f"bijection on the {len(lattice)}^2 lattice")


def test_a4_mc_machinery():
    t0 = time.time()
    rng = random.Random(404)
    C = make_truncated_poly_dga([0], 4)
    done = 0
    nontrivial = 0
    while done < 100:
        if done % 2 == 0:
            alg = samples.sample_dgla(rng, C)
            phi = samples.strict_base_change_morphism(rng, alg) \
                if done % 4 == 0 else LinfMorphism.identity(alg)
        else:
            a, b, phi = samples.sample_abelian_pair(rng, C)
            alg = a
        om = samples.sample_mc(rng, alg)
        nontrivial += bool(om.vect)
        # residue = 0 iff Q kills the exponential: MC element and a non-MC probe
        assert not mc_residue(alg, om.vect)
        assert alg.Q(om.exp()).is_zero()
        bad = samples.sample_non_mc(rng, alg, tries=30)
        if bad is not None:
            assert not alg.Q(exp(CoalgElem.from_vect(alg.shifted, bad))).is_zero()
        # DGLA closed form agrees with the coderivation sum
        if alg.is_dgla:
            assert mc_residue(alg, om.vect) == mc_residue_dgla(alg, om.vect)
        # exp naturality and exact pushforward residue
        pushed = mc_push(phi, om)
        assert phi.psi(om.exp()) == pushed.exp()
        assert not mc_residue(phi.target, pushed.vect)
        done += 1
    assert nontrivial >= 40, "too few nontrivial Maurer-Cartan instances"
    report("A4", 30, t0,
           "100 DGLA/morphism instances over Q[h]/(h^4): residue/exponential "
           "dual path, exp naturality, pushforward residues exactly 0")


def test_a5_twist_theorem():
    t0 = time.time()
    rng = random.Random(505)
    C = make_truncated_poly_dga([0], 4)
    nontrivial = 0
    for trial in range(50):
        alg = samples.sample_dgla(rng, C)
        om = samples.sample_mc(rng, alg)
        nontrivial += bool(om.vect)
        tw = twist_coder(alg, om)
        assert not square_zero_witnesses(tw.taylor, 3), "twisted Q not square zero"
        # twisted-differential closed form
        d_t, br_t = dgla_tables_from_taylor(alg.module, tw.taylor)
        d_0, br_0 = alg.dgla_tables()
        for i in range(len(alg.module)):
            want = dict(d_0.get(i, {}))
            for k, c in alg.bracket_of(om.vect, {i: C.one()}).items():
                want[k] = want.get(k, C.zero()) + c
            assert d_t.get(i, {}) == {k: c for k, c in want.items() if c}
        assert br_t == {k: v for k, v in br_0.items() if v}
        # conjugation path agrees word for word
        conj = conjugation_twist(alg, om)
        assert operators_agree(tw.Q, conj, alg.shifted, 3).ok
        # twisted morphism intertwines the twisted structures
        phi = strict = samples.strict_base_change_morphism(rng, alg) \
            if trial % 2 else LinfMorphism.identity(alg)
        tm = twist_morphism(phi, om, twisted_source=tw)
        assert not square_zero_witnesses(tm.target.taylor, 3), "twisted target"
        assert not intertwine_witnesses(tm.taylor, tm.source.taylor, tm.target.taylor, 3)
    assert nontrivial >= 25, "too few nontrivial twist instances"
    report("A5", 60, t0,
           "50 twist instances: Q_w^2=0, closed-form twisted tables, morphism "
           "intertwining, conjugation path word-for-word")


def test_a6_sign_table_pinning():
    t0 = time.time()
    rng = random.Random(606)
    C = make_truncated_poly_dga([0], 4)
    m = GradedBasisModule("g3", [("x", 0), ("y", 1), ("z", 2)], C)
    src = LinfAlgebra.from_dgla(
        m, {}, {("x", "y"): {"y": 1}, ("y", "y"): {"z": 1},
                ("x", "z"): {"z": 2}}, 6)
    mt = GradedBasisModule("t3", [("c", 0), ("b", 0), ("a", 1)], C)
    tgt = LinfAlgebra.from_dgla(mt, {"b": {"a": 1}},
                                {("c", "b"): {"b": 1}, ("c", "a"): {"a": 1}}, 6)

    def rand_taylor():
        maps = {}
        for j in (1, 2, 3):
            tab = {}
            for w in src.shifted.words(j):
                v = {}
                for g in range(len(mt)):
                    if tgt.shifted.degree(g) == word_degree(src.shifted, w) \
                            and rng.random() < 0.7:
                        q = Fraction(rng.randint(-2, 2))
                        if q:
                            v[g] = C.scalar(q)
                if v:
                    tab[w] = v
            if tab:
                maps[j] = tab
        return TaylorSeq(src.shifted, tgt.shifted, maps, "morphism")

    spanning = [w for w in src.shifted.words_up_to(3) if w]
    # spanning set: every word of order <= 3 over the 3-generator source
    for _ in range(8):
        T = rand_taylor()
        for w in spanning:
            a = explicit_identity_residual(T, src, tgt, w)
            b = coalgebra_identity_residual(T, src, tgt, w)
            diff = dict(a)
            for k, c in vect_scale(b, Fraction(-1)).items():
                diff[k] = diff.get(k, C.zero()) + c
            assert not any(diff.values()), f"paths disagree at {w}"
    # plus 100 random (taylor, word) samples
    for _ in range(100):
        T = rand_taylor()
        w = rng.choice(spanning)
        a = explicit_identity_residual(T, src, tgt, w)
        b = coalgebra_identity_residual(T, src, tgt, w)
        diff = dict(a)
        for k, c in vect_scale(b, Fraction(-1)).items():
            diff[k] = diff.get(k, C.zero()) + c
        assert not any(diff.values())
    # frozen sign table regression
    import os
    with open(os.path.join(os.path.dirname(__file__), "golden",
                           "identity_sign_table.json")) as fh:
        table = json.load(fh)
    for key, entry in table.items():
        pat = tuple(json.loads(key))
        d = identity_sign_data(pat)
        assert [[k, s] for k, s in d["internal_d"]] == entry["internal_d"]
        assert [[list(B), list(r), s] for B, r, s in d["bracket_target"]] == \
            entry["bracket_target"]
        assert [[k, l, s] for k, l, s in d["bracket_source"]] == \
            entry["bracket_source"]
    report("A6", 20, t0,
           "explicit identity == coalgebra path on the spanning set (8 Taylor "
           "datasets) + 100 random samples; sign table frozen")


def test_a7_hkr_shadow():
    t0 = time.time()
    assert u1_chain_check(2, 60, seed=707)["ok"]
    assert u1_chain_check(3, 40, seed=708)["ok"]
    # golden case
    n = 2
    op = u1(PolyVec(n, {(1, 2): Poly.one(n)}))
    rng = random.Random(709)
    for _ in range(10):
        c1, c2 = rand_poly(rng, n, 2), rand_poly(rng, n, 2)
        want = (c1.partial(1) * c2.partial(2) -
                c1.partial(2) * c2.partial(1)).scale(Fraction(1, 2))
        assert op.apply([c1, c2]) == want
    for n in (1, 2):
        rep = hkr_report(TruncationSpec(n, 2, 2, -1, 1))
        assert rep["ok"], f"rank table failed for n={n}"
        for row in rep["rows"]:
            if row["window_reliable"]:
                assert row["p"] in (-1, 0)
                assert row["match"] and row["u1_injective"] and row["u1_spans_H"]
    report("A7", 60, t0,
           "d∘u1=0 on 100 samples; golden antisymmetrization case; "
           "rank H^p == dim T^p for p in {-1,0}, n in {1,2}")


def test_a8_finiteness_bound():
    t0 = time.time()
    rng = random.Random(808)
    QQ = rational_field()
    A = dga_tensor(make_truncated_poly_dga([1, 1], 2, names=["th1", "th2"]),
                   make_truncated_poly_dga([0], 3))
    a_deg1 = [i for i in range(len(A)) if A.degrees[i] == 1 and i in A.ideal]
    bound_hits = 0
    for trial in range(50):
        dim = rng.randint(2, 3)
        degs = sorted(rng.choice([0, 1]) for _ in range(dim))
        ms = GradedBasisModule("s", [(f"s{i}", d) for i, d in enumerate(degs)], QQ)
        mt = GradedBasisModule("t", [(f"t{i}", d) for i, d in enumerate(degs)], QQ)
        src, tgt = LinfAlgebra.abelian(ms, 6), LinfAlgebra.abelian(mt, 6)
        maps = {}
        for j in (1, 2, 3):
            tab = {}
            for w in src.shifted.words(j):
                v = {}
                for g in range(len(mt)):
                    if tgt.shifted.degree(g) == word_degree(src.shifted, w):
                        q = Fraction(rng.randint(-2, 2))
                        if q:
                            v[g] = QQ.scalar(q)
                if v:
                    tab[w] = v
            if tab:
                maps[j] = tab
        psi = LinfMorphism(src, tgt,
                           TaylorSeq(src.shifted, tgt.shifted, maps, "morphism"),
                           check=False)
        ext = extend_multilinear(psi, A, 6, check=(trial < 3))
        sh = ext.source.shifted
        pairs = ext.source.tensor_pairs
        pidx = {p: i for i, p in enumerate(pairs)}
        # the morphism axiom on sampled words
        words = sh.words_up_to(2)
        rng.shuffle(words)
        for w in words[:12]:
            x = CoalgElem(sh, {w: QQ.one()})
            assert ext.psi(ext.source.Q(x)) == ext.target.Q(ext.psi(x)), \
                "extension fails the morphism axiom"
        # omega in A^1 x g^0; no nonzero term beyond the degree-count bound
        g_deg0 = [i for i in range(len(ms)) if ms.degree(i) == 0]
        if not g_deg0:
            continue
        omv = {}
        for ai in a_deg1:
            gi = rng.choice(g_deg0)
            q = Fraction(rng.randint(-1, 1))
            if q:
                omv[pidx[(ai, gi)]] = QQ.scalar(q)
        om = CoalgElem.from_vect(sh, omv, 6)
        r0 = tgt.lower_bound()
        for w in words[:10]:
            if not w:
                continue
            gdegs = [ms.degree(pairs[i][1]) for i in w]
            k0 = finiteness_bound(len(w), gdegs, r0)
            power = CoalgElem.unit(sh, 6)
            for k in range(1, k0 + 3):
                power = power * om
                if power.is_zero():
                    break
                if k > k0:
                    for u, cc in power.words.items():
                        assert not ext.taylor.eval_word(u + w), \
                            "nonzero term beyond the k0 bound"
                        bound_hits += 1
    assert bound_hits > 0
    # Q = 0 on both abelian extensions above, so their axiom holds for any
    # table.  Here Q != 0: the non-strict morphism of demos/07_extension.py,
    # over a base with d x = y, extended over A, over Lambda(th)xQ[h]/(h^3)
    # with d th = h, and over Lambda(th1,th2)xQ[h]/(h^3) with d th1 = h, the
    # one of the three where two odd coefficients have a nonzero product
    demo = samples.split_line_morphism()
    axiom_words = 0
    for B in (A, make_truncated_poly_dga([-1, 0], 3, names=["th", "h"],
                                         differential={"th": {"h": 1}}),
              make_truncated_poly_dga([-1, 1, 0], 3, names=["th1", "th2", "h"],
                                      differential={"th1": {"h": 1}})):
        ext = extend_multilinear(demo, B)
        sh = ext.source.shifted
        for w in sh.words_up_to(3):
            x = CoalgElem(sh, {w: QQ.one()})
            assert ext.psi(ext.source.Q(x)) == ext.target.Q(ext.psi(x)), \
                f"extension over {B.basis} fails the morphism axiom at {w}"
            axiom_words += 1
    report("A8", 30, t0,
           f"50 multilinear extensions over Lambda(th1,th2)xQ[h]/(h^3): "
           f"morphism axiom sampled, {bound_hits} beyond-bound terms all zero; "
           f"a non-strict morphism with d != 0 extended over three algebras, two "
           f"with d != 0: morphism axiom on all {axiom_words} words up to order 3")


def test_a9_negative_controls():
    t0 = time.time()
    rng = random.Random(909)
    C = make_truncated_poly_dga([0], 4)
    # (1) a non-MC omega twisted under the override has Q_w^2 != 0, with witness
    alg = samples.sample_dgla(rng, C, family="odd_square", scramble=False)
    bad = samples.sample_non_mc(rng, alg)
    assert bad is not None
    tw1 = twist_coder(alg, bad, allow_non_mc=True)
    rep1 = tw1.check_square_zero()
    tw2 = twist_coder(alg, bad, allow_non_mc=True)
    rep2 = tw2.check_square_zero()
    assert not rep1.ok and rep1.violations[0]["witness"]
    assert rep1.violations == rep2.violations  # deterministic failure
    # through the CLI as well
    doc = jsonio.instance_to_json(alg, omega=bad)
    import tempfile, os
    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w") as fh:
        json.dump(doc, fh)
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli_run(["twist-check", "--instance", path, "--allow-non-mc"])
        outs.append((code, buf.getvalue()))
    os.unlink(path)
    assert outs[0][0] == 1 and json.loads(outs[0][1])["witness"]
    assert outs[0] == outs[1]
    # (2) the first-coefficient-only plugin fails the arity-2 identity
    reps = [kontsevich_conditions(trivial_plugin(), n=2, samples=10, seed=909,
                                  max_arity=2) for _ in range(2)]
    for rep in reps:
        cond = rep["conditions"]["i_linf_identity"]
        assert not cond["ok"] and cond["witnesses"][0]["arity"] == 2
        assert cond["witnesses"][0]["residual"]
        assert rep["conditions"]["iv_first_coefficient"]["ok"]
        assert rep["conditions"]["v_vector_fields"]["ok"]
        assert rep["conditions"]["vi_linear_first_slot"]["ok"]
    assert json.dumps(reps[0], sort_keys=True) == json.dumps(reps[1], sort_keys=True)
    report("A9", 60, t0,
           "non-MC twist breaks square-zero with witness; first-coefficient-"
           "only plugin fails arity 2 with witness; both deterministic")


def test_a10_cli_determinism():
    t0 = time.time()

    def capture(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli_run(argv)
        return code, buf.getvalue()

    # selftest suite green, byte-identical reruns under the fixed seed
    c1, o1 = capture(["selftest"])
    c2, o2 = capture(["selftest"])
    assert c1 == c2 == 0
    assert o1 == o2
    assert json.loads(o1)["ok"]
    # parse/serialize round-trips on random values of each kind
    rng = random.Random(1010)
    count = 0
    while count < 200:
        n = rng.randint(1, 3)
        kind = rng.choice(["poly", "polyvec", "polydiffop"])
        if kind == "poly":
            x = rand_poly(rng, n, 3)
        elif kind == "polyvec":
            x = rand_vec(rng, n, rng.randint(-1, n - 1))
        else:
            mi = tuple(rng.randint(0, 2) for _ in range(n))
            x = PolyDiffOp(n, {(mi,): rand_poly(rng, n, 2)})
        if x.is_zero():
            continue
        assert parse_element(x.text(), kind, n) == x
        count += 1
    # deterministic verb outputs
    for argv in (["schouten", "d1/\\d2", "t1*t2", "--n", "2"],
                 ["hkr-report", "--n", "1", "--window", "-1", "1"],
                 ["kontsevich-check", "--n", "2", "--samples", "6", "--seed", "3"]):
        r1, r2 = capture(argv), capture(argv)
        assert r1 == r2
    report("A10", 60, t0,
           f"selftest green and byte-identical; {count} grammar round-trips; "
           "verb outputs byte-identical under fixed seed")
