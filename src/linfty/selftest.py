"""Deterministic self-verification suite, shared by the CLI and the tests.

Every check is a compact version of a module invariant; all randomness flows
from one explicit seed (the CLI's --seed), so two runs with the same seed
produce identical reports.
"""

from __future__ import annotations

import itertools
import random

from . import hkr, samples
from .coalg import (CoalgElem, GradedBasisModule, TaylorSeq, exp, is_grouplike,
                    is_primitive, ln, pi_tilde, tau, tensor_comult, word_degree)
from .diffop import (PolyDiffOp, filtration_check, gerstenhaber,
                     gerstenhaber_apply_oracle, hochschild_d, mu)
from .grammar import parse_element
from .linf import (conjugation_twist, extend_multilinear, linf_identity_check, mc_push,
                   mc_residue, mc_residue_dgla, operators_agree, twist_coder, twist_morphism)
from .poly import Poly
from .polyvec import PolyVec, schouten
from .scalars import _acc, dga_check, frac, ksign, make_truncated_poly_dga


def _rand_poly(rng, n):
    out = Poly.zero(n)
    for _ in range(rng.randint(1, 2)):
        e = tuple(rng.randint(0, 1) for _ in range(n))
        if sum(e) <= 2:
            out = out + Poly.monomial(e, rng.randint(-2, 2))
    return out


def _rand_vec(rng, n, p):
    words = list(itertools.combinations(range(1, n + 1), p + 1))
    out = PolyVec.zero(n)
    for _ in range(rng.randint(1, 2)):
        out = out + PolyVec(n, {rng.choice(words): _rand_poly(rng, n)})
    return out


def _rand_op(rng, n, p):
    out = PolyDiffOp.zero(n)
    for _ in range(rng.randint(1, 2)):
        word = tuple(tuple(rng.randint(0, 2) if v == rng.randrange(n) else rng.randint(0, 1)
                           for v in range(n)) for _ in range(p + 1))
        out = out + PolyDiffOp.basis(word, n, coeff=_rand_poly(rng, n))
    return out


def check_scalars(rng):
    for spec in ([0], 2), ([0], 3), ([1], 2), ([0, 1], 3):
        A = make_truncated_poly_dga(*spec)
        if not dga_check(A).ok:
            return False, f"builder algebra {spec} fails dga_check"
    for _ in range(30):
        a, b, c = (frac(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        if (a + b) * c != a * c + b * c or (a * b) * c != a * (b * c):
            return False, "rational field axioms"
    return True, "builders pass dga_check; rational arithmetic exact"


def check_schouten(rng):
    for _ in range(40):
        n = rng.randint(2, 3)
        p1, p2, p3 = (rng.randint(-1, n - 1) for _ in range(3))
        a, b, c = _rand_vec(rng, n, p1), _rand_vec(rng, n, p2), _rand_vec(rng, n, p3)
        if schouten(a, b) != schouten(b, a).scale(ksign(1 + p1 * p2)):
            return False, f"antisymmetry n={n} p=({p1},{p2})"
        lhs = schouten(a, schouten(b, c))
        rhs = schouten(schouten(a, b), c) + schouten(b, schouten(a, c)).scale(ksign(p1 * p2))
        if lhs != rhs:
            return False, f"jacobi n={n} p=({p1},{p2},{p3})"
    return True, "40 antisymmetry+jacobi instances"


def check_gerstenhaber(rng):
    for _ in range(30):
        n = rng.randint(1, 2)
        p, q, r = rng.randint(-1, 2), rng.randint(-1, 2), rng.randint(-1, 2)
        a, b, c = _rand_op(rng, n, p), _rand_op(rng, n, q), _rand_op(rng, n, r)
        if hochschild_d(hochschild_d(a)).terms:
            return False, "d^2 != 0"
        if hochschild_d(a) != gerstenhaber(mu(n), a):
            return False, "d != [mu, -]"
        if not filtration_check(a, b):
            return False, "order filtration bound"
        # a, b and c each enter several brackets, as in the bracket benchmark
        if gerstenhaber(a, gerstenhaber(b, c)) != gerstenhaber(gerstenhaber(a, b), c) + \
                gerstenhaber(b, gerstenhaber(a, c)).scale(ksign(p * q)):
            return False, f"jacobi n={n} p=({p},{q},{r})"
        if not a.terms or not b.terms:
            continue
        pa, pb = a.degrees()[0], b.degrees()[0]
        if pa + pb + 1 < 0:
            continue
        args = [_rand_poly(rng, n) for _ in range(pa + pb + 1)]
        if gerstenhaber(a, b).component(pa + pb).apply(args) != \
                gerstenhaber_apply_oracle(a, b, args):
            return False, "bracket disagrees with the apply oracle"
    return True, "30 instances: d^2=0, d=[mu,-], filtration, jacobi, apply oracle"


def check_coalgebra(rng):
    C = make_truncated_poly_dga([0], 3)
    m = GradedBasisModule("g", [("a", 0), ("b", 0), ("c", 1)], C)
    for w in m.words_up_to(3):
        x = CoalgElem(m, {w: C.one()})
        lhs = {}
        for (w1, w2), c in x.comult().items():
            for v1, c1 in tau(CoalgElem(m, {w1: C.one()})).items():
                for v2, c2 in tau(CoalgElem(m, {w2: C.one()})).items():
                    add = c * c1 * c2
                    if add:
                        _acc(lhs, (v1, v2), add)
        if lhs != tensor_comult(tau(x)) or pi_tilde(m, tau(x)) != x:
            return False, f"symmetrization identities at {w}"
    h = C.gen("h")
    om = CoalgElem.generator(m, "a").scale(h)
    e = exp(om)
    if not (is_grouplike(e) and ln(e) == om and is_primitive(om)):
        return False, "exp/ln/primitive basics"
    return True, "symmetrization + exp/ln on a 3-generator module"


def check_mc_twist(rng):
    C = samples.default_coefficients(4)
    for _ in range(8):
        alg = samples.sample_dgla(rng, C)
        om = samples.sample_mc(rng, alg)
        residue = mc_residue(alg, om.vect)
        if residue:
            return False, "sampled MC has nonzero residue"
        if residue != mc_residue_dgla(alg, om.vect):
            return False, "residue closed form disagrees"
        e = om.exp()
        if not alg.Q(e).is_zero():
            return False, "Q(exp w) != 0 for MC w"
        tw = twist_coder(alg, om)
        if not tw.check_square_zero().ok:
            return False, "twisted coderivation not square zero"
        conj = conjugation_twist(alg, om)
        if not operators_agree(tw.Q, conj, alg.shifted, 2).ok:
            return False, "conjugation route disagrees with the Taylor twist"
    return True, "8 twist instances with conjugation cross-check"


def check_morphisms(rng):
    C = samples.default_coefficients(4)
    for _ in range(6):
        a, b, mor = samples.sample_abelian_pair(rng, C)
        if not mor.check_intertwines().ok:
            return False, "abelian-pair morphism fails"
        om = samples.sample_mc(rng, a)
        omp = mc_push(mor, om)
        if mor.psi(om.exp()) != omp.exp():
            return False, "exp naturality (pushforward) fails"
        tm = twist_morphism(mor, om)
        if not (tm.source.check_square_zero().ok and tm.target.check_square_zero().ok):
            return False, "twisted end not square zero"
        if not tm.check_intertwines().ok:
            return False, "twisted morphism fails to intertwine"
    return True, "6 morphism instances with pushforward + twist"


def check_identity_paths(rng):
    C = samples.default_coefficients(4)
    src = samples.sample_dgla(rng, C, family="weighted", scramble=False)
    tgt = samples.sample_dgla(rng, C, family="cross", scramble=False)
    sh_s, sh_t = src.shifted, tgt.shifted
    for _ in range(6):
        maps = {}
        for j in (1, 2):
            tab = {}
            for w in sh_s.words(j):
                v = {}
                for g in range(len(sh_t)):
                    if sh_t.degree(g) == word_degree(sh_s, w) and rng.random() < 0.7:
                        q = rng.randint(-2, 2)
                        if q:
                            v[g] = C.scalar(q)
                if v:
                    tab[w] = v
            if tab:
                maps[j] = tab
        T = TaylorSeq(sh_s, sh_t, maps, "morphism")
        rep = linf_identity_check(T, src, tgt, sh_s.words_up_to(3))
        if not rep.ok:
            return False, "explicit identity disagrees with coalgebra path"
    return True, "6 random Taylor datasets, both identity paths agree"


def check_extension(rng):
    # Q != 0 on both ends, and th1 * th2 != 0 with both odd, so the crossing
    # signs and the order of the coefficient product all reach the axiom
    psi = samples.split_line_morphism()
    A = make_truncated_poly_dga([-1, 1, 0], 2, names=["th1", "th2", "h"],
                                differential={"th1": {"h": 1}})
    ext = extend_multilinear(psi, A)
    sh, one = ext.source.shifted, ext.source.module.coeff.one()
    for w in rng.sample(sh.words_up_to(3), 60):
        x = CoalgElem(sh, {w: one})
        if ext.psi(ext.source.Q(x)) != ext.target.Q(ext.psi(x)):
            return False, f"extended morphism axiom at {[sh.gen_name(i) for i in w]}"
    return True, "split_line morphism over Lambda(th1,th2)xQ[h]/(h^2), d th1 = h: 60 words"


def check_hkr(rng):
    rep = hkr.u1_chain_check(2, 20, seed=rng.randint(0, 10 ** 6))
    if not rep["ok"]:
        return False, "d∘u1 != 0"
    spec = hkr.TruncationSpec(1, 2, 2, -1, 1)
    out = hkr.hkr_report(spec)
    if not out["ok"]:
        return False, "rank comparison failed for n=1"
    return True, "chain map + n=1 rank table"


def check_grammar(rng):
    for _ in range(40):
        n = rng.randint(1, 3)
        kind = rng.choice(["poly", "polyvec", "polydiffop"])
        if kind == "poly":
            x = _rand_poly(rng, n)
        elif kind == "polyvec":
            x = _rand_vec(rng, n, rng.randint(-1, n - 1))
        else:
            x = _rand_op(rng, n, rng.randint(-1, 1))
        if x.is_zero():
            continue
        if parse_element(x.text(), kind, n) != x:
            return False, f"parse∘text != id for {kind} {x.text()!r}"
    return True, "40 parse/serialize round-trips"


CHECKS = [
    ("scalars", check_scalars),
    ("schouten", check_schouten),
    ("gerstenhaber_hochschild", check_gerstenhaber),
    ("coalgebra", check_coalgebra),
    ("mc_twist", check_mc_twist),
    ("morphisms", check_morphisms),
    ("identity_paths", check_identity_paths),
    ("extension", check_extension),
    ("hkr", check_hkr),
    ("grammar", check_grammar),
]


def run(seed) -> dict:
    results = []
    for name, fn in CHECKS:
        rng = random.Random((seed, name).__repr__())
        ok, detail = fn(rng)
        results.append({"name": name, "ok": bool(ok), "detail": detail})
    return {"seed": seed, "ok": all(r["ok"] for r in results), "checks": results}
