import gc
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from linfty.coalg import (CoalgElem, GradedBasisModule, TaylorSeq, coder_from_taylor,
                          exp, vect_scale, word_degree)
from linfty.linf import (LinfAlgebra, LinfMorphism, MCElement, _scaled_powers,
                         coalgebra_identity_residual, conjugation_twist,
                         conjugation_twist_morphism, dgla_check,
                         dgla_tables_from_taylor, explicit_identity_residual,
                         extend_multilinear, finiteness_bound,
                         identity_sign_data, linf_identity_check, mc_push,
                         mc_residue, mc_residue_dgla, operators_agree,
                         tensor_dgla, twist_coder, twist_morphism, twist_taylor)
from linfty.samples import (default_coefficients, sample_abelian_pair,
                            sample_dgla, sample_mc, sample_non_mc,
                            strict_base_change_morphism)
from linfty.scalars import (CoeffDGA, _acc, dga_tensor, ksign, make_truncated_poly_dga,
                            rational_field)
from reference_checks import intertwine_witnesses, square_zero_witnesses

HERE = os.path.dirname(__file__)


@pytest.fixture
def C4():
    return default_coefficients(4)


def weighted(C):
    m = GradedBasisModule("g", [("x", 0), ("y", 1), ("z", 1)], C)
    return LinfAlgebra.from_dgla(m, {"x": {"y": 1}},
                                 {("x", "y"): {"y": 1}, ("x", "z"): {"z": 1}})


class TestFromDgla:
    def test_abelian_gives_zero_coderivation(self, C4):
        m = GradedBasisModule("g", [("x", 0), ("y", 1)], C4)
        alg = LinfAlgebra.abelian(m)
        assert not alg.taylor.maps
        assert not square_zero_witnesses(alg.taylor, 3)

    def test_two_dim_with_differential(self, C4):
        m = GradedBasisModule("g", [("x", 0), ("y", 1)], C4)
        alg = LinfAlgebra.from_dgla(m, {"x": {"y": 1}}, {})
        assert not square_zero_witnesses(alg.taylor, 4)

    def test_sl2_bracket_table(self, C4):
        m = GradedBasisModule("sl2", [("e", 0), ("h", 0), ("f", 0)], C4)
        alg = LinfAlgebra.from_dgla(
            m, {}, {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2},
                    ("e", "f"): {"h": 1}})
        assert not square_zero_witnesses(alg.taylor, 4)

    def test_axiom_failure_has_witness(self, C4):
        m = GradedBasisModule("bad", [("x", 0), ("y", 1)], C4)
        with pytest.raises(ValueError, match="antisymmetry"):
            # [x, x] = x violates graded antisymmetry in even degree
            LinfAlgebra.from_dgla(m, {}, {("x", "x"): {"x": 1}})
        with pytest.raises(ValueError, match="leibniz"):
            # d(x) = y, [x, y] = y forces d[x,y] = 0 but [dx, y] = [y, y] := z... absent;
            # breaking Leibniz directly: make d(y) nonzero via a third generator
            m3 = GradedBasisModule("bad3", [("x", 0), ("y", 1), ("z", 2)], C4)
            LinfAlgebra.from_dgla(m3, {"y": {"z": 1}},
                                  {("x", "y"): {"y": 1}})

    def test_prop_9_4_forward(self, C4):
        rng = random.Random(3)
        for _ in range(6):
            alg = sample_dgla(rng, C4)
            assert not square_zero_witnesses(alg.taylor, 4)

    def test_prop_9_4_converse(self, C4):
        # a square-zero coderivation with no higher coefficients yields DGLA tables
        rng = random.Random(5)
        for _ in range(6):
            alg = sample_dgla(rng, C4)
            custom = LinfAlgebra(alg.module, alg.taylor)
            assert not square_zero_witnesses(custom.taylor, 3)
            d_table, bracket = dgla_tables_from_taylor(custom.module, custom.taylor)
            assert dgla_check(custom.module, d_table, bracket).ok


class TestMCResidue:
    def test_abelian_zero_d_everything_is_mc(self, C4):
        m = GradedBasisModule("g", [("x", 1), ("y", 1)], C4)
        alg = LinfAlgebra.abelian(m)
        h = C4.gen("h")
        assert not mc_residue(alg, {"x": h, "y": h * h})

    def test_closed_form_agreement(self, C4):
        rng = random.Random(7)
        for _ in range(10):
            alg = sample_dgla(rng, C4)
            deg1 = [i for i in range(len(alg.module)) if alg.module.degree(i) == 1]
            v = {}
            for i in deg1:
                q = Fraction(rng.randint(-2, 2))
                if q:
                    v[i] = C4.gen("h").scale(q)
            assert mc_residue(alg, v) == mc_residue_dgla(alg, v)

    def test_powers_stop_at_the_longest_taylor_coefficient(self, C4):
        # a DGLA's Taylor coefficients have order <= 2, so omega^3 = h^3 (y + z)^3
        # is never built: an element guard of W = 2 leaves the residue and the
        # twist as they are without one
        m = GradedBasisModule("g", [("x", 0), ("y", 1), ("z", 1)], C4)
        alg = LinfAlgebra.from_dgla(m, {"x": {"y": 1}},
                                    {("x", "y"): {"y": 1}, ("x", "z"): {"z": 1}}, 2)
        h = C4.gen("h")
        omega = {"y": h, "z": h}
        assert not mc_residue(alg, omega)
        assert twist_coder(alg, omega).taylor.maps == twist_coder(weighted(C4), omega).taylor.maps
        om = CoalgElem.from_vect(alg.shifted, {1: h, 2: h}, 2)
        assert _scaled_powers(om, 2) == (om + (om * om).scale(Fraction(1, 2))).words

    def test_degree_and_nilpotency_guards(self, C4):
        alg = weighted(C4)
        with pytest.raises(ValueError, match="degree 1"):
            mc_residue(alg, {"x": C4.gen("h")})
        with pytest.raises(ValueError, match="nilpotent"):
            mc_residue(alg, {"y": C4.one()})

    def test_residue_vanishes_iff_exponential_closed(self, C4):
        # residue = 0 iff Q(exp w) = 0, swept over a coefficient lattice
        m = GradedBasisModule("g", [("x", 0), ("y", 1), ("z", 2)], C4)
        alg = LinfAlgebra.from_dgla(
            m, {}, {("x", "y"): {"y": 1}, ("y", "y"): {"z": 1},
                    ("x", "z"): {"z": 2}})
        h = C4.gen("h")
        lattice = [C4.zero(), h, -h, h * h, h.scale(Fraction(1, 2))]
        checked = mc = 0
        for c in lattice:
            v = {"y": c} if c else {}
            res = mc_residue(alg, v)
            om = CoalgElem.from_vect(alg.shifted, {m.index[k]: x for k, x in v.items()})
            qe = alg.Q(exp(om))
            assert (not res) == qe.is_zero()
            checked += 1
            mc += not res
        assert checked == 5 and 0 < mc < checked  # both outcomes occurred


class TestMCPush:
    def test_identity(self, C4):
        alg = weighted(C4)
        om = MCElement(alg, {"y": C4.gen("h")})
        ident = LinfMorphism.identity(alg)
        assert mc_push(ident, om).vect == om.vect

    def test_strict_is_first_taylor(self, C4):
        alg = weighted(C4)
        phi = LinfMorphism.strict(alg, alg, {"x": {"x": 1}, "y": {"y": 1},
                                             "z": {"z": 3}})
        om = MCElement(alg, {"y": C4.gen("h"), "z": C4.gen("h")})
        pushed = mc_push(phi, om)
        assert pushed.vect == {alg.module.index["y"]: C4.gen("h"),
                               alg.module.index["z"]: C4.gen("h").scale(3)}

    def test_random_strict_morphisms_push_to_mc(self, C4):
        rng = random.Random(11)
        for _ in range(10):
            alg = sample_dgla(rng, C4)
            phi = strict_base_change_morphism(rng, alg)
            om = sample_mc(rng, alg)
            pushed = mc_push(phi, om)
            assert not mc_residue(phi.target, pushed.vect)

    def test_exp_naturality_under_pushforward(self, C4):
        rng = random.Random(13)
        for _ in range(8):
            a, b, mor = sample_abelian_pair(rng, C4)
            om = sample_mc(rng, a)
            pushed = mc_push(mor, om)
            assert mor.psi(om.exp()) == pushed.exp()

    def test_non_mc_rejected(self, C4):
        alg = sample_dgla(random.Random(17), C4, family="odd_square",
                          scramble=False)
        bad = sample_non_mc(random.Random(19), alg)
        assert bad is not None
        with pytest.raises(ValueError, match="Maurer-Cartan"):
            MCElement(alg, bad, check=True)


class TestTwist:
    def test_zero_twist_is_identity(self, C4):
        alg = weighted(C4)
        tw = twist_coder(alg, {})
        assert tw.taylor.maps == alg.taylor.maps
        assert not square_zero_witnesses(tw.taylor, 3)

    def test_twisted_differential_closed_form(self, C4):
        rng = random.Random(23)
        for _ in range(8):
            alg = sample_dgla(rng, C4)
            om = sample_mc(rng, alg)
            tw = twist_coder(alg, om)
            assert tw.is_dgla
            assert not square_zero_witnesses(tw.taylor, 3)
            d_t, br_t = dgla_tables_from_taylor(alg.module, tw.taylor)
            d_0, br_0 = alg.dgla_tables()
            for i in range(len(alg.module)):
                want = dict(d_0.get(i, {}))
                ad = alg.bracket_of(om.vect, {i: C4.one()})
                for k, c in ad.items():
                    want[k] = want.get(k, C4.zero()) + c
                want = {k: c for k, c in want.items() if c}
                assert d_t.get(i, {}) == want
            assert br_t == {k: v for k, v in br_0.items() if v}

    def test_heisenberg_style_odd_top(self, C4):
        C3 = make_truncated_poly_dga([0], 3)
        m = GradedBasisModule("heis1", [("f", 0), ("e", 1), ("c", 1)], C3)
        alg = LinfAlgebra.from_dgla(m, {}, {("f", "e"): {"c": 1}})
        om = MCElement(alg, {"e": C3.gen("h")})
        tw = twist_coder(alg, om)
        assert not square_zero_witnesses(tw.taylor, 4)
        d_t, _ = dgla_tables_from_taylor(m, tw.taylor)
        # d_w(f) = [w, f] = -h [f, e] = -h c
        assert d_t[m.index["f"]] == {m.index["c"]: -C3.gen("h")}

    def test_conjugation_oracle_word_for_word(self, C4):
        rng = random.Random(29)
        for _ in range(8):
            alg = sample_dgla(rng, C4)
            om = sample_mc(rng, alg)
            tw = twist_coder(alg, om)
            assert not square_zero_witnesses(tw.taylor, 3)
            conj = conjugation_twist(alg, om)
            assert operators_agree(tw.Q, conj, alg.shifted, 3).ok

    def test_non_mc_twist_requires_override_and_breaks(self, C4):
        alg = sample_dgla(random.Random(31), C4, family="odd_square",
                          scramble=False)
        bad = sample_non_mc(random.Random(37), alg)
        with pytest.raises(ValueError):
            twist_coder(alg, bad)
        tw = twist_coder(alg, bad, allow_non_mc=True)
        rep = tw.check_square_zero()
        assert not rep.ok and rep.violations[0]["witness"]

    def test_override_keeps_the_degree_check(self, C4):
        # allow_non_mc skips only the MC check: omega = h*x with |x| = 0 puts h*[x, y]
        # into d(y), of degree |y|, and the twisted table rejects it
        alg = weighted(C4)
        omega = {alg.module.index["x"]: C4.gen("h")}
        with pytest.raises(ValueError, match="degree mismatch"):
            twist_coder(alg, omega, allow_non_mc=True)


def assert_twisted_ends_square_zero(tm):
    for end in (tm.source, tm.target):
        assert not square_zero_witnesses(end.taylor, 3)


class TestTwistMorphism:
    def test_zero_twist(self, C4):
        alg = weighted(C4)
        phi = LinfMorphism.strict(alg, alg, {"x": {"x": 1}, "y": {"y": 1},
                                             "z": {"z": 1}})
        om = MCElement(alg, {})
        tm = twist_morphism(phi, om)
        assert tm.taylor.maps == phi.taylor.maps
        assert_twisted_ends_square_zero(tm)
        assert not intertwine_witnesses(tm.taylor, tm.source.taylor, tm.target.taylor, 3)

    def test_strict_twists_to_strict(self, C4):
        alg = weighted(C4)
        phi = LinfMorphism.strict(alg, alg, {"x": {"x": 1}, "y": {"y": 1},
                                             "z": {"z": 3}})
        om = MCElement(alg, {"y": C4.gen("h")})
        tm = twist_morphism(phi, om)
        assert tm.is_strict()
        assert_twisted_ends_square_zero(tm)
        assert tm.taylor.maps.get(1) == phi.taylor.maps.get(1)
        assert not intertwine_witnesses(tm.taylor, tm.source.taylor, tm.target.taylor, 3)

    def test_randomized_morphism_twists_intertwine(self, C4):
        rng = random.Random(41)
        for _ in range(6):
            alg = sample_dgla(rng, C4)
            phi = strict_base_change_morphism(rng, alg)
            om = sample_mc(rng, alg)
            tm = twist_morphism(phi, om)
            assert_twisted_ends_square_zero(tm)
            assert not intertwine_witnesses(tm.taylor, tm.source.taylor, tm.target.taylor, 3)

    def test_nonstrict_twist_and_conjugation_route(self, C4):
        rng = random.Random(43)
        a, b, mor = sample_abelian_pair(rng, C4)
        om = sample_mc(rng, a)
        tm = twist_morphism(mor, om)
        assert_twisted_ends_square_zero(tm)
        assert not intertwine_witnesses(tm.taylor, tm.source.taylor, tm.target.taylor, 3)
        conj = conjugation_twist_morphism(mor, om)
        assert operators_agree(tm.psi, conj, a.shifted, 3).ok


def counting(monkeypatch, cls, attr):
    """Replace cls.attr by a wrapper that records each call; returns the record."""
    calls = []
    fn = getattr(cls, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(cls, attr, counted)
    return calls


class TestBasisWordsReadColumns:
    def test_checks_build_no_coalgebra_element(self, C4, monkeypatch):
        # each check reads operator columns; no element wraps a basis word
        rng = random.Random(47)
        alg = sample_dgla(rng, C4, family="weighted")
        tw = twist_coder(alg, sample_mc(rng, alg))
        strict = strict_base_change_morphism(rng, alg)
        _, _, nonstrict = sample_abelian_pair(rng, C4)
        other = coder_from_taylor(tw.taylor)
        inits = counting(monkeypatch, CoalgElem, "__init__")
        for check in (tw.check_square_zero, strict.check_intertwines,
                      nonstrict.check_intertwines,
                      lambda: operators_agree(tw.Q, other, alg.shifted, 3)):
            assert check().ok
            assert inits == []

    def test_twist_taylor_builds_each_power_once(self, C4, monkeypatch):
        # omega = h(y + z) has nonzero powers up to omega^3 over Q[h]/(h^4)
        alg = weighted(C4)
        h = C4.gen("h")
        om = CoalgElem.from_vect(alg.shifted, {1: h, 2: h})
        products = counting(monkeypatch, CoalgElem, "__mul__")
        twist_taylor(alg.taylor, om)
        assert 0 < len(products) <= alg.taylor.max_j() + 1


class TestExplicitIdentity:
    def test_strict_dgla_morphism_passes(self, C4):
        alg = weighted(C4)
        phi = LinfMorphism.strict(alg, alg, {"x": {"x": 1}, "y": {"y": 1},
                                             "z": {"z": 3}})
        rep = linf_identity_check(phi.taylor, alg, alg,
                                  alg.shifted.words_up_to(3))
        assert rep.ok
        for w in alg.shifted.words_up_to(3):
            assert not explicit_identity_residual(phi.taylor, alg, alg, w)

    def test_paths_agree_on_arbitrary_taylor_data(self, C4):
        rng = random.Random(47)
        src = weighted(C4)
        mt = GradedBasisModule("t", [("c", 0), ("b", 0), ("a", 1)], C4)
        tgt = LinfAlgebra.from_dgla(mt, {"b": {"a": 1}},
                                    {("c", "b"): {"b": 1}, ("c", "a"): {"a": 1}})
        for _ in range(10):
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
                                v[g] = C4.scalar(q)
                    if v:
                        tab[w] = v
                if tab:
                    maps[j] = tab
            T = TaylorSeq(src.shifted, tgt.shifted, maps, "morphism")
            assert linf_identity_check(T, src, tgt, src.shifted.words_up_to(3)).ok

    def test_corrupted_second_coefficient_fails_both_paths_same_word(self, C4):
        alg = weighted(C4)
        phi = LinfMorphism.strict(alg, alg, {"x": {"x": 1}, "y": {"y": 1},
                                             "z": {"z": 1}})
        maps = {1: dict(phi.taylor.maps[1])}
        sh = alg.shifted
        # inject a spurious degree-correct psi_2 on the word (x, y): value x
        maps[2] = {(0, 1): {0: C4.one()}}
        T = TaylorSeq(sh, sh, maps, "morphism")
        bad_words = []
        for w in sh.words_up_to(3):
            a = explicit_identity_residual(T, alg, alg, w)
            b = coalgebra_identity_residual(T, alg, alg, w)
            assert (not a) == (not b)
            diff = dict(a)
            for k, c in vect_scale(b, Fraction(-1)).items():
                diff[k] = diff.get(k, C4.zero()) + c
            assert not any(diff.values())
            if a:
                bad_words.append(w)
        assert bad_words  # the corruption is visible, at identical words

    def test_wrong_degree_taylor_rejected(self, C4):
        alg = weighted(C4)
        sh = alg.shifted
        with pytest.raises(ValueError, match="degree"):
            TaylorSeq(sh, sh, {1: {(0,): {1: C4.one()}}}, "morphism")

    def test_frozen_sign_table(self):
        # regression: the sign rule reproduces the frozen spanning-set table
        with open(os.path.join(HERE, "golden", "identity_sign_table.json")) as fh:
            table = json.load(fh)
        assert len(table) == 11
        for key, entry in table.items():
            pat = tuple(json.loads(key))
            d = identity_sign_data(pat)
            assert [[k, s] for k, s in d["internal_d"]] == entry["internal_d"]
            assert [[list(B), list(r), s] for B, r, s in d["bracket_target"]] == \
                entry["bracket_target"]
            assert [[k, l, s] for k, l, s in d["bracket_source"]] == \
                entry["bracket_source"]


class TestExtension:
    def test_base_field_extension_is_identity(self, C4):
        QQ = rational_field()
        m = GradedBasisModule("g", [("x", 0), ("y", 1)], QQ)
        alg = LinfAlgebra.from_dgla(m, {"x": {"y": 1}}, {})
        phi = LinfMorphism.strict(alg, alg, {"x": {"x": 1}, "y": {"y": 1}})
        ext = extend_multilinear(phi, QQ)
        assert ext.taylor.maps[1] == phi.taylor.maps[1]

    def test_odd_coefficient_sign_flip(self):
        # two odd algebra factors crossing an odd suspended letter flip signs
        QQ = rational_field()
        L = make_truncated_poly_dga([1, 1], 2, names=["th1", "th2"])
        m = GradedBasisModule("g", [("u", 0), ("v", 1), ("w", 2)], QQ)
        alg = LinfAlgebra.abelian(m)
        sh = alg.shifted
        maps = {2: {(m.index["v"], m.index["w"]): {m.index["w"]: QQ.one()}}}
        # word (v, w): shifted degrees (0, 1); value degree 1 -> w
        psi = LinfMorphism(alg, alg,
                           TaylorSeq(sh, sh, maps, "morphism"), check=False)
        ext = extend_multilinear(psi, L)
        pairs = ext.source.tensor_pairs
        pidx = {p: i for i, p in enumerate(pairs)}
        tp = {p: i for i, p in enumerate(ext.target.tensor_pairs)}
        i1 = pidx[(L.index["th1"], m.index["v"])]   # th1 | v, shifted odd? v sdeg 0
        i2 = pidx[(L.index["th2"], m.index["w"])]   # th2 | w, w sdeg 1
        val = ext.taylor.eval_word((i1, i2))
        th12 = L.index["th1*th2"]
        # sign = ksign(deg th2 * sdeg v) = ksign(1*0) = +1
        assert val == {tp[(th12, m.index["w"])]: QQ.one()}
        # now with the odd suspended letter first: (th1|w, th2|v)
        j1 = pidx[(L.index["th1"], m.index["w"])]
        j2 = pidx[(L.index["th2"], m.index["v"])]
        val2 = ext.taylor.eval_word((j1, j2))
        # canonical evaluation of psi2 on (w, v) plus th2 crossing sdeg(w)=1
        assert val2 == {tp[(th12, m.index["w"])]: -QQ.one()}

    def test_tensor_dgla_matches_structure_formulas(self, C4):
        QQ = rational_field()
        m = GradedBasisModule("g", [("x", 0), ("y", 1)], QQ)
        alg = LinfAlgebra.from_dgla(m, {"x": {"y": 1}}, {("x", "y"): {"y": 1}})
        A = make_truncated_poly_dga([1], 2)   # Lambda(th)
        ext = tensor_dgla(A, alg)
        d_t, br_t = ext.dgla_tables()
        pairs = ext.tensor_pairs
        pidx = {p: i for i, p in enumerate(pairs)}
        th, one = A.index["th"], A.unit_index
        x, y = m.index["x"], m.index["y"]
        # d(th|x) = -th|y  (Koszul: (-1)^{deg th} a x d gamma)
        assert d_t[pidx[(th, x)]] == {pidx[(th, y)]: QQ.scalar(-1)}
        # [th|x, th|y] = (-1)^{deg th * deg x} (th*th)|[x,y] = 0
        assert (pidx[(th, x)], pidx[(th, y)]) not in br_t
        # [1|x, th|y] = (+1) th|[x,y] = th|y
        assert br_t[(pidx[(one, x)], pidx[(th, y)])] == {pidx[(th, y)]: QQ.one()}
        # [th|y, 1|x] = (-1)^{0*1}... check antisymmetry consistency instead
        assert dgla_check(ext.module, d_t, br_t).ok

    def test_extension_passes_morphism_axiom(self, C4):
        rng = random.Random(53)
        QQ = rational_field()
        A = make_truncated_poly_dga([1, 1], 2, names=["th1", "th2"])
        for _ in range(4):
            ma = GradedBasisModule("s", [("u", 0), ("v", 1)], QQ)
            mb = GradedBasisModule("t", [("p", 0), ("q", 1)], QQ)
            a, b = LinfAlgebra.abelian(ma), LinfAlgebra.abelian(mb)
            maps = {}
            for j in (1, 2):
                tab = {}
                for w in a.shifted.words(j):
                    v = {}
                    for g in range(len(mb)):
                        if b.shifted.degree(g) == word_degree(a.shifted, w):
                            q = Fraction(rng.randint(-2, 2))
                            if q:
                                v[g] = QQ.scalar(q)
                    if v:
                        tab[w] = v
                if tab:
                    maps[j] = tab
            psi = LinfMorphism(a, b, TaylorSeq(a.shifted, b.shifted, maps,
                                               "morphism"), check=True)
            ext = extend_multilinear(psi, A)
            assert not intertwine_witnesses(ext.taylor, ext.source.taylor,
                                            ext.target.taylor, 2)


def random_morphism(rng, degs, top, density, target_degs=None):
    """A base-field morphism between abelian algebras of the given degrees (the
    target's default to the source's), with a sparse random Taylor table of every
    arity up to top."""
    QQ = rational_field()
    ms = GradedBasisModule("s", [(f"s{i}", d) for i, d in enumerate(degs)], QQ)
    mt = GradedBasisModule("t", [(f"t{i}", d) for i, d in enumerate(target_degs or degs)],
                           QQ)
    src, tgt = LinfAlgebra.abelian(ms), LinfAlgebra.abelian(mt)
    maps = {}
    for j in range(1, top + 1):
        for w in src.shifted.words(j):
            v = {g: QQ.scalar(rng.choice((-2, -1, Fraction(1, 2), 1, 3)))
                 for g in range(len(mt))
                 if tgt.shifted.degree(g) == word_degree(src.shifted, w)
                 and rng.random() < density}
            if v:
                maps.setdefault(j, {})[w] = v
    return LinfMorphism(src, tgt, TaylorSeq(src.shifted, tgt.shifted, maps, "morphism"),
                        check=False)


def reference_extension(psi, A, src_ext, tgt_ext):
    """Psi_A the direct way: every canonical word of the extended module, with
    its sign and its product a_1...a_j in A rebuilt from scratch."""
    s_pairs = src_ext.tensor_pairs
    t_pair_index = {p: i for i, p in enumerate(tgt_ext.tensor_pairs)}
    maps = {}
    for j in psi.taylor.maps:
        tab = {}
        for w in src_ext.shifted.words(j):
            letters = [s_pairs[i] for i in w]
            base = psi.taylor.eval_word(tuple(g for _, g in letters))
            if not base:
                continue
            sign = 1
            for k, (a, _) in enumerate(letters):
                crossing = sum(psi.source.module.degree(g) - 1 for _, g in letters[:k])
                sign *= ksign(A.degrees[a] * crossing)
            prod = {A.unit_index: 1}
            for a, _ in letters:
                nxt = {}
                for cur, q in prod.items():
                    for res, q2 in A.mul_basis(cur, a).items():
                        _acc(nxt, res, q * q2)
                prod = nxt
            if prod:
                tab[w] = {t_pair_index[(ares, gi)]: c.scale(q * sign)
                          for ares, q in prod.items() for gi, c in base.items()}
        if tab:
            maps[j] = tab
    return TaylorSeq(src_ext.shifted, tgt_ext.shifted, maps, "morphism")


def _listed(taylor):
    return [(j, [(w, list(v.items())) for w, v in tab.items()])
            for j, tab in taylor.maps.items()]


_ODD_SQUARE = CoeffDGA(  # e odd with e*e = f: associative, not graded-commutative
    ["1", "e", "f"], [0, 1, 2],
    {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)}, (1, 0): {1: Fraction(1)},
     (0, 2): {2: Fraction(1)}, (2, 0): {2: Fraction(1)}, (1, 1): {2: Fraction(1)}},
    {}, 0, {1, 2})
EXTENSION_ALGEBRAS = (
    dga_tensor(make_truncated_poly_dga([1, 1], 2, names=["th1", "th2"]),
               make_truncated_poly_dga([0], 3)),                 # Λ(θ1,θ2)⊗Q[h]/(h^3)
    make_truncated_poly_dga([0], 4),                              # Q[h]/(h^4)
    make_truncated_poly_dga([-1, -1, 0], 2, names=["a", "b", "c"],
                            differential={"b": {"c": 1}}),        # odd a, b of degree -1
    _ODD_SQUARE,   # only the odd-repeat guard keeps (e|g)(e|g) out of the table
)


class TestExtensionWalk:
    @given(st.sampled_from(EXTENSION_ALGEBRAS),
           st.lists(st.integers(-1, 2), min_size=1, max_size=3),
           st.integers(1, 3), st.sampled_from((0.4, 0.7, 1.0)), st.integers(0, 2 ** 32))
    @example(EXTENSION_ALGEBRAS[0], [0, 1, 1], 3, 1.0, 0)
    @example(EXTENSION_ALGEBRAS[2], [-1, 0, 2], 3, 0.7, 0)
    @example(_ODD_SQUARE, [1], 2, 1.0, 1)
    @settings(max_examples=60, deadline=None)
    def test_matches_whole_module_reference(self, A, degs, top, density, seed):
        # same keys, values and order as the loop over every word of words(j);
        # the target has a letter in every degree a word of order <= 3 can reach
        psi = random_morphism(random.Random(seed), degs, top, density, range(-5, 5))
        ext = extend_multilinear(psi, A, check=False)
        ref = reference_extension(psi, A, ext.source, ext.target)
        assert _listed(ext.taylor) == _listed(ref)

    def test_leaves_no_reference_cycles(self):
        # a recursive closure in the walk would leave cycles for the collector
        rng = random.Random(71)
        A = EXTENSION_ALGEBRAS[0]
        inputs = [random_morphism(rng, sorted(rng.choice([0, 1]) for _ in range(dim)), 3, 0.8)
                  for dim in (2, 3, 3)]
        gc.collect()
        gc.disable()
        try:
            for psi in inputs:
                extend_multilinear(psi, A, check=False)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTrustedTables:
    """extend_multilinear builds its TaylorSeq unvalidated: its maps must be
    what the validating constructor makes of them, with the same keys, values
    and order."""

    @staticmethod
    def assert_canonical(T):
        assert _listed(T) == _listed(TaylorSeq(T.source, T.target, T.maps, T.intent))

    @given(st.sampled_from(EXTENSION_ALGEBRAS),
           st.lists(st.integers(-1, 2), min_size=1, max_size=3),
           st.integers(1, 3), st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_extend_multilinear(self, A, degs, top, seed):
        psi = random_morphism(random.Random(seed), degs, top, 0.7, range(-5, 5))
        self.assert_canonical(extend_multilinear(psi, A, check=False).taylor)


class TestFinitenessBound:
    def test_degree_count_examples(self):
        assert finiteness_bound(1, [1], 0) == 1
        assert finiteness_bound(1, [1], 5) == 0
        assert finiteness_bound(2, [0, 1], 0) == 0

    def test_sampled_twist_squares_to_zero(self, C4):
        rng = random.Random(61)
        alg = sample_dgla(rng, C4)
        om = sample_mc(rng, alg)
        tw = twist_coder(alg, om)
        assert tw.check_square_zero().ok

    def test_terms_beyond_bound_vanish(self, C4):
        rng = random.Random(59)
        QQ = rational_field()
        A = make_truncated_poly_dga([1, 1], 2, names=["th1", "th2"])
        ma = GradedBasisModule("s", [("u", 0), ("v", 1)], QQ)
        mb = GradedBasisModule("t", [("p", 0), ("q", 1)], QQ)
        a, b = LinfAlgebra.abelian(ma), LinfAlgebra.abelian(mb)
        maps = {}
        for j in (1, 2, 3):
            tab = {}
            for w in a.shifted.words(j):
                v = {}
                for g in range(len(mb)):
                    if b.shifted.degree(g) == word_degree(a.shifted, w):
                        q = Fraction(rng.randint(-2, 2))
                        if q:
                            v[g] = QQ.scalar(q)
                if v:
                    tab[w] = v
            if tab:
                maps[j] = tab
        psi = LinfMorphism(a, b, TaylorSeq(a.shifted, b.shifted, maps,
                                           "morphism"), check=False)
        ext = extend_multilinear(psi, A)
        sh = ext.source.shifted
        pairs = ext.source.tensor_pairs
        pidx = {p: i for i, p in enumerate(pairs)}
        omv = {pidx[(A.index["th1"], ma.index["u"])]: QQ.one(),
               pidx[(A.index["th2"], ma.index["u"])]: QQ.scalar(-1)}
        om = CoalgElem.from_vect(sh, omv)
        r0 = min(d for _, d in mb.gens)
        checked = 0
        for w in sh.words_up_to(2):
            if not w:
                continue
            gdegs = [ma.degree(pairs[i][1]) for i in w]
            k0 = finiteness_bound(len(w), gdegs, r0)
            power = CoalgElem.unit(sh)
            for k in range(1, k0 + 3):
                power = power * om
                if power.is_zero():
                    break
                if k > k0:
                    for u, c in power.words.items():
                        assert not ext.taylor.eval_word(u + w)
                        checked += 1
        assert checked > 0
