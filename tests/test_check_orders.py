"""The Q∘Q = 0 and Psi∘Q = Q'∘Psi checks stop at an order derived from the
Taylor lengths; a walk over every word up to one order past it must agree
with them."""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from linfty import jsonio, samples
from linfty.cli import run
from linfty.coalg import GradedBasisModule, TaylorSeq, word_degree
from linfty.linf import LinfAlgebra, LinfMorphism
from linfty.scalars import make_truncated_poly_dga, rational_field
from reference_checks import intertwine_witnesses, square_zero_witnesses


def random_table(rng, sh_s, sh_t, j, shift, C, density):
    """A degree-correct Taylor table of arity j with random nonzero values."""
    tab = {}
    for w in sh_s.words(j):
        want = word_degree(sh_s, w) + shift
        v = {g: C.scalar(Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2))))
             for g in range(len(sh_t)) if sh_t.degree(g) == want and rng.random() < density}
        if v:
            tab[w] = v
    return tab


def random_module(rng, C):
    degs = sorted(rng.choice((0, 1, 1, 2, 3)) for _ in range(rng.randint(3, 4)))
    return GradedBasisModule("m", [(f"g{i}", d) for i, d in enumerate(degs)], C)


def random_structure(rng, C, kind):
    """A coderivation that need not square to zero: only Q_3 ("q3"), a random
    bracket ("jacobi"), a random d and bracket ("d2"), or a DGLA with one
    Taylor entry changed ("corrupt")."""
    if kind == "corrupt":
        alg = samples.sample_dgla(rng, C)
        sh = alg.shifted
        maps = {j: dict(tab) for j, tab in alg.taylor.maps.items()}
        j = rng.choice((1, 2))
        for w, v in random_table(rng, sh, sh, j, 1, C, 0.3).items():
            maps.setdefault(j, {})[w] = v
        return LinfAlgebra(alg.module, TaylorSeq(sh, sh, maps, "coderivation"))
    module = random_module(rng, C)
    sh = module.shifted()
    arities = {"q3": (3,), "jacobi": (2,), "d2": (1, 2)}[kind]
    maps = {j: random_table(rng, sh, sh, j, 1, C, 0.6) for j in arities}
    return LinfAlgebra(module, TaylorSeq(sh, sh, maps, "coderivation"))


def random_morphism(rng, C):
    """A random non-strict Taylor table of top <= 3 between genuine structures.

    An odd_square target ([y, y] = z) obstructs a Psi_j with j > 1 only at
    order 2j; an abelian target leaves Psi∘Q alone to fail, up to order
    top_Psi + top_Q − 1."""
    src = samples.sample_dgla(rng, C) if rng.random() < 0.5 \
        else LinfAlgebra.abelian(random_module(rng, C))
    tgt = rng.choice((lambda: samples.sample_dgla(rng, C),
                      lambda: samples.sample_dgla(rng, C, family="odd_square"),
                      lambda: LinfAlgebra.abelian(random_module(rng, C))))()
    top = rng.randint(1, 3)
    maps = {j: random_table(rng, src.shifted, tgt.shifted, j, 0, C, 0.4)
            for j in range(1, top + 1) if rng.random() < 0.7}
    T = TaylorSeq(src.shifted, tgt.shifted, maps, "morphism")
    return LinfMorphism(src, tgt, T, check=False)


def witnesses(rep):
    return [v["witness"] for v in rep.violations]


def reference(kind, x):
    """The reference walk's witnesses for a morphism ("psi") or a structure,
    one order past the bound its check derives from the Taylor lengths."""
    if kind == "psi":
        top = x.taylor.max_j()
        order = max(1, top + x.source.taylor.max_j() - 1, x.target.taylor.max_j() * top)
        return intertwine_witnesses(x.taylor, x.source.taylor, x.target.taylor, order + 1)
    return square_zero_witnesses(x.taylor, max(1, 2 * x.taylor.max_j() - 1) + 1)


def random_instance(rng, C, kind):
    return random_morphism(rng, C) if kind == "psi" else random_structure(rng, C, kind)


def derived(kind, x):
    """The instance's check witnesses and the reference's."""
    got = x.check_intertwines() if kind == "psi" else x.check_square_zero()
    return witnesses(got), reference(kind, x)


class TestDerivedOrders:
    def test_agree_with_the_full_walk_on_random_and_corrupted_instances(self):
        rng = random.Random(7)
        kinds = ("q3", "jacobi", "d2", "corrupt", "psi")
        first_orders = {kind: set() for kind in kinds}

        def instances():
            for case in range(160):
                C = rng.choice((rational_field(), make_truncated_poly_dga([0], 3)))
                kind = kinds[case % len(kinds)]
                yield case, kind, random_instance(rng, C, kind)
            # first fails on a^4, so some Psi fails above order 3 at any seed
            yield "quadratic_obstruction(2)", "psi", quadratic_obstruction(2)

        for case, kind, x in instances():
            got, ref = derived(kind, x)
            # same verdict, so no word above the bound fails first, and the
            # derived walk is a prefix of the full one
            assert bool(got) == bool(ref), (case, kind)
            assert got == ref[:len(got)], (case, kind)
            first_orders[kind].add(len(ref[0]) if ref else 0)
        # every family both passes and fails, and some fail only above the
        # orders the checks used to stop at (4 for Q∘Q, 3 for Psi)
        assert all(0 in orders and len(orders) > 1 for orders in first_orders.values())
        assert max(first_orders["q3"]) > 4 and max(first_orders["psi"]) > 3

    def test_one_witness_the_first_of_the_full_walk(self):
        # where the full walk finds several failing words, each check stops at
        # the first and reports it alone
        rng = random.Random(61)
        kinds = ("q3", "jacobi", "d2", "corrupt", "psi")
        several = {kind: 0 for kind in kinds}
        for case in range(200):
            C = rng.choice((rational_field(), make_truncated_poly_dga([0], 3)))
            kind = kinds[case % len(kinds)]
            got, ref = derived(kind, random_instance(rng, C, kind))
            if len(ref) >= 2:
                assert got == ref[:1], (case, kind)
                several[kind] += 1
        assert all(count >= 3 for count in several.values()), several

    @pytest.mark.parametrize("top", [2, 3])
    def test_failure_only_at_the_top_order(self, top):
        # Psi_top(a...a) = y into [y, y] = z first fails on a^(2 top)
        psi = quadratic_obstruction(top)
        rep = psi.check_intertwines()
        assert witnesses(rep) == [["a"] * (2 * top)]
        assert witnesses(rep) == intertwine_witnesses(psi.taylor, psi.source.taylor,
                                                      psi.target.taylor, 2 * top)
        with pytest.raises(ValueError, match=r"witness \['a', 'a'(, 'a')+\]"):
            LinfMorphism(psi.source, psi.target, psi.taylor)

    def test_obstruction_above_order_three_is_found(self):
        # no word of order <= 3 fails, and the check still reaches a^4
        psi = quadratic_obstruction(2)
        assert not intertwine_witnesses(psi.taylor, psi.source.taylor, psi.target.taylor, 3)
        assert witnesses(psi.check_intertwines()) == [["a"] * 4]


def quadratic_obstruction(top):
    """Psi_top(a^top) = y from an abelian algebra into one with [y, y] = z.

    Psi∘Q vanishes and Q'∘Psi(a^k) is nonzero first at k = 2 top, through
    [Psi_top(a^top), Psi_top(a^top)]: Psi is no morphism, but every word of
    lower order passes."""
    QQ = rational_field()
    src = LinfAlgebra.abelian(GradedBasisModule("s", [("a", 1)], QQ))
    tgt = LinfAlgebra.from_dgla(GradedBasisModule("t", [("y", 1), ("z", 2)], QQ),
                                {}, {("y", "y"): {"z": 1}})
    T = TaylorSeq(src.shifted, tgt.shifted, {top: {(0,) * top: {0: QQ.one()}}}, "morphism")
    return LinfMorphism(src, tgt, T, check=False)


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestCliVerdicts:
    # top = 4 first fails on a^8, above the order-6 cap that the verbs once had
    TOPS = (2, 3, 4)

    @pytest.fixture
    def obstruction_files(self, tmp_path):
        """{top: the quadratic_obstruction(top) instance file}, with omega = 0."""
        paths = {}
        for top in self.TOPS:
            psi = quadratic_obstruction(top)
            doc = jsonio.instance_to_json(psi.source, omega={}, morphism=psi)
            paths[top] = tmp_path / f"obstruction{top}.json"
            paths[top].write_text(json.dumps(doc))
        return {top: str(path) for top, path in paths.items()}

    def test_linf_check_reports_a_non_morphism(self, obstruction_files):
        for top, path in obstruction_files.items():
            code, out, _ = cli(["linf-check", "--instance", path])
            doc = json.loads(out)
            assert code == 1 and not doc["is_linf_morphism"], top
            assert doc["witness"] == ["a"] * (2 * top)

    def test_other_verbs_reject_a_non_morphism(self, obstruction_files):
        for top, path in obstruction_files.items():
            witness = ["a"] * (2 * top)
            for verb in ("mc-check", "mc-push", "twist", "twist-check", "exp"):
                code, out, err = cli([verb, "--instance", path])
                assert (code, out) == (2, ""), (top, verb)
                assert err == f"error: not an L-infinity morphism: witness {witness}\n"

    def test_missing_omega_exits_two(self, tmp_path):
        alg = samples.sample_dgla(random.Random(3), samples.default_coefficients(4),
                                  family="weighted", scramble=False)
        phi = LinfMorphism.identity(alg)
        path = tmp_path / "no_omega.json"
        path.write_text(json.dumps(jsonio.instance_to_json(alg, morphism=phi)))
        for argv in (["mc-check"], ["mc-push"], ["twist"], ["twist", "--allow-non-mc"],
                     ["twist-check"], ["twist-check", "--allow-non-mc"]):
            code, out, err = cli([*argv, "--instance", str(path)])
            assert (code, out) == (2, ""), argv
            assert err == "error: instance needs an 'omega' entry\n", argv
        # an explicit empty omega is zero, which is Maurer-Cartan
        path.write_text(json.dumps(jsonio.instance_to_json(alg, omega={}, morphism=phi)))
        code, out, _ = cli(["mc-check", "--instance", str(path)])
        assert code == 0 and json.loads(out) == {"verb": "mc-check", "mc": True,
                                                 "residue": {}}

    def test_omega_off_degree_one_exits_two(self, tmp_path):
        # omega = h*x with |x| = 0 and [x, y] = y: without the MC gate the twisted
        # table gets d(y) ∋ h*y, of degree |y|, and its validation rejects it
        C = samples.default_coefficients(4)
        alg = samples.sample_dgla(random.Random(3), C, family="weighted", scramble=False)
        path = tmp_path / "deg0.json"
        path.write_text(json.dumps(jsonio.instance_to_json(
            alg, omega={alg.module.index["x"]: C.gen("h")},
            morphism=LinfMorphism.identity(alg))))
        for verb in ("twist", "twist-check"):
            code, out, err = cli([verb, "--instance", str(path)])
            assert (code, out, err) == (2, "", "error: the MC equation lives in degree 1\n")
            code, out, err = cli([verb, "--allow-non-mc", "--instance", str(path)])
            assert (code, out) == (2, ""), verb
            assert err == "error: degree mismatch on (1,): value degree 0, expected 1\n"

    @pytest.mark.parametrize("verb", ["exp", "ln", "mc-check", "mc-push", "twist",
                                      "twist-check", "linf-check", "extend"])
    def test_missing_instance_flag_exits_two(self, verb):
        code, out, err = cli([verb])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "--instance" in err
