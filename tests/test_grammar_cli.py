import io
import contextlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import linfty
from linfty import jsonio, samples
from linfty.cli import run
from linfty.diffop import PolyDiffOp
from linfty.grammar import ParseError, parse_element
from linfty.poly import Poly
from linfty.polyvec import PolyVec
from linfty.scalars import make_truncated_poly_dga
from test_loader_fuzz import INSTANCE


def rand_poly(rng, n, maxdeg=3):
    out = Poly.zero(n)
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(0, 2) for _ in range(n))
        if sum(e) <= maxdeg:
            out = out + Poly.monomial(e, Fraction(rng.randint(-5, 5),
                                                  rng.randint(1, 4)))
    return out


def rand_value(rng, kind, n):
    if kind == "poly":
        return rand_poly(rng, n)
    if kind == "polyvec":
        words = [w for p in range(-1, n)
                 for w in itertools.combinations(range(1, n + 1), p + 1)]
        return PolyVec(n, {rng.choice(words): rand_poly(rng, n)})
    words = []
    for p in range(0, 2):
        mis = list(itertools.product(range(3), repeat=n))
        words.extend(tuple(rng.choice(mis) for _ in range(p + 1))
                     for _ in range(2))
    return PolyDiffOp(n, {rng.choice(words): rand_poly(rng, n)})


class TestGrammar:
    def test_canonical_examples(self):
        assert parse_element("d1/\\d2", "polyvec", 2) == \
            PolyVec(2, {(1, 2): Poly.one(2)})
        assert parse_element("t1*D[1;1]", "polydiffop", 1) == \
            PolyDiffOp(1, {((1,), (1,)): Poly.var(1, 1)})
        assert parse_element("d2/\\d1", "polyvec", 2) == \
            PolyVec(2, {(1, 2): Poly.one(2)}).scale(-1)

    def test_roundtrip_500_random_values_per_kind(self):
        rng = random.Random(2024)
        for kind in ("poly", "polyvec", "polydiffop"):
            count = 0
            while count < 500:
                n = rng.randint(1, 3)
                x = rand_value(rng, kind, n)
                if x.is_zero():
                    continue
                text = x.text()
                assert parse_element(text, kind, n) == x
                # parse-serialize is the identity on canonical text
                assert parse_element(text, kind, n).text() == text
                count += 1

    @pytest.mark.parametrize("unit", [0, 1])
    def test_text_refuses_a_coefficient_off_q(self, unit):
        # h*t1 and (1+h)*t1 over Q[h]/(h^3) have no grammar form: the rational
        # part alone (0*t1*d1, t1*d1) would print a different element
        A = make_truncated_poly_dga([0], 3)
        f = Poly(1, {(1,): A.gen("h") + A.scalar(unit)}, alg=A)
        for x in (f, PolyVec(1, {(1,): f}, A), PolyDiffOp(1, {((1,),): f})):
            with pytest.raises(ValueError, match="rational coefficients"):
                x.text()
            assert "h" in repr(x)

    def test_syntax_errors_have_positions(self):
        with pytest.raises(ParseError, match="column"):
            parse_element("3//2*t1", "poly", 2)
        with pytest.raises(ParseError, match="column"):
            parse_element("t1 +", "poly", 2)

    def test_range_errors_distinguished(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_element("d4", "polyvec", 3)

    @pytest.mark.parametrize("text, kind, n, message, pos", [
        ("3//2*t1", "poly", 2, "expected denominator", 2),
        ("t1 +", "poly", 2, "expected a term", 4),
        ("t3^2", "poly", 2, "variable t3 out of range 1..2", 2),
        ("2*", "poly", 2, "expected a factor after '*'", 2),
        ("1/0*t1", "poly", 1, "zero denominator", 3),
        ("2*d1", "poly", 2, "trailing input", 1),
        ("t1*d1/\\", "polyvec", 2, "expected a derivation d<i>", 7),
        ("d1 - t1*", "polyvec", 2, "expected a factor after '*'", 8),
        ("+ d1*t1", "polyvec", 2, "trailing input", 4),
        ("-", "polyvec", 2, "expected a term", 1),
        ("t1*D[1]", "polyvec", 1, "expected a derivation d<i>", 3),
        ("t1*D[1,2]", "polydiffop", 1, "multi-index needs 1 entries, got 2", 8),
        ("D[1;2", "polydiffop", 1, "expected closing ]", 5),
        ("D[1] d1", "polydiffop", 1, "trailing input", 5),
        ("t1*d1", "polydiffop", 1, "expected an operator word D[...]", 3),
    ])
    def test_malformed_input_message_and_position(self, text, kind, n, message, pos):
        with pytest.raises(ParseError) as err:
            parse_element(text, kind, n)
        assert (str(err.value), err.value.pos) == (f"{message} (line 1, column {pos + 1})", pos)


def coeff_algebra_text(A):
    """The coefficient algebra A as a --coeff-algebra document."""
    return jsonio.dumps(jsonio.coeff_algebra_to_json(A))


def capture(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    rng = random.Random(7)
    C = samples.default_coefficients(4)
    alg = samples.sample_dgla(rng, C, family="weighted", scramble=False)
    om = samples.sample_mc(rng, alg)
    phi = samples.strict_base_change_morphism(rng, alg)
    doc = jsonio.instance_to_json(alg, omega=om, morphism=phi)
    path = tmp_path_factory.mktemp("inst") / "inst.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def non_mc_file(tmp_path_factory):
    rng = random.Random(9)
    C = samples.default_coefficients(4)
    alg = samples.sample_dgla(rng, C, family="odd_square", scramble=False)
    bad = samples.sample_non_mc(rng, alg)
    doc = jsonio.instance_to_json(alg, omega=bad)
    path = tmp_path_factory.mktemp("inst") / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCli:
    def test_element_verbs(self):
        code, out = capture(["schouten", "d1/\\d2", "t1*t2", "--n", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == "t1*d1 - t2*d2"
        assert doc["degrees"] == [0] and doc["wedge_arities"] == [1]
        code, out = capture(["u1", "t1*d1/\\d2", "--n", "2"])
        assert code == 0 and json.loads(out)["normalized"]
        code, out = capture(["apply", "t1*D[2,0]", "t1^3", "--n", "2"])
        assert json.loads(out)["result"] == "6*t1^2"
        code, out = capture(["wedge", "d1", "d2", "--n", "2"])
        assert json.loads(out)["result"] == "d1/\\d2"
        code, out = capture(["hochschild", "D[2]", "--n", "1"])
        assert json.loads(out)["result"] == "-2*D[1;1]"

    def test_usage_errors_exit_two(self):
        code, _ = capture(["schouten", "bogus(", "--n", "2"])
        assert code == 2
        code, _ = capture(["mc-check", "--instance", "/nonexistent.json"])
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["gerstenhaber", "D[1]", "--n", "1"], "gerstenhaber takes exactly 2 operand(s), got 1"),
        (["schouten", "d1"], "schouten takes exactly 2 operand(s), got 1"),
        (["wedge", "d1", "d1", "d2"], "wedge takes exactly 2 operand(s), got 3"),
        (["hochschild", "D[1]", "D[1]"], "hochschild takes exactly 1 operand(s), got 2"),
        (["u1", "d1", "d1"], "u1 takes exactly 1 operand(s), got 2"),
        (["poisson-check"], "poisson-check takes exactly 1 operand(s), got 0"),
        (["apply", "--n", "1"], "apply takes at least 1 operand(s), got 0"),
        (["hkr-report", "stray", "--n", "1", "--trunc", "1", "--order", "1"],
         "hkr-report takes exactly 0 operand(s), got 1"),
        (["selftest", "stray"], "selftest takes exactly 0 operand(s), got 1"),
        (["mc-check", "a", "b", "--instance", "inst.json"],
         "mc-check takes exactly 0 operand(s), got 2"),
    ])
    def test_wrong_operand_count_exits_two(self, argv, message, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_operands_beginning_with_a_minus_go_after_double_dash(self):
        code, out = capture(["gerstenhaber", "--n", "1", "--", "-t1*D[1]", "D[1]"])
        assert code == 0
        code, plain = capture(["gerstenhaber", "--n", "1", "t1*D[1]", "D[1]"])
        bracket = parse_element(json.loads(plain)["result"], "polydiffop", 1)
        assert json.loads(out)["result"] == (-bracket).text() != bracket.text()

    def test_mc_check_pass_and_fail(self, instance_file, non_mc_file):
        code, out = capture(["mc-check", "--instance", instance_file])
        assert code == 0 and json.loads(out)["mc"]
        code, out = capture(["mc-check", "--instance", non_mc_file])
        assert code == 1
        doc = json.loads(out)
        assert not doc["mc"] and doc["residue"]

    def test_mc_push_and_twist_check(self, instance_file):
        code, out = capture(["mc-push", "--instance", instance_file])
        assert code == 0 and json.loads(out)["exp_naturality"]
        code, out = capture(["twist-check", "--instance", instance_file])
        doc = json.loads(out)
        assert code == 0
        assert doc["square_zero"] and doc["conjugation_agrees"]
        assert doc["morphism_intertwines"]

    def test_twist_check_non_mc_paths(self, non_mc_file):
        # without the override: refuse with the residue as witness
        code, out = capture(["twist-check", "--instance", non_mc_file])
        assert code == 1 and not json.loads(out)["mc"]
        # with the override: the squared coderivation detects it, witness word
        code, out = capture(["twist-check", "--instance", non_mc_file,
                             "--allow-non-mc"])
        doc = json.loads(out)
        assert code == 1 and not doc["square_zero"] and doc["witness"]

    def test_linf_check(self, instance_file):
        code, out = capture(["linf-check", "--instance", instance_file])
        doc = json.loads(out)
        assert code == 0 and doc["identity_paths_agree"] and doc["is_linf_morphism"]

    def test_exp_verb(self, instance_file):
        code, out = capture(["exp", "--instance", instance_file])
        assert code == 0
        words = json.loads(out)["result"]
        assert any(entry["word"] == [] for entry in words)

    def test_hkr_report_verb(self):
        code, out = capture(["hkr-report", "--n", "1", "--trunc", "2",
                             "--order", "2", "--window", "-1", "1"])
        assert code == 0 and json.loads(out)["ok"]

    def test_kontsevich_check_fails_deterministically(self):
        c1, o1 = capture(["kontsevich-check", "--n", "2", "--samples", "8",
                          "--seed", "3"])
        c2, o2 = capture(["kontsevich-check", "--n", "2", "--samples", "8",
                          "--seed", "3"])
        assert c1 == c2 == 1
        assert o1 == o2
        doc = json.loads(o1)
        assert not doc["conditions"]["i_linf_identity"]["ok"]
        assert doc["conditions"]["i_linf_identity"]["witnesses"]

    def test_extend_verb(self, instance_file, tmp_path):
        from linfty.scalars import dga_tensor, make_truncated_poly_dga
        A = dga_tensor(make_truncated_poly_dga([1], 2),
                       make_truncated_poly_dga([0], 2))
        apath = tmp_path / "A.json"
        apath.write_text(coeff_algebra_text(A))
        # extension needs a base-field morphism: build one
        rng = random.Random(11)
        from linfty.scalars import rational_field
        alg = samples.sample_dgla(rng, rational_field(), family="weighted",
                                  scramble=False)
        phi = samples.strict_base_change_morphism(rng, alg)
        doc = jsonio.instance_to_json(alg, morphism=phi)
        ipath = tmp_path / "inst.json"
        ipath.write_text(json.dumps(doc))
        code, out = capture(["extend", "--instance", str(ipath),
                             "--coeff-algebra", str(apath)])
        assert code == 0
        assert json.loads(out) == {"verb": "extend", "extended_dim": len(A) * len(alg.module),
                                   "morphism_axiom": True}

    def test_extend_decides_every_order(self, tmp_path, monkeypatch):
        # one order-3 Taylor value added to the extension, on a word w whose value
        # g has d(g) != 0: only the corestriction at w changes, by d(g), so the
        # complete check exits 1 with w as the witness, where words of order <= 2
        # would all pass
        from linfty import cli
        from linfty.coalg import TaylorSeq, word_degree
        from linfty.linf import LinfMorphism
        from linfty.scalars import make_truncated_poly_dga, rational_field
        apath = tmp_path / "A.json"
        apath.write_text(coeff_algebra_text(make_truncated_poly_dga([1], 2)))
        alg = samples.sample_dgla(random.Random(11), rational_field(),
                                  family="weighted", scramble=False)
        phi = samples.strict_base_change_morphism(random.Random(12), alg)
        ipath = tmp_path / "inst.json"
        ipath.write_text(json.dumps(jsonio.instance_to_json(alg, morphism=phi)))
        real, added = cli.extend_multilinear, []

        def corrupted(psi, A, check):
            ext = real(psi, A, check=check)
            sh_s, sh_t, d = ext.source.shifted, ext.target.shifted, ext.target.taylor.maps[1]
            w, g = next((w, (g,)) for (g,) in d for w in sh_s.words(3)
                        if word_degree(sh_s, w) == sh_t.degree(g))
            maps = {j: dict(tab) for j, tab in ext.taylor.maps.items()}
            maps.setdefault(3, {})[w] = {g[0]: sh_t.coeff.one()}
            added.append([sh_s.gen_name(i) for i in w])
            return LinfMorphism(ext.source, ext.target,
                                TaylorSeq(sh_s, sh_t, maps, "morphism"), check=False)

        monkeypatch.setattr(cli, "extend_multilinear", corrupted)
        code, out = capture(["extend", "--instance", str(ipath), "--coeff-algebra", str(apath)])
        doc = json.loads(out)
        assert (code, doc["morphism_axiom"], doc["witness"]) == (1, False, added[0])

    def test_extend_rejects_an_invalid_coefficient_algebra(self, tmp_path):
        # the extended Taylor table is built unvalidated, so --coeff-algebra is
        # decided by dga_check first: exit 2 with the axiom and its witness
        from linfty.scalars import rational_field
        alg = samples.sample_dgla(random.Random(11), rational_field(),
                                  family="weighted")
        ipath = tmp_path / "inst.json"
        ipath.write_text(json.dumps(jsonio.instance_to_json(
            alg, morphism=samples.strict_base_change_morphism(random.Random(12), alg))))
        one = [[0, "1"]]
        h_e = {  # degree 0 with h*e = 0 but e*h = h
            "basis": [{"name": n, "degree": 0} for n in ("1", "h", "e")],
            "mul": [[0, 0, one], [0, 1, [[1, "1"]]], [1, 0, [[1, "1"]]], [0, 2, [[2, "1"]]],
                    [2, 0, [[2, "1"]]], [1, 1, []], [1, 2, []], [2, 1, [[1, "1"]]],
                    [2, 2, [[2, "1"]]]],
            "d": [[0, []], [1, []], [2, []]], "unit": 0, "ideal": [1]}
        odd_square = {  # e odd with e*e = f: associative, not graded-commutative
            "basis": [{"name": "1", "degree": 0}, {"name": "e", "degree": 1},
                      {"name": "f", "degree": 2}],
            "mul": [[i, j, [[k, "1"]] if k is not None else []]
                    for (i, j), k in {(0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2,
                                      (1, 1): 2, (1, 2): None, (2, 1): None,
                                      (2, 2): None}.items()],
            "d": [[0, []], [1, []], [2, []]], "unit": 0, "ideal": [1, 2]}
        for doc, witness in ((h_e, "commutativity at ['h', 'e']"),
                             (odd_square, "commutativity at ['e', 'e']")):
            apath = tmp_path / "A.json"
            apath.write_text(json.dumps(doc))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(["extend", "--instance", str(ipath), "--coeff-algebra", str(apath)])
            assert (code, out.getvalue()) == (2, "")
            assert err.getvalue() == f"error: coefficient algebra axioms fail: {witness}\n"

    def test_selftest_green_and_deterministic(self):
        c1, o1 = capture(["selftest"])
        c2, o2 = capture(["selftest"])
        assert c1 == c2 == 0
        assert o1 == o2

    def test_instance_roundtrip(self, instance_file):
        with open(instance_file) as fh:
            doc = json.load(fh)
        alg, om, phi = jsonio.instance_from_json(doc)
        doc2 = jsonio.instance_to_json(alg, omega=om, morphism=phi)
        assert jsonio.dumps(doc) == jsonio.dumps(doc2)

    def test_consecutive_runs_match_isolated_processes(self):
        calls = [["hochschild", "D[2]", "--n", "1"],
                 ["apply", "t1*D[2,0]", "t1^3"],  # --n back to its default
                 ["hkr-report", "--n", "1", "--trunc", "2", "--order", "2",
                  "--window", "-1", "0"],
                 ["hkr-report", "--n", "1"],  # --window, --trunc back to defaults
                 ["schouten", "bogus(", "--n", "2"],
                 ["poisson-check", "t1*d1/\\d2", "--n", "2"]]
        in_process = [capture(argv) for argv in calls]
        src = os.path.dirname(os.path.dirname(linfty.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        for argv, (code, out) in zip(calls, in_process):
            proc = subprocess.run([sys.executable, "-m", "linfty.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert (code, out) == (proc.returncode, proc.stdout), argv

    def test_unreadable_input_exits_two(self, instance_file, tmp_path, monkeypatch):
        # a directory, or JSON nested past the decoder's recursion, is one error line
        deep = "[" * 100_000 + "]" * 100_000
        deep_path = tmp_path / "deep.json"
        deep_path.write_text(deep)
        cases = [(["mc-check", "--instance", str(tmp_path)], "Is a directory"),
                 (["extend", "--instance", instance_file, "--coeff-algebra", str(tmp_path)],
                  "Is a directory"),
                 (["mc-check", "--instance", str(deep_path)], "nested too deeply"),
                 (["extend", "--instance", instance_file, "--coeff-algebra", str(deep_path)],
                  "nested too deeply"),
                 (["mc-check", "--instance", "-"], "nested too deeply")]
        for argv, fragment in cases:
            monkeypatch.setattr(sys, "stdin", io.StringIO(deep))
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = run(argv)
            message = err.getvalue()
            assert (code, buf.getvalue()) == (2, ""), argv
            assert message.startswith("error: ") and message.count("\n") == 1, message
            assert fragment in message, message

    def test_ln_verb(self, instance_file, monkeypatch):
        with open(instance_file) as fh:
            doc = json.load(fh)
        doc["element"] = [{"word": [], "coeff": "1"},
                          {"word": ["y"], "coeff": {"h": "2"}},
                          {"word": ["x", "y"], "coeff": "-1/2"},
                          {"word": ["z"], "coeff": "1"},
                          {"word": ["z"], "coeff": "-1"},  # cancels the one before
                          {"word": ["x"], "coeff": "0"}]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out = capture(["ln", "--instance", "-"])
        assert code == 0
        assert json.loads(out)["result"] == [{"coeff": {"h": "2"}, "word": ["y"]}]

    def test_exp_output_is_ln_input(self, instance_file, tmp_path):
        # exp writes an element as ln reads it, so ln(exp(omega)) is omega
        with open(instance_file) as fh:
            doc = json.load(fh)
        code, out = capture(["exp", "--instance", instance_file])
        assert code == 0
        element = json.loads(out)["result"]
        assert len(element) > len(doc["omega"])
        path = tmp_path / "element.json"
        path.write_text(json.dumps({**doc, "element": element}))
        code, out = capture(["ln", "--instance", str(path)])
        assert code == 0
        assert json.loads(out)["result"] == [{"coeff": c, "word": [name]}
                                             for name, c in sorted(doc["omega"].items())]

    def test_instance_key_errors_exit_two(self, instance_file, tmp_path):
        with open(instance_file) as fh:
            doc = json.load(fh)
        cases = [
            (["ln"], doc, "'element'"),
            (["ln"], {**doc, "element": [{"word": ["nope"], "coeff": "1"}]}, "'nope'"),
            (["twist-check"], {**doc, "omega": {"nope": {"h": "1"}}}, "'nope'"),
            (["twist-check"], {**doc, "omega": {"y": {"q": "1"}}}, "'q'"),
            (["twist-check"], {k: v for k, v in doc.items() if k != "algebra"}, "'algebra'"),
        ]
        apath = tmp_path / "A.json"
        apath.write_text(json.dumps({"basis": [{"name": "1", "degree": 0}], "d": [],
                                     "unit": 0}))
        cases.append((["extend", "--coeff-algebra", str(apath)], doc, "'mul'"))
        assert_usage_errors(cases, tmp_path)

    def test_instance_type_errors_exit_two(self, instance_file, tmp_path):
        # a wrong JSON type is a usage error, never a traceback; the error names
        # the entry wherever the loader checks its type
        with open(instance_file) as fh:
            doc = json.load(fh)
        name = next(iter(doc["omega"]))
        apath, alist = tmp_path / "A.json", tmp_path / "Alist.json"
        apath.write_text(coeff_algebra_text(make_truncated_poly_dga([1], 2)))
        alist.write_text("[]")
        named = [({**doc, "omega": [name]}, "omega: expected an object, got an array"),
                 ({**doc, "omega": {name: 1}},
                  f"omega entry {name!r}: expected a \"num/den\" string or an object, "
                  "got a number"),
                 ([doc], "instance document: expected an object, got an array")]
        cases = [(argv, case, key) for case, key in named
                 for argv in (["mc-check"], ["twist-check"],
                              ["extend", "--coeff-algebra", str(apath)])]
        # a list of names is an array of name strings, never a string read letter by letter
        (pair, value), *pairs = doc["algebra"]["bracket"]
        (j, ((word, image), *images)), *orders = doc["morphism"]["taylor"]

        def brackets(first):
            return {**doc, "algebra": {**doc["algebra"], "bracket": [[first, value], *pairs]}}

        cases += [(["mc-check"], brackets("".join(pair)),
                   f"bracket pair {''.join(pair)!r}: expected an array of 2 names, got a string"),
                  (["linf-check"], brackets(pair + pair[:1]),
                   f"bracket pair {pair + pair[:1]!r}: expected an array of 2 names"),
                  (["twist-check"], brackets([pair[0], 1]),
                   f"bracket pair {[pair[0], 1]!r}: expected an array of 2 names"),
                  (["linf-check"], {**doc, "morphism": {
                      **doc["morphism"], "taylor": [[j, [[word[0], image], *images]], *orders]}},
                   f"taylor word {word[0]!r}: expected an array of names, got a string"),
                  (["ln"], {**doc, "element": [{"word": "yy", "coeff": "1"}]},
                   "element word 'yy': expected an array of names, got a string")]
        # a d key is a generator name: never a basis index, in range or not
        (_, image), *ds = doc["algebra"]["d"]
        cases += [(["mc-check"], {**doc, "algebra": {**doc["algebra"], "d": [[key, image], *ds]}},
                   f"d key {key!r}: expected a generator name, got {kind}")
                  for key, kind in ((99, "a number"), (True, "a boolean"))]
        cases += [(["twist-check"], {**doc, "algebra": {**doc["algebra"], "basis": {"x": 0}}},
                   "algebra basis: expected an array, got an object"),
                  (["extend", "--coeff-algebra", str(alist)], doc,
                   "coefficient algebra: expected an object, got an array"),
                  (["extend", "--coeff-algebra", str(apath)], {**doc, "coeff": []},
                   'coeff: expected an object or "Q", got an array'),
                  (["extend"], doc, "extend needs --coeff-algebra")]
        assert_usage_errors(cases, tmp_path)

    def test_json_numbers_in_coefficients_exit_two(self, instance_file, tmp_path):
        # a coefficient is a "num/den" string: a JSON boolean or number inside
        # a coefficient object or a structure constant is refused, naming the entry
        with open(instance_file) as fh:
            doc = json.load(fh)
        name = next(iter(doc["omega"]))
        coeff = doc["coeff"]
        (i, j, terms), *rest = coeff["mul"]
        mul_number = {**coeff, "mul": [[i, j, [[terms[0][0], 1]] + terms[1:]], *rest]}
        d_boolean = {**coeff, "d": [[coeff["d"][0][0], [[1, True]]], *coeff["d"][1:]]}
        apath = tmp_path / "A.json"
        apath.write_text(json.dumps(mul_number))
        string = 'expected a "num/den" string, got'
        where = f"omega entry {name!r} coefficient"
        mul_term = f"coefficient algebra mul entry {[i, j]} term {terms[0][0]}"
        cases = [(["mc-check"], {**doc, "omega": {name: {"1": True}}},
                  f"{where} '1': {string} a boolean"),
                 (["twist-check"], {**doc, "omega": {name: {"h": 2}}},
                  f"{where} 'h': {string} a number"),
                 (["mc-check"], {**doc, "omega": {name: {"h": 0.5}}},
                  f"{where} 'h': {string} a number"),
                 (["twist-check"], {**doc, "coeff": mul_number}, f"{mul_term}: {string} a number"),
                 (["mc-check"], {**doc, "coeff": d_boolean},
                  f"coefficient algebra d entry {coeff['d'][0][0]} term 1: {string} a boolean"),
                 (["extend", "--coeff-algebra", str(apath)], doc,
                  f"{mul_term}: {string} a number")]
        assert_usage_errors(cases, tmp_path)

    def test_malformed_coefficient_strings_exit_two(self, instance_file, tmp_path):
        # a coefficient string is an optional '-', digits, and optionally '/' and
        # a nonzero denominator: anything else, "1/0" among them, is refused
        # naming the entry, never a traceback
        with open(instance_file) as fh:
            doc = json.load(fh)
        name = next(iter(doc["omega"]))
        coeff = doc["coeff"]
        (i, j, terms), *rest = coeff["mul"]
        term = terms[0][0]

        def mul_constant(text):
            return {**coeff, "mul": [[i, j, [[term, text]] + terms[1:]], *rest]}

        apath = tmp_path / "A.json"
        apath.write_text(json.dumps(mul_constant("1/0")))
        got = 'expected a "num/den" string, got'
        cases = [(["mc-check"], {**doc, "omega": {name: {"h": text}}},
                  f"omega entry {name!r} coefficient 'h': {got} {json.dumps(text)}")
                 for text in ("1/0", "0.5", "1e-1", " 1/2 ", "1_0", "+1", "1/-2", "", "1/00")]
        cases += [(["twist-check"], {**doc, "omega": {name: "1/0"}},
                   f'omega entry {name!r}: {got} "1/0"'),
                  (["ln"], {**doc, "element": [{"word": [], "coeff": "0.5"}]},
                   f'coefficient: {got} "0.5"'),
                  (["mc-check"], {**doc, "coeff": mul_constant("0.5")},
                   f'coefficient algebra mul entry {[i, j]} term {term}: {got} "0.5"'),
                  (["extend", "--coeff-algebra", str(apath)], doc,
                   f'coefficient algebra mul entry {[i, j]} term {term}: {got} "1/0"')]
        assert_usage_errors(cases, tmp_path)
        # the accepted spellings
        C = samples.default_coefficients(4)
        for text, value in (("-3", -3), ("6/4", Fraction(3, 2)), ("-0", 0), ("2/02", 1)):
            assert jsonio.coeff_from_json(C, {"h": text}) == C.elem({"h": value}), text

    def test_coefficient_algebra_entries_exit_two(self, instance_file, tmp_path):
        # every index of a coefficient algebra is an int inside its basis, and in
        # every basis the degrees are ints and the names distinct: anything else
        # is refused naming the entry, where it used to load (1.5 as degree 1),
        # end in a traceback, or blame another entry
        with open(instance_file) as fh:
            doc = json.load(fh)
        coeff, algebra = doc["coeff"], doc["algebra"]
        n = len(coeff["basis"])
        (i, j, terms), *rest = coeff["mul"]
        (k, _), *drest = coeff["d"]

        def with_coeff(**entries):
            return {**doc, "coeff": {**coeff, **entries}}

        index = f"expected an index below {n}, got"
        basis = "expected a distinct name string and an int degree"
        float_degree = {"name": "1", "degree": 0.0}
        repeated = {"name": "h", "degree": 0}
        half_degree = {**algebra["basis"][0], "degree": 1.5}
        apath = tmp_path / "A.json"
        apath.write_text(json.dumps({**coeff, "unit": 99}))
        cases = [(["twist-check"], with_coeff(unit="0"), f'coefficient algebra unit: {index} "0"'),
                 (["mc-check"], with_coeff(unit="0"), f'coefficient algebra unit: {index} "0"'),
                 (["mc-check"], with_coeff(unit=99), f"coefficient algebra unit: {index} 99"),
                 (["extend", "--coeff-algebra", str(apath)], doc,
                  f"coefficient algebra unit: {index} 99"),
                 (["mc-check"], with_coeff(mul=[[i, j, [[7, "1"]]], *rest]),
                  f"coefficient algebra mul entry {[i, j]} term: {index} 7"),
                 (["mc-check"], with_coeff(d=[[k, [[7, "1"]]], *drest]),
                  f"coefficient algebra d entry {k} term: {index} 7"),
                 (["mc-check"], with_coeff(mul=["1", *rest]),
                  'coefficient algebra mul entry "1": expected an array of 3'),
                 (["mc-check"], with_coeff(mul=[["1", j, terms], *rest]),
                  f'coefficient algebra mul entry {["1", j]}: {index} "1"'),
                 (["mc-check"], with_coeff(ideal=[1, n]),
                  f"coefficient algebra ideal: {index} {n}"),
                 (["mc-check"], with_coeff(basis=[float_degree, *coeff["basis"][1:]]),
                  f"coefficient algebra basis element '1': {basis}, got degree 0.0"),
                 (["twist-check"], with_coeff(basis=[*coeff["basis"][:-1], repeated]),
                  f"coefficient algebra basis element 'h': {basis}, got degree 0"),
                 (["mc-check"], {**doc, "algebra": {
                     **algebra, "basis": [half_degree, *algebra["basis"][1:]]}},
                  f"generator {half_degree['name']!r}: {basis}, got degree 1.5")]
        assert_usage_errors(cases, tmp_path)

    def test_taylor_order_is_a_positive_int(self, tmp_path):
        # true, 1.5 and "1" each used to load as order 1, and linf-check passed
        (j, entries), *rest = INSTANCE["morphism"]["taylor"]
        assert j == 1
        cases = [(["linf-check"], {**INSTANCE, "morphism": {
                      **INSTANCE["morphism"], "taylor": [[order, entries], *rest]}},
                  f"morphism taylor order {json.dumps(order)}: expected a positive int")
                 for order in (True, 1.5, "1", 0)]
        assert_usage_errors(cases, tmp_path)

    @pytest.mark.parametrize("entry", ["d", "coeff", "bracket", "mul term"])
    def test_malformed_entry_is_named(self, entry, instance_file, tmp_path):
        # each used to exit 2 with Python's unpacking or indexing text instead
        with open(instance_file) as fh:
            doc = json.load(fh)
        algebra, coeff = doc["algebra"], doc["coeff"]
        (i, j, _), *rest = coeff["mul"]
        case, message = {
            "d": ({**doc, "algebra": {**algebra, "d": [["x"]]}},
                  'd entry ["x"]: expected an array of 2'),
            "coeff": ({**doc, "coeff": []}, 'coeff: expected an object or "Q", got an array'),
            "bracket": ({**doc, "algebra": {**algebra, "bracket": [[["x", "y"]]]}},
                        'bracket entry [["x", "y"]]: expected an array of 2'),
            "mul term": ({**doc, "coeff": {**coeff, "mul": [[i, j, [5]], *rest]}},
                         f"coefficient algebra mul entry {[i, j]} term 5: expected an array of 2"),
        }[entry]
        assert_usage_errors([(["mc-check"], case, message)], tmp_path)

    def test_coeff_algebra_from_stdin(self, tmp_path, monkeypatch):
        # '-' reads stdin for --coeff-algebra as it does for --instance
        from linfty.scalars import rational_field
        alg = samples.sample_dgla(random.Random(11), rational_field(), family="weighted",
                                  scramble=False)
        ipath = tmp_path / "inst.json"
        ipath.write_text(json.dumps(jsonio.instance_to_json(
            alg, morphism=samples.strict_base_change_morphism(random.Random(12), alg))))
        apath = tmp_path / "A.json"
        apath.write_text(coeff_algebra_text(make_truncated_poly_dga([1], 2)))
        from_file = capture(["extend", "--instance", str(ipath), "--coeff-algebra", str(apath)])
        monkeypatch.setattr(sys, "stdin", io.StringIO(apath.read_text()))
        from_stdin = capture(["extend", "--instance", str(ipath), "--coeff-algebra", "-"])
        assert from_stdin == from_file and from_file[0] == 0


def assert_usage_errors(cases, tmp_path):
    """Each (argv, instance document, fragment) exits 2 with one error line
    holding the fragment and no text position, and prints nothing on stdout."""
    for k, (argv, case, key) in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_text(json.dumps(case))
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = run([*argv, "--instance", str(path)])
        message = err.getvalue()
        assert code == 2 and buf.getvalue() == "", argv
        assert message.startswith("error: ") and message.count("\n") == 1, message
        assert key in message, message
        assert "(line 1, column" not in message, message


@pytest.mark.parametrize("name", ["scrambled", "strict_morphism", "odd_square_h2"])
def test_twist_golden(name, tmp_path):
    # twisted Taylor tables and verdicts over Q[h]/(h^4), byte for byte: a scrambled
    # DGLA, one with a strict morphism, and odd_square with omega at h^2
    with open(os.path.join(os.path.dirname(__file__), "golden", f"twist_{name}.json")) as fh:
        golden = json.load(fh)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(golden["instance"]))
    for verb, want in golden["runs"].items():
        assert capture([verb, "--instance", str(path)]) == (want["exit"], want["stdout"]), verb
