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

    def test_syntax_errors_have_positions(self):
        with pytest.raises(ParseError, match="column"):
            parse_element("3//2*t1", "poly", 2)
        with pytest.raises(ParseError, match="column"):
            parse_element("t1 +", "poly", 2)

    def test_range_errors_distinguished(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_element("d4", "polyvec", 3)


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
    alg = samples.sample_dgla(rng, C, W=6, family="weighted", scramble=False)
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
    alg = samples.sample_dgla(rng, C, W=6, family="odd_square", scramble=False)
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
        apath.write_text(A.to_json())
        # extension needs a base-field morphism: build one
        rng = random.Random(11)
        from linfty.scalars import rational_field
        alg = samples.sample_dgla(rng, rational_field(), W=6, family="weighted",
                                  scramble=False)
        phi = samples.strict_base_change_morphism(rng, alg)
        doc = jsonio.instance_to_json(alg, morphism=phi)
        ipath = tmp_path / "inst.json"
        ipath.write_text(json.dumps(doc))
        code, out = capture(["extend", "--instance", str(ipath),
                             "--coeff-algebra", str(apath), "--samples", "10"])
        assert code == 0 and json.loads(out)["morphism_axiom"]

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

    def test_word_cap_overflow_exits_two(self, tmp_path):
        from linfty.samples import default_coefficients
        doc = {"coeff": default_coefficients(4).to_json_dict(),  # Q[h]/(h^4)
               "algebra": {"name": "split_line",
                           "basis": [{"name": "x", "degree": 0},
                                     {"name": "y", "degree": 1}],
                           "d": [["x", {"y": "1"}]], "bracket": []},
               "omega": {"y": {"h": "1"}}}
        path = tmp_path / "split_line.json"
        path.write_text(json.dumps(doc))
        for verb in ("exp", "twist-check"):
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = run([verb, "--instance", str(path), "--word-cap", "1"])
            assert code == 2 and buf.getvalue() == ""
            message = err.getvalue()
            assert message.count("\n") == 1 and "W=1" in message, message
