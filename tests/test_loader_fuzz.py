"""The instance loader under one-place mutations of a valid document.

One instance over Q[h]/(h^3) with a d, brackets, an omega and a strict
morphism is changed in one place: a leaf or a container is replaced by a
small, negative or huge int, a string, a "num/den" string, a bool, a float,
null, [] or {}, or one key or array entry is deleted.  ``mc-check`` and
``twist-check`` must then end in a documented exit code, never a traceback,
and an exit 2 prints nothing on stdout and exactly one ``error:`` line.
"""

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from linfty import jsonio
from linfty.cli import run
from linfty.coalg import GradedBasisModule
from linfty.linf import LinfAlgebra, LinfMorphism
from linfty.scalars import make_truncated_poly_dga


def valid_instance():
    C = make_truncated_poly_dga([0], 3)
    module = GradedBasisModule("g", [("x", 0), ("y", 1), ("z", 1)], C)
    algebra = LinfAlgebra.from_dgla(module, {"x": {"y": 1}},
                                    {("x", "y"): {"y": 1}, ("x", "z"): {"z": 1}})
    morphism = LinfMorphism.strict(algebra, algebra, {"x": {"x": 1}, "y": {"y": 1},
                                                      "z": {"z": Fraction(1, 2)}})
    omega = {1: C.gen("h"), 2: C.elem({"h^2": -1})}  # MC: d and [-, -] vanish on it
    return jsonio.instance_to_json(algebra, omega=omega, morphism=morphism)


INSTANCE = valid_instance()


def places(doc, path=()):
    """The path of every entry of doc, doc itself first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) \
        else ()
    for key, value in items:
        yield from places(value, path + (key,))


PLACES = list(places(INSTANCE))
DELETE = "<delete>"
REPLACEMENTS = [0, 1, 7, -1, 10 ** 30, "x", "1/2", True, False, 1.5, 0.0, None, [], {}, DELETE]


def mutated(path, new):
    doc = copy.deepcopy(INSTANCE)
    if not path:
        return {} if new == DELETE else new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if new == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


def outcome(doc, verb):
    """(exit code, stdout, stderr) of verb on doc, read from stdin."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([verb, "--instance", "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def test_the_unmutated_instance_passes():
    assert all(outcome(INSTANCE, verb)[0] == 0 for verb in ("mc-check", "twist-check"))


@given(st.sampled_from(PLACES), st.sampled_from(REPLACEMENTS))
@settings(max_examples=150, deadline=None)
@example(("coeff", "unit"), "0")
@example(("coeff", "mul", 0, 2, 0, 0), 7)
@example(("coeff", "mul", 0, 2, 0, 0), "x")
@example(("algebra", "d"), "x")
@example(("algebra", "d", 0), [])
def test_one_mutation_ends_in_a_documented_exit_code(path, new):
    doc = mutated(path, new)
    for verb in ("mc-check", "twist-check"):
        code, out, err = outcome(doc, verb)
        assert code in (0, 1, 2), (verb, code)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
