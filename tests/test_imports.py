"""Every name a library module imports is used in that module, and every
function the library defines is named somewhere else.

``__init__.py`` is skipped by the import check: its imports are the package's
re-exports.
"""

import ast
import collections
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "linfty"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detector_sees_unused_and_used_names():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from fractions import Fraction as F\n"
              "def f(x: F):\n    from itertools import chain\n    return sys.argv\n")
    assert unused_imports(source) == ["chain", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_definitions(library, others):
    """Non-dunder functions defined in the `library` sources that are named
    fewer times than they are defined, across `library` and `others`.

    A name is named where it is read as a variable or an attribute, imported,
    or written as a whole string (as in ``__all__`` or a table of hooks).
    Names are not traced to their class, so a name defined k times needs k
    mentions, one for each definition.
    """
    defined, named = collections.Counter(), collections.Counter()
    for source in (*library, *others):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named[node.id] += 1
            elif isinstance(node, ast.Attribute):
                named[node.attr] += 1
            elif isinstance(node, ast.alias):
                named[node.name] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named[node.value] += 1
    for source in library:
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined[node.name] += 1
    return sorted(name for name, k in defined.items() if named[name] < k)


def test_detector_sees_dead_and_named_definitions():
    library = ["class A:\n    def to_dict(self):\n        pass\n"
               "    def __repr__(self):\n        pass\n"
               "class B:\n    def to_dict(self):\n        pass\n"
               "def used():\n    pass\n"
               "def hooked():\n    pass\n"
               "def dead():\n    '''dead is only named in this docstring'''\n"]
    others = ["from m import used\nHOOKS = [('m', 'hooked')]\nb.to_dict()\n"]
    assert dead_definitions(library, others) == ["dead", "to_dict"]
    assert dead_definitions(library, others + ["a.to_dict()\ndead()\n"]) == []


def test_every_library_function_is_named_elsewhere():
    library = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    others = [p.read_text() for d in ("src", "tests", "demos", "perfbench")
              for p in sorted((ROOT / d).rglob("*.py")) if p.parent != SRC]
    assert dead_definitions(library, others) == []
