"""Every name a library module, test file or demo imports is used in that
file, every function the library defines is named somewhere else, and every
defaulted parameter is passed by some call.  Only ``jsonio`` imports ``json``,
and ``scalars`` imports no ``re``.  ``import linfty`` loads no layer, and each
name the package exports loads its own module when it is first read.
"""

import ast
import collections
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "linfty"
MODULES = sorted(SRC.glob("*.py"))
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


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


def file_id(path):
    """A library module by its name, a test file or a demo by its path."""
    return path.name if path.parent == SRC else str(path.relative_to(ROOT))


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=file_id)
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


def never_passed(library, others):
    """Defaulted parameters of the functions and methods defined at the top
    level of the `library` sources, or in their classes, that no call across
    `library` and `others` passes, as "function(parameter)".

    Calls are matched by name: ``f(...)`` and ``x.f(...)`` call every ``f``,
    and ``C(...)`` calls ``C.__init__``, as ``cls(...)`` inside class C does.
    A parameter is passed when a call names it as a keyword, or reaches its
    position (``x.f(...)`` binds the first parameter of a method), or spreads
    ``*args`` or ``**kwargs``.
    """
    calls = collections.defaultdict(list)
    for source in (*library, *others):
        tree = ast.parse(source)
        owner = {}
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            owner.update((n, cls.name) for n in ast.walk(cls))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = owner.get(node) if node.func.id == "cls" else node.func.id
                bound = False
            elif isinstance(node.func, ast.Attribute):
                name, bound = node.func.attr, True
            else:
                continue
            calls[name].append((bound, len(node.args),
                                any(isinstance(a, ast.Starred) for a in node.args),
                                {k.arg for k in node.keywords}))
    out = []
    for source in library:
        tree = ast.parse(source)
        scopes = [(None, tree.body)] + [(n.name, n.body) for n in ast.walk(tree)
                                        if isinstance(n, ast.ClassDef)]
        for cls, body in scopes:
            for fn in (n for n in body if isinstance(n, ast.FunctionDef)):
                init = cls is not None and fn.name == "__init__"
                method = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
                positional = fn.args.posonlyargs + fn.args.args
                first = len(positional) - len(fn.args.defaults)
                params = [(k, a.arg) for k, a in enumerate(positional) if k >= first]
                params += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                           if d is not None]
                for k, arg in params:
                    if not any(arg in kws or None in kws
                               or k is not None and (star or n + (method and (bound or init)) > k)
                               for bound, n, star, kws in calls[cls if init else fn.name]):
                        out.append(f"{fn.name}({arg})")
    return out


def test_detector_sees_never_passed_parameters():
    library = ["class A:\n"
               "    def __init__(self, x, y=1, *, z=2):\n        pass\n"
               "    @classmethod\n    def make(cls, x, w=0):\n        return cls(x, 3)\n"
               "    def scale(self, q, r=1):\n        pass\n"
               "    @staticmethod\n    def pure(a, b=0):\n        pass\n"
               "def f(a, b=None, c=0):\n    return f(1, c=2)\n"
               "def spread(a=1, b=2):\n    pass\n"]
    others = ["A.make(1)\na.scale(2)\nm.pure(1)\nspread(*xs)\n"]
    assert never_passed(library, others) == ["f(b)", "__init__(z)", "make(w)", "scale(r)",
                                             "pure(b)"]
    others.append("A(1, z=0)\nA.make(1, 2)\na.scale(1, 2)\nm.pure(1, 2)\nf(0, **kw)\n")
    assert never_passed(library, others) == []


def test_every_defaulted_parameter_is_passed():
    library = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    others = [p.read_text() for d in ("src", "tests", "demos", "perfbench")
              for p in sorted((ROOT / d).rglob("*.py")) if p.parent != SRC]
    assert never_passed(library, others) == []


def imported_modules(source):
    """The top-level names of the modules that `source` imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_detector_sees_imported_modules():
    source = ("import json.decoder\nfrom re import compile\nfrom . import jsonio\n"
              "def f():\n    import sys\n")
    assert imported_modules(source) == {"json", "re", "sys"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=file_id)
def test_only_jsonio_reads_or_writes_json(path):
    # one module owns every JSON schema and reader; scalars parses no text
    banned = {"json"} | ({"re"} if path.name == "scalars.py" else set())
    assert path.name == "jsonio.py" or not imported_modules(path.read_text()) & banned


def fresh(code):
    """The stdout of `code` run in a fresh interpreter that imports linfty from src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout


LOADED = "import sys\nprint(sorted(m for m in sys.modules if m.startswith('linfty.')))"


def test_import_linfty_loads_no_submodule():
    assert fresh("import linfty\n" + LOADED) == "[]\n"


def test_import_diffop_loads_its_layers_alone():
    assert fresh("import linfty.diffop\n" + LOADED) == (
        "['linfty.diffop', 'linfty.poly', 'linfty.scalars']\n")


def test_every_export_is_its_submodules_object():
    code = ("import importlib, linfty\n"
            "print([n for m, names in linfty._EXPORTS.items() for n in names"
            " if getattr(linfty, n) is not getattr(importlib.import_module('linfty.' + m), n)])\n"
            "print(linfty.__all__ == [n for names in linfty._EXPORTS.values() for n in names])\n"
            "print(linfty.Poly is linfty.poly.Poly)")
    assert fresh(code) == "[]\nTrue\nTrue\n"


def test_an_unknown_name_raises_attribute_error():
    code = ("import linfty\n"
            "try:\n    linfty.no_such_name\nexcept AttributeError as ex:\n    print(ex)")
    assert fresh(code) == "module 'linfty' has no attribute 'no_such_name'\n"


def test_star_import_binds_every_export():
    code = ("from linfty import *\nimport linfty\n"
            "print(len(linfty.__all__), [n for n in linfty.__all__ if n not in globals()])")
    assert fresh(code) == "57 []\n"
