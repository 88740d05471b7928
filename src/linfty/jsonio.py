"""JSON schemas for coefficient algebras, DGLA instances, and morphisms.

Instance documents look like

    {"coeff": {...CoeffDGA...} | "Q",
     "algebra": {"name": ..., "basis": [{"name","degree"}...],
                 "d": [[gen, {gen: coeff}]...],
                 "bracket": [[[g1, g2], {gen: coeff}]...]},
     "omega": {gen: coeff},
     "morphism": {"target": {...algebra...},
                  "taylor": [[j, [[[gen...], {gen: coeff}]...]]...]}}

with a coalgebra element, as ``exp`` writes it and ``ln`` reads it under
"element", as [{"word": [gen...], "coeff": coeff}...].  A d key is a name
string, and a name list (a bracket pair, a word) is an array of name strings,
never a string read letter by letter.  A coeff is either a "num/den" string
(a rational multiple of 1) or a {C-basis-name: "num/den"} object, where
"num/den" is an optional '-', digits, and optionally '/' and a nonzero
denominator.  A coefficient algebra ("coeff", or a --coeff-algebra document)
is what ``coeff_algebra_to_json`` writes, each index an int inside its basis.
In every basis the degrees are ints and the names distinct strings.  Any other
entry (a JSON number for a "num/den", "1/0", "0.5") is a ParseError naming it,
and so is a repeated one: a key within one JSON object, a Taylor order, a word
within one order, a d key, a bracket pair, a coefficient-algebra row or a term
index within a row.  [x, y] and [y, x] are two bracket pairs; ``dgla_check``
decides their antisymmetry.
Loaded values are ints when integral, else Fractions (see ``scalars.frac``).
"""

from __future__ import annotations

import json
import re
import sys

from .coalg import CoalgElem, GradedBasisModule, TaylorSeq
from .linf import LinfAlgebra, LinfMorphism, MCElement
from .scalars import CoeffDGA, DgaElem, ParseError, _acc, frac, frac_str, rational_field


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}

# an optional '-', digits, then optionally '/' and digits of a nonzero value
_NUM_DEN = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _expect(doc, kind, where, wanted=None):
    """doc, or a ParseError naming the entry `where` when doc is not a `kind`."""
    if not isinstance(doc, kind):
        raise ParseError(f"{where}: expected {wanted or _JSON_TYPES[kind]}, "
                         f"got {_JSON_TYPES.get(type(doc), type(doc).__name__)}")
    return doc


def _object(pairs):
    """The JSON object of the (key, value) pairs, or a ParseError naming a repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ParseError(f"JSON object key {json.dumps(repeated)}: repeated")
    return obj


def read_document(path):
    """The JSON document in the file at path; '-' reads stdin."""
    if path == "-":
        return json.load(sys.stdin, object_pairs_hook=_object)
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=_object)


def coeff_to_json(c: DgaElem):
    if set(c.coeffs) <= {c.alg.unit_index}:
        return frac_str(c.rational_part())
    return {c.alg.basis[i]: frac_str(q) for i, q in sorted(c.coeffs.items())}


def _rational(doc, where, *at):
    """The "num/den" string doc as ``frac`` stores it, or a ParseError naming where.format(*at)."""
    if type(doc) is str and _NUM_DEN.fullmatch(doc):
        num, _, den = doc.partition("/")
        return frac(int(num), int(den)) if den else int(num)
    got = json.dumps(doc) if isinstance(doc, str) else _JSON_TYPES.get(type(doc), repr(doc))
    raise ParseError(f'{where.format(*at)}: expected a "num/den" string, got {got}')


def _array(doc, n, where, *at):
    """doc if it is an array of n entries (of any number when n is None), else a
    ParseError naming where.format(*at) and doc."""
    if type(doc) is list and n in (None, len(doc)):
        return doc
    of = "" if n is None else f" of {n}"
    raise ParseError(f"{where.format(*at)} {json.dumps(doc)}: expected an array{of}")


def _index(doc, n, where, *at):
    """doc if it indexes an n-element basis, else a ParseError like ``_rational``'s."""
    if type(doc) is int and 0 <= doc < n:
        return doc
    raise ParseError(f"{where.format(*at)}: expected an index below {n}, got {json.dumps(doc)}")


def _put(table, key, value, where, *at):
    """table[key] = value, or a ParseError naming where.format(*at) when key is
    already there."""
    if key in table:
        raise ParseError(f"{where.format(*at)}: repeated")
    table[key] = value


def _objects(doc, where):
    """doc if it is an array of objects, else a ParseError naming where or the
    entry that is not an object."""
    for b in _expect(doc, list, where):
        if not isinstance(b, dict):
            _expect(b, dict, f"{where} entry {json.dumps(b)}")
    return doc


def _basis(doc, where):
    """The (name, degree) pairs of a basis array of objects."""
    return [(b["name"], b["degree"]) for b in _objects(doc, where)]


def coeff_from_json(C: CoeffDGA, doc, where="coefficient") -> DgaElem:
    if isinstance(doc, str):
        return C.scalar(_rational(doc, "{}", where))
    _expect(doc, dict, where, 'a "num/den" string or an object')
    return C.elem({name: _rational(q, "{} coefficient {!r}", where, name)
                   for name, q in doc.items()})


def _table(rows, width, n, where):
    """{i: {k: q}} from rows [i, terms] (width 2), or {(i, j): {k: q}} from rows
    [i, j, terms] (width 3), each term [k, "num/den"] and each index below n."""
    table = {}
    for row in _expect(rows, list, where):
        _array(row, width, "{} entry", where)
        key = tuple(_index(i, n, "{} entry {}", where, row[:-1]) for i in row[:-1])
        at = list(key) if width == 3 else key[0]
        terms = {}
        _put(table, key if width == 3 else key[0], terms, "{} entry {}", where, at)
        for term in _array(row[-1], None, "{} entry {} terms", where, at):
            k, q = _array(term, 2, "{} entry {} term", where, at)
            _put(terms, _index(k, n, "{} entry {} term", where, at),
                 _rational(q, "{} entry {} term {}", where, at, k), "{} entry {} term {}",
                 where, at, k)
    return table


def coeff_algebra_to_json(C: CoeffDGA) -> dict:
    def terms(v):
        return [[k, frac_str(q)] for k, q in sorted(v.items())]
    return {"basis": [{"name": n, "degree": d} for n, d in zip(C.basis, C.degrees)],
            "mul": [[i, j, terms(v)] for (i, j), v in sorted(C.mul.items())],
            "d": [[i, terms(v)] for i, v in sorted(C.diff.items())],
            "unit": C.unit_index, "ideal": sorted(C.ideal)}


def coeff_algebra_from_json(doc) -> CoeffDGA:
    """The CoeffDGA a coefficient-algebra document spells, every entry checked
    (the axioms are ``dga_check``'s)."""
    _expect(doc, dict, "coefficient algebra")
    basis = _basis(doc["basis"], "coefficient algebra basis")  # CoeffDGA checks it
    n = len(basis)
    return CoeffDGA([b[0] for b in basis], [b[1] for b in basis],
                    _table(doc["mul"], 3, n, "coefficient algebra mul"),
                    _table(doc["d"], 2, n, "coefficient algebra d"),
                    _index(doc["unit"], n, "coefficient algebra unit"),
                    [_index(i, n, "coefficient algebra ideal") for i in doc.get("ideal", [])])


def word_from_json(module, doc, where, length=None):
    """The letters of a JSON array of generator names, `length` of them when
    given, or a ParseError naming the entry `where`."""
    wanted = "an array of names" if length is None else f"an array of {length} names"
    _expect(doc, list, where, wanted)
    if not all(isinstance(name, str) for name in doc) or length not in (None, len(doc)):
        raise ParseError(f"{where}: expected {wanted}")
    return tuple(module.index[name] for name in doc)


def vect_to_json(module, v):
    return {module.gen_name(i): coeff_to_json(c) for i, c in sorted(v.items())}


def vect_from_json(module, doc, where="vector"):
    return {module.index[name]: coeff_from_json(module.coeff, val, f"{where} entry {name!r}")
            for name, val in _expect(doc, dict, where).items()}


def algebra_to_json(alg: LinfAlgebra) -> dict:
    module = alg.module
    d_table, bracket = alg.dgla_tables()
    return {
        "name": module.name,
        "basis": [{"name": n, "degree": d} for n, d in module.gens],
        "d": [[module.gen_name(i), vect_to_json(module, v)]
              for i, v in sorted(d_table.items()) if v],
        "bracket": [[[module.gen_name(i), module.gen_name(j)], vect_to_json(module, v)]
                    for (i, j), v in sorted(bracket.items()) if v and i <= j],
    }


def _entries(doc, where):
    """The [key, value] pairs of the array doc, or a ParseError naming the entry."""
    return (_array(entry, 2, "{} entry", where) for entry in _array(doc, None, where))


def algebra_from_json(doc, C: CoeffDGA) -> LinfAlgebra:
    module = GradedBasisModule(doc.get("name", "g"), _basis(doc["basis"], "algebra basis"), C)
    d_table, bracket = {}, {}
    for key, val in _entries(doc.get("d", []), "d"):
        _put(d_table, module.index[_expect(key, str, f"d key {key!r}", "a generator name")],
             vect_from_json(module, val, f"d of {key!r}"), "d key {!r}", key)
    for pair, val in _entries(doc.get("bracket", []), "bracket"):
        _put(bracket, word_from_json(module, pair, f"bracket pair {pair!r}", 2),
             vect_from_json(module, val, f"bracket of {pair}"), "bracket pair {!r}", pair)
    return LinfAlgebra.from_dgla(module, d_table, bracket)


def taylor_to_json(T: TaylorSeq) -> list:
    src = T.source
    out = []
    for j, tab in sorted(T.maps.items()):
        entries = [[[src.gen_name(i) for i in w], vect_to_json(T.target, v)]
                   for w, v in sorted(tab.items())]
        out.append([j, entries])
    return out


def taylor_from_json(doc, source_shifted, target_shifted, intent) -> TaylorSeq:
    maps = {}
    for j, entries in _entries(doc, "morphism taylor"):
        if type(j) is not int or j < 1:
            raise ParseError(f"morphism taylor order {json.dumps(j)}: expected a positive int")
        tab = {}
        _put(maps, j, tab, "morphism taylor order {}", j)
        for word_names, val in _entries(entries, f"morphism taylor order {j}"):
            _put(tab, word_from_json(source_shifted, word_names, f"taylor word {word_names!r}"),
                 vect_from_json(target_shifted, val, f"taylor value on {word_names}"),
                 "taylor word {!r} of order {}", word_names, j)
    return TaylorSeq(source_shifted, target_shifted, maps, intent)


def element_to_json(x: CoalgElem) -> list:
    module = x.module
    return [{"coeff": coeff_to_json(x.words[w]), "word": [module.gen_name(i) for i in w]}
            for w in sorted(x.words)]


def element_from_json(module, doc) -> CoalgElem:
    """The element of S(module) that an array of {"word", "coeff"} entries spells."""
    words = {}
    for entry in _objects(doc, "element"):
        c = coeff_from_json(module.coeff, entry["coeff"])
        w = word_from_json(module, entry["word"], f"element word {entry['word']!r}")
        if c:
            _acc(words, w, c)
    return CoalgElem(module, words)


def instance_to_json(algebra: LinfAlgebra, omega=None, morphism: LinfMorphism = None) -> dict:
    C = algebra.module.coeff
    doc = {"coeff": "Q" if C.is_rational_field else coeff_algebra_to_json(C),
           "algebra": algebra_to_json(algebra)}
    if omega is not None:
        v = omega.vect if isinstance(omega, MCElement) else omega
        doc["omega"] = vect_to_json(algebra.module, v)
    if morphism is not None:
        doc["morphism"] = {"target": algebra_to_json(morphism.target),
                           "taylor": taylor_to_json(morphism.taylor)}
    return doc


def instance_from_json(doc):
    """Returns (algebra, omega vect or None, morphism or None).

    The algebras are checked; the morphism is not (see
    LinfMorphism.check_intertwines).
    """
    cdoc = _expect(doc, dict, "instance document").get("coeff", "Q")
    C = rational_field() if cdoc == "Q" else \
        coeff_algebra_from_json(_expect(cdoc, dict, "coeff", 'an object or "Q"'))
    algebra = algebra_from_json(_expect(doc["algebra"], dict, "algebra"), C)
    omega = None
    if "omega" in doc:
        omega = vect_from_json(algebra.module, doc["omega"], "omega")
    morphism = None
    if "morphism" in doc:
        mdoc = _expect(doc["morphism"], dict, "morphism")
        target = algebra_from_json(_expect(mdoc["target"], dict, "morphism target"), C)
        T = taylor_from_json(mdoc["taylor"], algebra.shifted,
                             target.shifted, "morphism")
        morphism = LinfMorphism(algebra, target, T, check=False)
    return algebra, omega, morphism


def dumps(obj, pretty=False) -> str:
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
