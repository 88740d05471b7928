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
(a rational multiple of 1) or a {C-basis-name: "num/den"} object.  Exact
rationals only: a JSON number or boolean in place of a "num/den" string, or a
string that is not an optional '-', digits and optionally '/' and a nonzero
denominator (such as "1/0", "0.5" or " 1/2 "), is a ParseError naming the
entry.
Loaded values are ints when integral, else Fractions (see ``scalars.frac``).
"""

from __future__ import annotations

import json

from .coalg import CoalgElem, GradedBasisModule, TaylorSeq
from .grammar import ParseError
from .linf import LinfAlgebra, LinfMorphism, MCElement
from .scalars import CoeffDGA, DgaElem, _acc, frac, frac_str, rational_field


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def _expect(doc, kind, where, wanted=None):
    """doc, or a ParseError naming the entry `where` when doc is not a `kind`."""
    if not isinstance(doc, kind):
        raise ParseError(f"{where}: expected {wanted or _JSON_TYPES[kind]}, "
                         f"got {_JSON_TYPES.get(type(doc), type(doc).__name__)}")
    return doc


def coeff_to_json(c: DgaElem):
    if set(c.coeffs) <= {c.alg.unit_index}:
        return frac_str(c.rational_part())
    return {c.alg.basis[i]: frac_str(q) for i, q in sorted(c.coeffs.items())}


def _rational(doc, where):
    """The "num/den" string doc as ``frac`` reads it, or a ParseError naming the entry."""
    _expect(doc, str, where, 'a "num/den" string')
    try:
        return frac(doc)
    except ValueError as ex:
        raise ParseError(f"{where}: {ex}") from None


def coeff_from_json(C: CoeffDGA, doc, where="coefficient") -> DgaElem:
    if isinstance(doc, str):
        return C.scalar(_rational(doc, where))
    _expect(doc, dict, where, 'a "num/den" string or an object')
    return C.elem({name: _rational(q, f"{where} coefficient {name!r}")
                   for name, q in doc.items()})


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


def algebra_from_json(doc, C: CoeffDGA) -> LinfAlgebra:
    module = GradedBasisModule(doc.get("name", "g"),
                               [(b["name"], b["degree"]) for b in doc["basis"]], C)
    d_table = {module.index[_expect(entry[0], str, f"d key {entry[0]!r}", "a generator name")]:
               vect_from_json(module, entry[1], f"d of {entry[0]!r}")
               for entry in doc.get("d", [])}
    bracket = {word_from_json(module, pair, f"bracket pair {pair!r}", 2):
               vect_from_json(module, val, f"bracket of {pair}")
               for pair, val in doc.get("bracket", [])}
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
    for j, entries in doc:
        tab = {}
        for word_names, val in entries:
            w = word_from_json(source_shifted, word_names, f"taylor word {word_names!r}")
            tab[w] = vect_from_json(target_shifted, val, f"taylor value on {word_names}")
        maps[int(j)] = tab
    return TaylorSeq(source_shifted, target_shifted, maps, intent)


def element_to_json(x: CoalgElem) -> list:
    module = x.module
    return [{"coeff": coeff_to_json(x.words[w]), "word": [module.gen_name(i) for i in w]}
            for w in sorted(x.words)]


def element_from_json(module, doc) -> CoalgElem:
    """The element of S(module) that an array of {"word", "coeff"} entries spells."""
    words = {}
    for entry in doc:
        c = coeff_from_json(module.coeff, entry["coeff"])
        w = word_from_json(module, entry["word"], f"element word {entry['word']!r}")
        if c:
            _acc(words, w, c)
    return CoalgElem(module, words)


def instance_to_json(algebra: LinfAlgebra, omega=None, morphism: LinfMorphism = None) -> dict:
    C = algebra.module.coeff
    doc = {"coeff": "Q" if C.is_rational_field else C.to_json_dict(),
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
    C = rational_field() if cdoc == "Q" else CoeffDGA.from_json_dict(cdoc)
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
