"""Text grammar for polynomials, poly vector fields and operators.

    poly    := term (('+'|'-') term)*
    term    := rational ['*' monomial] | monomial
    monomial:= tVar ('^' exp)? ('*' tVar ('^' exp)?)*
    vecterm := [term '*'] dword | term          dword := 'd'i ('/\\'|'∧') 'd'j ...
    opterm  := [term '*'] 'D[' mi (';' mi)* ']' | term

Parsing is inverse to the canonical ``text()`` serializers; errors carry the
offending position and distinguish syntax from arity/range problems.
"""

from __future__ import annotations

from .diffop import PolyDiffOp
from .poly import Poly
from .polyvec import PolyVec
from .scalars import ParseError, _acc, frac


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, s):
        self.skip_ws()
        return self.text.startswith(s, self.pos)

    def take(self, s):
        if self.startswith(s):
            self.pos += len(s)
            return True
        return False

    def expect(self, s, what):
        if not self.take(s):
            raise ParseError(f"expected {what}", self.pos)

    def integer(self, what="integer"):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected {what}", start)
        return int(self.text[start:self.pos])

    def done(self):
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_rational(sc: _Scanner):
    """An int, or a Fraction when the denominator does not divide (see ``frac``)."""
    num = sc.integer("number")
    if sc.take("/"):
        den = sc.integer("denominator")
        if den == 0:
            raise ParseError("zero denominator", sc.pos)
        return frac(num, den)
    return num


def _parse_var(sc: _Scanner, n):
    sc.expect("t", "a variable t<i>")
    i = sc.integer("variable index")
    if not 1 <= i <= n:
        raise ParseError(f"variable t{i} out of range 1..{n}", sc.pos)
    k = 1
    if sc.take("^"):
        k = sc.integer("exponent")
    return i, k


def _parse_poly_term(sc: _Scanner, n):
    """One signed product of a rational and t-powers, as (coeff, exponents)."""
    coeff = 1
    exps = [0] * n
    seen = False
    if sc.peek().isdigit():
        coeff = _parse_rational(sc)
        seen = True
        if not sc.take("*"):
            return coeff, tuple(exps)
        mark = sc.pos - 1  # position of the consumed '*'
        if sc.peek() in ("d", "D"):
            sc.pos = mark  # the '*' belongs to the vec/op word
            return coeff, tuple(exps)
        if sc.peek() != "t":
            raise ParseError("expected a factor after '*'", sc.pos)
    while True:
        if sc.peek() == "t":
            i, k = _parse_var(sc, n)
            exps[i - 1] += k
            seen = True
            if sc.take("*"):
                mark = sc.pos - 1
                if sc.peek() in ("d", "D"):
                    sc.pos = mark  # the '*' belongs to the vec/op word
                    break
                if sc.peek() != "t":
                    raise ParseError("expected a factor after '*'", sc.pos)
                continue
            break
        break
    if not seen:
        raise ParseError("expected a term", sc.pos)
    return coeff, tuple(exps)


def _sign(sc: _Scanner):
    """1 or -1 for a '+' or '-' at the scanner, None when there is neither."""
    if sc.take("+"):
        return 1
    if sc.take("-"):
        return -1
    return None


def _parse_sum(text, n, start=None, parse_word=None):
    """A signed sum of terms, accumulated as {word: {exponents: q}}.

    A term is a poly term, a word, or a poly term '*' a word, where a word
    begins with `start` and is read by `parse_word`; without them (plain
    polynomials) every term has the empty word.
    """
    sc = _Scanner(text)
    terms = {}
    sign = _sign(sc) or 1
    while sign:
        if sc.peek() == start:
            coeff, exps, word = 1, (0,) * n, parse_word(sc, n)
        else:
            coeff, exps = _parse_poly_term(sc, n)
            word = parse_word(sc, n) if start and sc.take("*") else ()
        if coeff:
            _acc(terms.setdefault(word, {}), exps, coeff * sign)
        sign = _sign(sc)
    if not sc.done():
        raise ParseError("trailing input", sc.pos)
    return terms


def parse_poly(text, n) -> Poly:
    return Poly(n, _parse_sum(text, n).get((), {}))


def _parse_dword(sc: _Scanner, n):
    word = []
    while True:
        sc.expect("d", "a derivation d<i>")
        i = sc.integer("derivation index")
        if not 1 <= i <= n:
            raise ParseError(f"derivation d{i} out of range 1..{n}", sc.pos)
        word.append(i)
        if sc.take("/\\") or sc.take("∧"):
            continue
        break
    return tuple(word)


def parse_polyvec(text, n) -> PolyVec:
    terms = _parse_sum(text, n, "d", _parse_dword)
    return PolyVec(n, {w: Poly(n, t) for w, t in terms.items()})


def _parse_multi_index(sc: _Scanner, n):
    mi = [sc.integer("derivative order")]
    while sc.take(","):
        mi.append(sc.integer("derivative order"))
    if len(mi) != n:
        raise ParseError(f"multi-index needs {n} entries, got {len(mi)}", sc.pos)
    return tuple(mi)


def _parse_op_word(sc: _Scanner, n):
    sc.expect("D[", "an operator word D[...]")
    word = [_parse_multi_index(sc, n)]
    while sc.take(";"):
        word.append(_parse_multi_index(sc, n))
    sc.expect("]", "closing ]")
    return tuple(word)


def parse_polydiffop(text, n) -> PolyDiffOp:
    terms = _parse_sum(text, n, "D", _parse_op_word)
    return PolyDiffOp(n, {w: Poly(n, t) for w, t in terms.items()})


def parse_element(text, kind, n):
    """Dispatch by kind: 'poly' | 'polyvec' | 'polydiffop'."""
    if kind == "poly":
        return parse_poly(text, n)
    if kind == "polyvec":
        return parse_polyvec(text, n)
    if kind == "polydiffop":
        return parse_polydiffop(text, n)
    raise ValueError(f"unknown element kind {kind!r}")
