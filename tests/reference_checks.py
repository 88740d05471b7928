"""Reference walks for Q∘Q = 0 and Psi∘Q = Q'∘Psi over every canonical word,
and a reference Gaussian elimination.

The walks rebuild the operators from the Taylor tables with ``linfty.coalg``
and share no code with ``linfty.linf``, whose checks stop at an order derived
from the Taylor lengths.  Each walk returns the witness words in walk order, so
the derived check's witnesses must be a prefix of the reference's.

The morphism column walks every set partition of a word's positions, sorts
the blocks by their first position, unshuffles the word into their
concatenation and multiplies the block values, taking both signs from
``reference_canon``; it shares no code with ``morph_from_taylor``, which
recurses on the block of the first letter, and no sign code with
``koszul_sort``.  The Psi∘Q walk applies Psi through it.

``reference_canon`` sorts a word and counts its inverted odd pairs, with no
memo and no insertion sort.  ``reference_symmetric_product`` multiplies
coalgebra elements through it, one ``DgaElem`` product per pair of words,
added whole; it shares with ``CoalgElem.__mul__``, which adds each pair's
terms straight into the sums, only the ring's term product ``_mul_acc``.

The coefficient-algebra loop forms every product of basis elements as a
``DgaElem``, on every pair and every triple, the unit's included, where
``dga_check`` leaves the unit rows to the ``CoeffDGA`` constructor and sums
flat residues; it shares no code with ``dga_check``.

The DGLA-axiom loop rebuilds every bracket for every ordered pair and
triple, where ``dgla_check`` skips the pairs and triples whose checks have no
nonzero term; it shares no code with ``linfty.linf``.

The DGLA table builders walk every canonical word of order 2, every ordered
pair of generators and every ordered pair of letters of A x g, where
``linfty.linf`` walks only the nonzero table entries; they share no code with
``linfty.linf``.

The elimination scans every remaining row for each pivot, in row order, and
back-substitutes in pivot order; it shares no code with ``linfty.linalg``.

The insertion walk inserts one term into one slot at a time, one coefficient
product per Leibniz split, and builds the Gerstenhaber bracket per degree pair.
It keeps every part that reaches a word and sums them at the end, cut at the
least ``trunc`` among them, so no grouping of the sum decides ``trunc``; it
shares no code with ``linfty.diffop`` beyond ``Poly``.

The HKR report works on the full slices, one d row per basis element
t^e * D[w] and one u1 image per t^e * d_w, and multiplies nothing; it shares
``hochschild_d``, ``u1``, ``op_coords`` and ``rank`` with the library.

``is_exact`` is the storage invariant of every coefficient: an int, or a
Fraction whose denominator is not 1; a float or a bool is neither.
"""

import itertools
import math
from fractions import Fraction

from linfty.coalg import CoalgElem, TaylorSeq, coder_from_taylor, vect_acc, vect_degree
from linfty.diffop import PolyDiffOp, hochschild_d
from linfty.hkr import op_coords, u1
from linfty.linalg import rank
from linfty.poly import Poly
from linfty.polyvec import PolyVec
from linfty.scalars import DgaElem, _acc, _acc_neg, ksign


def is_exact(q):
    """True for an int (not a bool) and for a Fraction with denominator != 1."""
    return type(q) is int or (type(q) is Fraction and q.denominator != 1)


def square_zero_witnesses(taylor, max_order):
    """Every canonical word up to max_order with Q(Q(word)) != 0."""
    module = taylor.source
    Q = coder_from_taylor(taylor)
    bad = []
    for w in module.words_up_to(max_order):
        x = CoalgElem(module, {w: module.coeff.one()})
        if not Q(Q(x)).is_zero():
            bad.append([module.gen_name(i) for i in w])
    return bad


def reference_canon(degrees, letters):
    """Sorted letters and the product of (-1)^{|a||b|} over the inverted pairs,
    or None when an odd letter repeats; no memo."""
    if any(letters.count(a) > 1 and degrees[a] % 2 for a in letters):
        return None
    sign = 1
    for p, q in itertools.combinations(range(len(letters)), 2):
        if letters[p] > letters[q] and degrees[letters[p]] * degrees[letters[q]] % 2:
            sign = -sign
    return sign, tuple(sorted(letters))


def reference_symmetric_product(x, y):
    """x * y in the symmetric algebra, pair by pair: each pair's letters sorted
    by ``reference_canon`` and its DgaElem product c1 * c2 added with ``_acc``
    when nonzero, as {word: DgaElem}; the element's guard W is not read."""
    degrees = [d for _, d in x.module.gens]
    out = {}
    for w1, c1 in x.words.items():
        for w2, c2 in y.words.items():
            r = reference_canon(degrees, w1 + w2)
            if r is None:
                continue
            sign, w = r
            c = c1 * c2
            if c:
                (_acc if sign == 1 else _acc_neg)(out, w, c)
    return out


def set_partitions(items):
    """All partitions of a list of positions; blocks keep ascending order."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]
        yield [[first]] + part


def reference_morph_column(T, w):
    """The coalgebra morphism with Taylor coefficients T on the canonical word
    w, summed over every set partition of w's positions."""
    src, tgt = T.source, T.target
    maxj = T.max_j()
    src_degrees, tgt_degrees = ([m.degree(i) for i in range(len(m))] for m in (src, tgt))
    if not w:
        return {(): tgt.coeff.one()}
    out = {}
    for blocks in set_partitions(range(len(w))):
        blocks = sorted(blocks, key=lambda b: b[0])
        if any(len(b) > maxj for b in blocks):
            continue
        sign = reference_canon(src_degrees, tuple(w[i] for b in blocks for i in b))[0]
        vals = []
        for b in blocks:
            v = T.eval_word(tuple(w[i] for i in b))
            if not v:
                break
            vals.append(v)
        if len(vals) < len(blocks):
            continue
        # product of the block values in S(target)
        for combo in itertools.product(*(v.items() for v in vals)):
            r = reference_canon(tgt_degrees, tuple(i for i, _ in combo))
            if r is None:
                continue
            s2, cw = r
            coeff = combo[0][1]
            for _, cv in combo[1:]:
                coeff = coeff * cv
            if coeff:
                (_acc if sign * s2 == 1 else _acc_neg)(out, cw, coeff)
    return out


def _reference_morph(T, x):
    """The sum of c * reference_morph_column(T, w) over the words of x."""
    out = {}
    for w, c in x.words.items():
        vect_acc(out, reference_morph_column(T, w), c)
    return CoalgElem(T.target, out)


def intertwine_witnesses(psi_taylor, source_taylor, target_taylor, max_order):
    """Every canonical word up to max_order with Psi(Q(word)) != Q'(Psi(word)),
    Psi applied by the partition walk."""
    module = psi_taylor.source
    Q, Q_t = coder_from_taylor(source_taylor), coder_from_taylor(target_taylor)
    bad = []
    for w in module.words_up_to(max_order):
        x = CoalgElem(module, {w: module.coeff.one()})
        if _reference_morph(psi_taylor, Q(x)) != Q_t(_reference_morph(psi_taylor, x)):
            bad.append([module.gen_name(i) for i in w])
    return bad


def dga_violations(A):
    """Every violation of the CoeffDGA axioms as {"axiom", "witness", "detail"},
    in the order dga_check reports them, from DgaElem products of the basis
    elements over every pair and every triple."""
    bad = []
    n = len(A.basis)

    def add(axiom, witness, detail):
        bad.append({"axiom": axiom, "witness": witness, "detail": detail})

    def degree(x):
        """The common degree of x's support, or None when x is zero or mixed."""
        degs = {A.degrees[i] for i in x.coeffs}
        return degs.pop() if len(degs) == 1 else None

    for i, j in itertools.product(range(n), repeat=2):
        if (i, j) not in A.mul:
            add("structural", [A.basis[i], A.basis[j]], "missing product entry")
    for i in range(n):
        if i not in A.diff:
            add("structural", [A.basis[i]], "missing differential entry")
    if bad:
        return bad
    b = [A.basis_elem(i) for i in range(n)]

    def prod(i, j):
        return DgaElem(A, A.mul[(i, j)])

    for i, j in itertools.product(range(n), repeat=2):
        p, want = prod(i, j), A.degrees[i] + A.degrees[j]
        if p and degree(p) != want:
            add("grading", [A.basis[i], A.basis[j]], f"product not homogeneous of degree {want}")
    for i in range(n):
        if b[i].d() and degree(b[i].d()) != A.degrees[i] + 1:
            add("grading", [A.basis[i]], "differential is not degree +1")
    u = A.unit_index
    for i in range(n):
        if prod(u, i) != b[i] or prod(i, u) != b[i]:
            add("unit", [A.basis[i]], "1*a != a or a*1 != a")
    if b[u].d():
        add("unit", ["1"], "d(1) != 0")
    for i, j in itertools.product(range(n), repeat=2):
        if prod(j, i) != prod(i, j).scale(ksign(A.degrees[i] * A.degrees[j])):
            add("commutativity", [A.basis[i], A.basis[j]], "b*a != (-1)^{deg a deg b} a*b")
    for i in range(n):
        if A.degrees[i] % 2 == 1 and prod(i, i):
            add("commutativity", [A.basis[i], A.basis[i]], "odd c with c^2 != 0")
    for i, j, k in itertools.product(range(n), repeat=3):
        if prod(i, j) * b[k] != b[i] * prod(j, k):
            add("associativity", [A.basis[i], A.basis[j], A.basis[k]], "(ab)c != a(bc)")
    for i in range(n):
        if b[i].d().d():
            add("d_squared", [A.basis[i]], "d(d(a)) != 0")
    for i, j in itertools.product(range(n), repeat=2):
        if prod(i, j).d() != b[i].d() * b[j] + (b[i] * b[j].d()).scale(ksign(A.degrees[i])):
            add("leibniz", [A.basis[i], A.basis[j]], "d(ab) != d(a)b + (-1)^{deg a} a d(b)")
    for i in A.ideal:
        for j in range(n):
            for p in (prod(i, j), prod(j, i)):
                if not p.in_ideal():
                    add("ideal", [A.basis[i], A.basis[j]], "product leaves the ideal span")
    # the supports of m, m^2, ..., m^order, each from the products of the last
    powers = [set(A.ideal)]
    while len(powers) < A.nilpotency_order:
        powers.append({k for i in powers[-1] for j in A.ideal for k in (b[i] * b[j]).coeffs})
    if powers[-1]:
        add("nilpotency", sorted(A.basis[i] for i in powers[-1]), f"m^{A.nilpotency_order} != 0")
    elif A.nilpotency_order > 1 and not powers[-2]:
        add("nilpotency", [], "nilpotency_order is not minimal")
    return bad


def dgla_violations(module, d_table, bracket_table):
    """Every violation of the DGLA axioms as {"axiom", "witness", "detail"},
    in the order dgla_check reports them: per generator, per ordered pair,
    per ordered triple."""
    bad = []
    one = module.coeff.one()

    def add(axiom, letters, detail):
        bad.append({"axiom": axiom, "witness": [module.gen_name(i) for i in letters],
                    "detail": detail})

    def dd(v):
        out = {}
        for i, c in v.items():
            vect_acc(out, d_table.get(i, {}), c)
        return out

    def br(v, w):
        out = {}
        for i, c in v.items():
            for j, c2 in w.items():
                vect_acc(out, bracket_table.get((i, j), {}), c * c2)
        return out

    n, deg = len(module), module.degree
    for i in range(n):
        v = d_table.get(i, {})
        if v and vect_degree(module, v) != deg(i) + 1:
            add("grading", [i], "d is not degree +1")
        if dd(v):
            add("d_squared", [i], "d(d(x)) != 0")
    for i, j in itertools.product(range(n), repeat=2):
        v = bracket_table.get((i, j), {})
        if v and vect_degree(module, v) != deg(i) + deg(j):
            add("grading", [i, j], "bracket is not degree-additive")
        if vect_acc(dict(v), bracket_table.get((j, i), {}), ksign(deg(i) * deg(j))):
            add("antisymmetry", [i, j], "[x,y] != -(-1)^{|x||y|}[y,x]")
        rhs = vect_acc(br(d_table.get(i, {}), {j: one}),
                       br({i: one}, d_table.get(j, {})), ksign(deg(i)))
        if vect_acc(dd(v), rhs, -1):
            add("leibniz", [i, j], "d[x,y] != [dx,y] + (-1)^{|x|}[x,dy]")
    for i, j, k in itertools.product(range(n), repeat=3):
        rhs = vect_acc(br(bracket_table.get((i, j), {}), {k: one}),
                       br({j: one}, bracket_table.get((i, k), {})), ksign(deg(i) * deg(j)))
        if vect_acc(br({i: one}, bracket_table.get((j, k), {})), rhs, -1):
            add("jacobi", [i, j, k], "[x,[y,z]] != [[x,y],z] + (-1)^{|x||y|}[y,[x,z]]")
    return bad


def _suspended(module, i, v):
    """(-1)^{|x_i| + 1} v: the sign of d^2 Q on a word starting with x_i."""
    return {k: c.scale((-1) ** ((module.degree(i) + 1) % 2)) for k, c in v.items()}


def reference_taylor_from_dgla(module, d_table, bracket_table):
    """The coderivation Taylor tables of DGLA tables: d^1 on every generator,
    d^2 on every canonical word of order 2 of the shifted module."""
    shifted = module.shifted()
    maps = {1: {(i,): dict(d_table[i]) for i in range(len(module)) if d_table.get(i)},
            2: {(i, j): _suspended(module, i, bracket_table[(i, j)])
                for i, j in shifted.words(2) if bracket_table.get((i, j))}}
    return TaylorSeq(shifted, shifted, {j: t for j, t in maps.items() if t}, "coderivation")


def reference_tables_from_taylor(module, T):
    """(d, bracket) read off d^1 and d^2 of T, the bracket on every ordered pair."""
    d_table = {i: dict(v) for (i,), v in T.maps.get(1, {}).items()}
    bracket = {}
    for i, j in itertools.product(range(len(module)), repeat=2):
        v = T.eval_word((i, j))
        if v:
            bracket[(i, j)] = _suspended(module, i, v)
    return d_table, bracket


def reference_tensor_bracket(A, module, bracket_table):
    """The bracket of A x g on every ordered pair of letters a1 g1, a2 g2:
    (-1)^{|a2||g1|} a1 a2 x [g1, g2], with a g letter numbered a * dim g + g."""
    letters = list(itertools.product(range(len(A)), range(len(module))))
    out = {}
    for (i1, (a1, g1)), (i2, (a2, g2)) in itertools.product(enumerate(letters), repeat=2):
        sign = (-1) ** (A.degrees[a2] * module.degree(g1) % 2)
        v = {}
        for ak, q in A.mul_basis(a1, a2).items():
            for gk, c in bracket_table.get((g1, g2), {}).items():
                _acc(v, ak * len(module) + gk, c.scale(sign * q))
        if v:
            out[(i1, i2)] = v
    return out


def _eliminate(rows):
    """Normalised pivot rows and their columns; each pivot clears its column
    from every row after it."""
    work = [dict(r) for r in rows if r]
    pivots, pivot_cols = [], []
    while work:
        row = work.pop(0)
        col = min(row)
        inv = 1 / row[col]
        row = {c: v * inv for c, v in row.items()}
        for other in work:
            f = other.get(col)
            if f:
                for c, v in row.items():
                    s = other.get(c, 0) - f * v
                    if s:
                        other[c] = s
                    else:
                        other.pop(c, None)
        pivots.append(row)
        pivot_cols.append(col)
        work = [r for r in work if r]
    return pivots, pivot_cols


def reference_rank(rows):
    return len(_eliminate(rows)[0])


def reference_nullspace(rows, ncols):
    """Kernel basis, one dense tuple per free column of 0..ncols-1."""
    pivots, pivot_cols = _eliminate(rows)
    for i in range(len(pivots) - 1, -1, -1):
        for j in range(i):
            f = pivots[j].get(pivot_cols[i])
            if f:
                for c, v in pivots[i].items():
                    s = pivots[j].get(c, 0) - f * v
                    if s:
                        pivots[j][c] = s
                    else:
                        pivots[j].pop(c, None)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_cols):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(pivots, pivot_cols):
            if row.get(fc):
                vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return basis


def _leibniz_splits(j, parts):
    """(a_1, ..., a_parts) with a_1 + ... + a_parts = j, and the multinomial."""
    per_var = [[(comp, math.factorial(k) // math.prod(map(math.factorial, comp)))
                for comp in itertools.product(range(k + 1), repeat=parts)
                if sum(comp) == k]
               for k in j]
    for choice in itertools.product(*per_var):
        yield (tuple(tuple(comp[k] for comp, _ in choice) for k in range(parts)),
               math.prod(m for _, m in choice))


def _insert_into_slot(w1, c1, i, w2, c2):
    """(word, Poly) pairs for the term (c2, w2) inserted into slot i of (c1, w1),
    one per Leibniz split whose coefficient product has terms."""
    for parts, m in _leibniz_splits(w1[i], len(w2) + 1):
        coeff = c1 * c2.partial_word(parts[0])
        if coeff:
            word = (w1[:i] + tuple(tuple(map(sum, zip(a, b))) for a, b in zip(w2, parts[1:]))
                    + w1[i + 1:])
            yield word, coeff.scale(m)


def _circ_bar_parts(phi, psi, sign, parts):
    """Append each term of sign * (phi circbar psi) to parts[word]: the sum over
    slots i of (-1)^{i q} times psi inserted into slot i."""
    for w1, c1 in phi.items():
        for w2, c2 in psi.items():
            for i in range(len(w1)):
                s = -sign if i * (len(w2) - 1) % 2 else sign
                for word, coeff in _insert_into_slot(w1, c1, i, w2, c2):
                    parts.setdefault(word, []).append(coeff.scale(s))


def _gather(parts):
    """{word: Poly}: all of a word's parts added with no threshold, then cut at
    the least trunc among them; a word with no term left is dropped."""
    out = {}
    for word, polys in parts.items():
        total = Poly.zero(polys[0].n, polys[0].alg)
        for c in polys:
            total = total + Poly(c.n, c.terms, alg=c.alg)
        truncs = [c.trunc for c in polys if c.trunc is not None]
        if truncs:
            total = total.truncate(min(truncs))
        if total:
            out[word] = total
    return out


def reference_circ_bar(phi, psi):
    """phi circbar psi on {word: Poly} term dicts."""
    parts = {}
    _circ_bar_parts(phi, psi, 1, parts)
    return _gather(parts)


def reference_gerstenhaber(phi, psi):
    """[phi, psi] on term dicts: per degree pair (p, q), phi_p circbar psi_q
    minus (-1)^{pq} psi_q circbar phi_p, all gathered at the end."""
    def component(terms, p):
        return {w: c for w, c in terms.items() if len(w) - 1 == p}

    parts = {}
    for p in sorted({len(w) - 1 for w in phi}):
        for q in sorted({len(w) - 1 for w in psi}):
            a, b = component(phi, p), component(psi, q)
            _circ_bar_parts(a, b, 1, parts)
            _circ_bar_parts(b, a, 1 if p * q % 2 else -1, parts)
    return _gather(parts)


def _exponents(n, cap):
    """Every exponent tuple in n variables of total degree <= cap, lowest first."""
    return sorted((e for e in itertools.product(range(cap + 1), repeat=n) if sum(e) <= cap),
                  key=lambda e: (sum(e), e))


def reference_hkr_report(spec):
    """hkr_report(spec), computed on the full (e, w) slice bases."""
    n = spec.n
    monos = _exponents(n, spec.max_poly_degree)
    mis = _exponents(n, spec.max_operator_order)
    d_rows = {}

    def d(p):
        if p not in d_rows:
            words = itertools.product(mis, repeat=p + 1) if p >= -1 else []
            d_rows[p] = [op_coords(hochschild_d(PolyDiffOp(n, {w: Poly.monomial(e)})), spec,
                                   p + 1, where=f"(d of degree {p})")
                         for w in words for e in monos]
        return d_rows[p]

    rows = []
    for p in range(spec.p_min, spec.p_max + 1):
        t_basis = [(e, w) for w in itertools.combinations(range(1, n + 1), p + 1)
                   for e in monos]
        reliable = p + 1 <= spec.p_max and (p == -1 or p - 1 >= spec.p_min)
        entry = {"p": p, "dim_T_slice": len(t_basis), "window_reliable": reliable}
        if not reliable:
            entry.update({"rank_H": None, "match": None, "edge_degree": True})
            rows.append(entry)
            continue
        cocycles, boundaries = d(p), d(p - 1)
        ker = len(cocycles) - rank(cocycles)
        im = rank(boundaries)
        images = [u1(PolyVec(n, {w: Poly.monomial(e)})) for e, w in t_basis]
        u_rows = [op_coords(op, spec, p, where=f"(u1 at degree {p})") for op in images]
        in_h = rank(u_rows + boundaries) - im
        entry.update({
            "rank_ker": ker, "rank_im": im, "rank_H": ker - im,
            "match": ker - im == len(t_basis),
            "u1_injective": rank(u_rows) == len(u_rows),
            "u1_chain_map": all(not op_coords(hochschild_d(op), spec, p + 1) for op in images),
            "u1_rank_in_H": in_h,
            "u1_spans_H": in_h == ker - im,
        })
        rows.append(entry)
    checked = [r for r in rows if r["window_reliable"]]
    return {"spec": {"n": n, "max_poly_degree": spec.max_poly_degree,
                     "max_operator_order": spec.max_operator_order,
                     "window": [spec.p_min, spec.p_max]},
            "rows": rows,
            "ok": bool(checked) and all(r["match"] and r["u1_injective"] and r["u1_spans_H"]
                                        and r["u1_chain_map"] for r in checked)}
