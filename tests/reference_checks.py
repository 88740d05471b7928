"""Reference walks for Q∘Q = 0 and Psi∘Q = Q'∘Psi over every canonical word,
and a reference Gaussian elimination.

The walks rebuild the operators from the Taylor tables with ``linfty.coalg``
and share no code with ``linfty.linf``, whose checks stop at an order derived
from the Taylor lengths.  Each walk returns the witness words in walk order, so
the derived check's witnesses must be a prefix of the reference's.

The elimination scans every remaining row for each pivot, in row order, and
back-substitutes in pivot order; it shares no code with ``linfty.linalg``.
"""

from fractions import Fraction

from linfty.coalg import CoalgElem, coder_from_taylor, morph_from_taylor


def square_zero_witnesses(taylor, W, max_order=None):
    """Every canonical word up to max_order (default W) with Q(Q(word)) != 0."""
    module = taylor.source
    Q = coder_from_taylor(taylor, W)
    bad = []
    for w in module.words_up_to(W if max_order is None else max_order):
        x = CoalgElem(module, {w: module.coeff.one()}, W)
        if not Q(Q(x)).is_zero():
            bad.append([module.gen_name(i) for i in w])
    return bad


def intertwine_witnesses(psi_taylor, source_taylor, target_taylor, W, max_order=None):
    """Every canonical word up to max_order (default W) with Psi(Q(word)) != Q'(Psi(word))."""
    module = psi_taylor.source
    psi = morph_from_taylor(psi_taylor, W)
    Q, Q_t = coder_from_taylor(source_taylor, W), coder_from_taylor(target_taylor, W)
    bad = []
    for w in module.words_up_to(W if max_order is None else max_order):
        x = CoalgElem(module, {w: module.coeff.one()}, W)
        if psi(Q(x)) != Q_t(psi(x)):
            bad.append([module.gen_name(i) for i in w])
    return bad


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
