"""Sparse exact linear algebra over the rationals.

Rows are sparse {column: q} dicts, q an int or a Fraction; columns may be
any mutually comparable labels.  Everything is exact: quotients go through
``scalars.frac``, so int rows give ints wherever a value is integral and no
float ever appears.  A pivot sits at the smallest column of its row, and an
incoming row is reduced only against the pivots at the columns it holds, so a
block-diagonal matrix costs about linear time.  Ranks are exact and do not depend on the row order; ``nullspace``
reads its basis off the reduced echelon form, which is unique.
"""

from __future__ import annotations

from .scalars import _acc_neg, frac


def _subtract(row, f, pivot):
    """row -= f * pivot, in place, dropping zeros."""
    for c, v in pivot.items():
        _acc_neg(row, c, frac(f * v))


def row_reduce(rows):
    """Forward elimination on copies.  Returns (pivot row list, pivot cols).

    A pivot sits at the smallest column of its row, unscaled.  Rows are taken
    in the given order; each is reduced at its smallest column while a pivot
    sits there, and becomes a new pivot once none does.
    """
    pivots = {}
    for r in rows:
        row = dict(r)
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            _subtract(row, frac(row[col], pivot[col]), pivot)
    return list(pivots.values()), list(pivots)


def rank(rows) -> int:
    return len(row_reduce(rows)[0])


def nullspace(rows, ncols):
    """Kernel basis of the matrix with the given rows, as dense tuples.

    Columns are 0..ncols-1.  One basis vector per free column.
    """
    pivots, pivot_cols = row_reduce(rows)
    by_col = {col: {c: frac(v, row[col]) for c, v in row.items()}
              for row, col in zip(pivots, pivot_cols)}
    # back substitution to reduced echelon form, largest pivot column first: a
    # pivot row holds no column left of its pivot, so once the pivots right of
    # it are cleared from it, it clears its own column from the rows above
    cols = sorted(by_col, reverse=True)
    for k, col in enumerate(cols):
        for other in cols[k + 1:]:
            f = by_col[other].get(col)
            if f:
                _subtract(by_col[other], f, by_col[col])
    free = [c for c in range(ncols) if c not in by_col]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for pc, row in by_col.items():
            v = row.get(fc)
            if v:
                vec[pc] = -v
        basis.append(tuple(vec))
    return basis
