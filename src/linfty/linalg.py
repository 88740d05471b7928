"""Sparse exact linear algebra over the rationals.

Rows are sparse {column: Fraction} dicts.  Everything is fraction-exact;
determinism of ranks and kernels does not depend on row order beyond the
documented pivoting (first nonzero column, rows in given order).
"""

from __future__ import annotations

from fractions import Fraction


def row_reduce(rows):
    """Forward elimination on copies.  Returns (pivot row list, pivot cols)."""
    work = [dict(r) for r in rows if r]
    pivots = []
    pivot_cols = []
    while work:
        row = work.pop(0)
        if not row:
            continue
        col = min(row)
        inv = Fraction(1) / row[col]
        row = {c: v * inv for c, v in row.items()}
        for other in work:
            f = other.get(col)
            if f:
                for c, v in row.items():
                    s = other.get(c, Fraction(0)) - f * v
                    if s:
                        other[c] = s
                    else:
                        other.pop(c, None)
        pivots.append(row)
        pivot_cols.append(col)
        work = [r for r in work if r]
    return pivots, pivot_cols


def rank(rows) -> int:
    return len(row_reduce(rows)[0])


def nullspace(rows, ncols):
    """Kernel basis of the matrix with the given rows, as dense tuples.

    Columns are 0..ncols-1.  One basis vector per free column.
    """
    pivots, pivot_cols = row_reduce(rows)
    # back substitution to reduced echelon form
    for i in range(len(pivots) - 1, -1, -1):
        row = pivots[i]
        col = pivot_cols[i]
        for j in range(i):
            f = pivots[j].get(col)
            if f:
                for c, v in row.items():
                    s = pivots[j].get(c, Fraction(0)) - f * v
                    if s:
                        pivots[j][c] = s
                    else:
                        pivots[j].pop(c, None)
    pivot_set = set(pivot_cols)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(pivots, pivot_cols):
            v = row.get(fc)
            if v:
                vec[pc] = -v
        basis.append(tuple(vec))
    return basis
