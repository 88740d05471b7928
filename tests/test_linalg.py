"""Pivot-indexed elimination against the row-order reference elimination.

Ranks must agree, and so must kernel bases: both are read off the reduced
echelon form, which is unique whatever order the pivots were found in.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from linfty.linalg import nullspace, rank, row_reduce
from reference_checks import is_exact, reference_nullspace, reference_rank

NCOLS = 7
values = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
sparse_rows = st.dictionaries(st.integers(0, NCOLS - 1), values, max_size=4)


@st.composite
def matrices(draw):
    """Sparse rows, mixed with empty rows, repeats and combinations of earlier
    rows (which reduce to zero)."""
    rows = []
    for kind in draw(st.lists(st.sampled_from("rrree+"), max_size=10)):
        if kind == "r" or not rows:
            rows.append(draw(sparse_rows))
        elif kind == "e":
            rows.append({})
        elif kind == "=":
            rows.append(dict(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f = draw(values)
            row = {c: a.get(c, 0) + f * b.get(c, 0) for c in set(a) | set(b)}
            rows.append({c: v for c, v in row.items() if v})
    return rows


@given(matrices())
@settings(max_examples=300)
def test_rank_and_kernel_match_the_reference(rows):
    before = [dict(r) for r in rows]
    assert rank(rows) == reference_rank(rows)
    assert nullspace(rows, NCOLS) == reference_nullspace(rows, NCOLS)
    assert rows == before  # the input rows are not touched


def test_pivot_order_differs_from_row_order():
    # the second row's pivot (column 0) sits left of the first's, so a later
    # pivot row keeps an earlier pivot column until back substitution
    rows = [{1: Fraction(1), 2: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    assert nullspace(rows, 3) == reference_nullspace(rows, 3) == [
        (Fraction(1), Fraction(-1), Fraction(1))]


def test_labels_need_only_be_comparable():
    rows = [{("b", 1): Fraction(2)}, {("a", 0): Fraction(1), ("b", 1): Fraction(1)},
            {("a", 0): Fraction(3), ("b", 1): Fraction(5)}]
    assert rank(rows) == 2


def _results(rows, ncols):
    return (*row_reduce(rows), nullspace(rows, ncols))


def _exact_results(rows, ncols):
    """The results on all-int rows: ints, or Fractions that are not integral."""
    pivots, cols, kernel = out = _results(rows, ncols)
    assert all(is_exact(v) for row in pivots for v in row.values())
    assert all(is_exact(v) for vec in kernel for v in vec)
    return out


def _as_fractions(rows):
    return [{c: Fraction(v) for c, v in r.items()} for r in rows]


int_rows = st.lists(st.dictionaries(st.integers(0, NCOLS - 1),
                                    st.integers(-4, 4).filter(bool), max_size=4), max_size=8)


@given(int_rows)
@settings(max_examples=200)
def test_integer_rows_stay_exact(rows):
    # no float, and the same pivots and kernel as the same rows held as Fractions
    assert _exact_results(rows, NCOLS) == _results(_as_fractions(rows), NCOLS)


def test_pivot_that_does_not_divide_its_row():
    rows = [{0: 2, 1: 1}, {0: 3, 1: 1}]
    pivots, cols, kernel = _exact_results(rows, 2)
    assert (pivots, cols, kernel) == _results(_as_fractions(rows), 2)
    assert pivots == [{0: 2, 1: 1}, {1: Fraction(-1, 2)}] and kernel == []
    assert _exact_results([{0: 2, 1: 1}], 2)[2] == [(Fraction(-1, 2), 1)]
