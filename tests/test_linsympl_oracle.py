"""The fraction-free elimination kernel against the frozen Fraction oracle."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import reference_linsympl as ref
from microsympl import linsympl

SMALL = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
NEGATIVE_DEN = st.builds(F, st.integers(-9, 9), st.integers(-9, -1))
# numerators and denominators beyond 64 bits
HUGE = st.builds(F, st.integers(-2**90, 2**90), st.integers(2**64, 2**70))
ENTRY = st.one_of(st.just(F(0)), SMALL, NEGATIVE_DEN, HUGE)
SHAPES = {"any": ((0, 7), (0, 7)), "wide": ((1, 3), (4, 8)),
          "tall": ((4, 8), (1, 3)), "square": ((1, 6), None)}


@st.composite
def matrices(draw, shape="any"):
    """Matrices in which some rows are combinations of earlier rows."""
    row_range, col_range = SHAPES[shape]
    nrows = draw(st.integers(*row_range))
    ncols = nrows if col_range is None else draw(st.integers(*col_range))
    rows = [tuple(draw(st.lists(ENTRY, min_size=ncols, max_size=ncols)))
            for _ in range(nrows)]
    for i in range(1, nrows):
        if draw(st.integers(0, 3)) == 0:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            c = draw(SMALL)
            rows[i] = tuple(c * x + y for x, y in zip(rows[j], rows[k]))
    return tuple(rows)


def all_fractions(rows):
    return all(type(v) is F for row in rows for v in row)


def make_singular(rows):
    """Replace the last row of a nonempty square matrix by a combination of the others."""
    others = rows[:-1]
    last = tuple(sum((r[j] * (i + 2) for i, r in enumerate(others)), F(0))
                 for j in range(len(rows)))
    return others + (last,)


EDGE_CASES = [(), ((),), ((), ()), ((F(0), F(0)),) * 3, ((F(0),), (F(5, 3),))]


@pytest.mark.parametrize("rows", EDGE_CASES)
def test_edge_cases_match_oracle(rows):
    assert linsympl.rref(rows) == ref.rref(rows)
    assert linsympl.rank(rows) == ref.rank(rows)
    assert linsympl.nullspace(rows, ncols=2) == ref.nullspace(rows, ncols=2)
    assert linsympl.reduce_span(rows) == ref.reduce_span(rows)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@given(data=st.data())
def test_rref_rank_nullspace_reduce_span_match_oracle(shape, data):
    rows = data.draw(matrices(shape))
    red, pivots = linsympl.rref(rows)
    assert (red, pivots) == ref.rref(rows)
    assert all_fractions(red)
    assert linsympl.rank(rows) == len(pivots)
    null = linsympl.nullspace(rows, ncols=3)
    assert null == ref.nullspace(rows, ncols=3)
    assert all_fractions(null)
    assert linsympl.reduce_span(rows) == ref.reduce_span(rows)


@given(rows=matrices("square"), singular=st.booleans())
def test_mat_inverse_matches_oracle(rows, singular):
    if singular:
        rows = make_singular(rows)
    inverse = linsympl.mat_inverse(rows)
    assert inverse == ref.mat_inverse(rows)
    if singular:
        assert inverse is None
    else:
        assert inverse is None or all_fractions(inverse)


@given(rows=matrices(), data=st.data())
def test_solve_matches_oracle(rows, data):
    ncols = len(rows[0]) if rows else 0
    x = data.draw(st.lists(ENTRY, min_size=ncols, max_size=ncols))
    rhs = linsympl.mat_vec(rows, x)
    solution = linsympl.solve(rows, rhs)
    assert solution == ref.solve(rows, rhs)
    assert solution is not None and linsympl.mat_vec(rows, solution) == rhs
    assert all_fractions((solution,))


@given(rows=matrices(), shift=SMALL.filter(bool))
def test_solve_inconsistent_matches_oracle(rows, shift):
    # append a row that repeats the first with a right-hand side that does not
    ncols = len(rows[0]) if rows else 0
    rhs = tuple(F(i) for i in range(len(rows)))
    first = rows[0] if rows else (F(0),) * ncols
    rows += (first,)
    rhs += ((rhs[0] if rhs else F(0)) + shift,)
    assert linsympl.solve(rows, rhs) is None
    assert ref.solve(rows, rhs) is None


@pytest.mark.parametrize("entry", [0.5, 1.0, float("nan")])
def test_float_entries_are_rejected(entry):
    rows = ((F(1), entry), (F(2), F(3)))
    with pytest.raises(TypeError):
        linsympl.rank(rows)
    with pytest.raises(TypeError):
        linsympl.rref(rows)
