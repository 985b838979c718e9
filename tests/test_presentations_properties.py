"""Properties of the Smith normal form on random small integer matrices.

A zero row adds no invariant factor, wherever it sits; the factors agree
with the diagonal of sympy's decomposition when sympy is installed.
Examples are derandomized, so every run draws the same matrices.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcalc.presentations import smith_normal_form

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def matrices(draw, min_rows=0):
    cols = draw(st.integers(1, 5))
    return draw(st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols), min_size=min_rows, max_size=5))


@st.composite
def with_zero_rows(draw, min_rows=0):
    """A matrix, and the same matrix with zero rows inserted anywhere."""
    m = draw(matrices(min_rows))
    padded = [list(row) for row in m]
    width = len(m[0]) if m else draw(st.integers(1, 5))
    for _ in range(draw(st.integers(1, 3))):
        padded.insert(draw(st.integers(0, len(padded))), [0] * width)
    return m, padded


@PROPERTY
@given(with_zero_rows())
def test_zero_rows_leave_the_invariant_factors_unchanged(pair):
    m, padded = pair
    assert smith_normal_form(padded) == smith_normal_form(m)


@PROPERTY
@given(with_zero_rows(min_rows=1))
def test_invariant_factors_are_the_diagonal_of_sympys_decomposition(pair):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_decomp

    m, padded = pair
    diagonal, _, _ = smith_normal_decomp(sympy.Matrix(padded), domain=sympy.ZZ)
    expected = [abs(int(diagonal[i, i])) for i in range(min(diagonal.shape)) if diagonal[i, i]]
    assert smith_normal_form(padded) == expected


@PROPERTY
@given(matrices(min_rows=1), st.data())
def test_a_ragged_zero_row_is_still_a_ragged_matrix(m, data):
    cols = len(m[0])
    width = data.draw(st.sampled_from([w for w in (cols - 1, cols + 1) if w >= 1]))
    m.insert(data.draw(st.integers(0, len(m))), [0] * width)
    with pytest.raises(ValueError, match="ragged matrix"):
        smith_normal_form(m)
