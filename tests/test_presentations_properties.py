"""Properties of the Smith normal form on random integer matrices.

A zero row adds no invariant factor, wherever it sits; the factors agree
with the diagonal of sympy's decomposition when sympy is installed, and
with the minor-gcd oracle on small matrices.  Three kinds of matrix reach
the Smith form's one elimination: matrices with a unit entry (a unit
pivot first), matrices with none (a least-magnitude pivot first), and wide
sparse matrices like an abelianization.  Examples are derandomized, so
every run draws the same matrices.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcalc.presentations import Presentation, abelianize, homology_invariants, smith_normal_form
from sgcalc.words import Alphabet
from test_presentations import minor_gcd_factors

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


def sympy_factors(m: list[list[int]]) -> list[int]:
    """The nonzero diagonal of sympy's Smith decomposition of ``m``."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_decomp

    diagonal, _, _ = smith_normal_decomp(sympy.Matrix(m), domain=sympy.ZZ)
    return [abs(int(diagonal[i, i])) for i in range(min(diagonal.shape)) if diagonal[i, i]]


@PROPERTY
@given(with_zero_rows(min_rows=1))
def test_invariant_factors_are_the_diagonal_of_sympys_decomposition(pair):
    _, padded = pair
    assert smith_normal_form(padded) == sympy_factors(padded)


@st.composite
def with_units(draw):
    """A small matrix with a +-1 planted in it, so unit pivots run first."""
    m = draw(matrices(min_rows=1))
    i, j = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m[0]) - 1))
    m[i][j] = draw(st.sampled_from((1, -1)))
    return m


@st.composite
def without_units(draw):
    """A small matrix with no +-1 entry, so a least-magnitude pivot comes first."""
    cols = draw(st.integers(1, 5))
    entries = st.sampled_from([v for v in range(-9, 10) if abs(v) != 1])
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=1, max_size=5))


@st.composite
def sparse(draw):
    """A 40-60-column matrix with at most 4 nonzero entries per row, as an
    abelianization is.  At most 24 rows keep sympy's decomposition fast."""
    cols = draw(st.integers(40, 60))
    m = []
    for _ in range(draw(st.integers(1, 24))):
        row = [0] * cols
        for j in draw(st.lists(st.integers(0, cols - 1), max_size=4, unique=True)):
            row[j] = draw(st.integers(-9, 9))
        m.append(row)
    return m


@PROPERTY
@given(st.one_of(with_units(), without_units()))
def test_unit_and_least_pivots_agree_with_sympy_and_the_minor_gcd_oracle(m):
    factors = smith_normal_form(m)
    assert factors == sympy_factors(m)
    if len(m) <= 4:
        assert factors == minor_gcd_factors(m)


@settings(PROPERTY, max_examples=30)
@given(sparse())
def test_sparse_wide_matrices_agree_with_sympy(m):
    assert smith_normal_form(m) == sympy_factors(m)


@st.composite
def presentations(draw):
    """A presentation on 1-5 generators with up to 6 relators of up to 8 syllables."""
    alphabet = Alphabet([f"g{i}" for i in range(draw(st.integers(1, 5)))])
    syllables = st.tuples(st.sampled_from(alphabet.names), st.sampled_from((-3, -2, -1, 1, 2, 3)))
    relators = draw(st.lists(st.lists(syllables, max_size=8), max_size=6))
    return Presentation(alphabet, [alphabet.word(r) for r in relators])


@PROPERTY
@given(presentations())
def test_homology_invariants_read_the_smith_form_of_the_abelianization(p):
    factors = smith_normal_form(abelianize(p))
    assert homology_invariants(p) == (p.ngens - len(factors), [d for d in factors if d > 1])


@PROPERTY
@given(matrices(min_rows=1), st.data())
def test_a_ragged_zero_row_is_still_a_ragged_matrix(m, data):
    cols = len(m[0])
    width = data.draw(st.sampled_from([w for w in (cols - 1, cols + 1) if w >= 0]))
    m.insert(data.draw(st.integers(0, len(m))), [0] * width)
    with pytest.raises(ValueError, match="ragged matrix"):
        smith_normal_form(m)
