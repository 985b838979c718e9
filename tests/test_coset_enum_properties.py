"""Properties of closed coset tables on random small presentations.

Each property goes through the public ``todd_coxeter``; the permutation
check records the ``_Table`` that run builds and reads it afterwards.
Examples are derandomized, so every run draws the same presentations.
"""

import math
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgcalc import coset_enum
from sgcalc.coset_enum import todd_coxeter
from sgcalc.presentations import Presentation, homology_invariants
from sgcalc.words import Alphabet, Word, substitute

MAX_COSETS = 300
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def presentations(draw):
    ab = Alphabet(("x", "y", "z")[: draw(st.integers(2, 3))])
    letter = st.tuples(st.sampled_from(ab.names), st.sampled_from((-1, 1)))
    word = st.lists(letter, min_size=1, max_size=7).map(ab.word)
    return Presentation(ab, tuple(draw(st.lists(word, min_size=len(ab), max_size=len(ab) + 1))))


@PROPERTY
@given(presentations(), st.data())
def test_index_ignores_relator_order_rotation_and_inversion(p, data):
    result = todd_coxeter(p, (), MAX_COSETS)
    assume(result.found)
    order = data.draw(st.permutations(range(p.nrels)))
    relators = []
    for i in order:
        codes = p.relators[i].codes()
        turn = data.draw(st.integers(0, max(len(codes) - 1, 0)))
        word = Word(p.alphabet, codes[turn:] + codes[:turn])
        relators.append(~word if data.draw(st.booleans()) else word)
    again = todd_coxeter(Presentation(p.alphabet, tuple(relators)), (), 10 * MAX_COSETS)
    assert again.index == result.index


@PROPERTY
@given(presentations(), st.data())
def test_eliminating_an_identified_generator_keeps_the_index(p, data):
    """With a relator g h^-1 (in any rotation or inversion), h's columns are g's; substituting
    h := g and dropping h presents the same group, enumerated without shared columns."""
    g, h = data.draw(st.permutations(p.alphabet.names))[:2]
    identify = (p.alphabet.gen(g) * p.alphabet.gen(h, -1), p.alphabet.gen(h) * p.alphabet.gen(g, -1))
    joined = Presentation(p.alphabet, p.relators + (data.draw(st.sampled_from(identify + tuple(~w for w in identify))),))
    result = todd_coxeter(joined, (), MAX_COSETS)
    assume(result.found)
    rest = Alphabet(tuple(name for name in p.alphabet.names if name != h))
    images = {name: rest.gen(g if name == h else name) for name in p.alphabet.names}
    eliminated = Presentation(rest, tuple(substitute(r, images) for r in p.relators))
    assert todd_coxeter(eliminated, (), 10 * MAX_COSETS).index == result.index


@PROPERTY
@given(presentations())
def test_finite_h1_order_divides_the_group_order(p):
    rank, torsion = homology_invariants(p)
    assume(rank == 0)
    result = todd_coxeter(p, (), MAX_COSETS)
    assume(result.found)
    assert result.index % math.prod(torsion) == 0


@PROPERTY
@given(presentations(), st.data())
def test_closed_table_is_a_permutation_action(p, data):
    tables = []

    class RecordingTable(coset_enum._Table):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    subgroup_gens = tuple(data.draw(st.lists(st.sampled_from(p.relators + (p.alphabet.gen("x"),)), max_size=1)))
    with mock.patch.object(coset_enum, "_Table", RecordingTable):
        result = todd_coxeter(p, subgroup_gens, MAX_COSETS)
    assume(result.found)
    (table,) = tables
    live = table.live_cosets()
    assert len(live) == result.index
    for x, col in enumerate(table.cols):
        images = [col[c] for c in live]
        # complete rows that point only at live cosets: no dead coset is left behind
        assert sorted(images) == live
        assert all(table.cols[x ^ 1][d] == c for c, d in zip(live, images))
