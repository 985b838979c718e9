"""``complement_data`` against the word arithmetic it replaced.

The reference below writes the complement's words over the images with
products, inverses and commutators, one ``Word`` per operation, as the data
is defined.  ``complement_data`` relabels a template of the base words
instead; the two must agree on every invertible signed assignment of x, y,
a, b onto an alphabet of 4 to 6 generators, with both closure sets the
blocks use and with none.  Examples are derandomized, so every run draws
the same assignments.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcalc.construction import ComplementData, complement_data
from sgcalc.manifolds import LagrangianTorusMark
from sgcalc.words import Alphabet, WordError, commutator

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
CLOSURES = ((("x", "y"), ("a", "b")), (("x", "y"),), ())


def reference_complement_data(images, closures):
    """The complement data by word arithmetic over the images."""
    alphabet = images["x"].alphabet
    x, y, a, b = (images[n] for n in "xyab")
    bases = {n: images[n].as_letter()[0] for n in "xyab"}

    def closure(g, h):
        u, v = sorted((bases[g], bases[h]), key=alphabet.rank)
        return commutator(alphabet.gen(u), alphabet.gen(v))

    return ComplementData(
        alphabet=alphabet,
        t1=LagrangianTorusMark("T1", mu=commutator(~b, ~y), m=x, l=a),
        t2=LagrangianTorusMark("T2", mu=commutator(~x, b), m=y, l=b * a * ~b),
        universal_relators=(
            commutator(x, a),
            commutator(y, a),
            commutator(y, b * a * ~b),
            commutator(commutator(x, y), b),
            commutator(x, commutator(a, b)),
            commutator(y, commutator(a, b)),
        ),
        closure_relators=tuple(closure(g, h) for g, h in closures),
    )


@st.composite
def assignments(draw):
    """Images of x, y, a, b: distinct signed generators of a 4- to 6-letter alphabet."""
    alphabet = Alphabet(tuple(f"g{i}" for i in range(draw(st.integers(4, 6)))))
    bases = draw(st.permutations(alphabet.names))[:4]
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=4, max_size=4))
    return {n: alphabet.gen(g, e) for n, g, e in zip("xyab", bases, signs)}


@PROPERTY
@given(assignments(), st.sampled_from(CLOSURES))
def test_the_relabelled_template_is_the_word_arithmetic(images, closures):
    got = complement_data(images, closures)
    assert got == reference_complement_data(images, closures)
    for w in (got.t1.mu, got.t1.l, got.t2.mu, got.t2.l, *got.universal_relators, *got.closure_relators):
        assert w.codes() == Alphabet(w.alphabet.names).word(w.letters()).codes()  # built trusted: reduced


@PROPERTY
@given(assignments(), st.sampled_from("xyab"), st.sampled_from("xyab"))
def test_an_assignment_that_is_not_invertible_is_refused(images, name, other):
    if name == other:
        images[name] = images[name] ** 2
        message = "not a single signed generator"
    else:
        images[name] = ~images[other]
        message = "not invertible"
    with pytest.raises(WordError, match=message):
        complement_data(images)
