"""The Tietze step search against plain references on random presentations.

Duplicates are found by substring tests on doubled code strings, and a
shortening target is tested only against relators made since its last full
scan.  Both must pick exactly the step that a brute-force search over every
rotation of each relator and its inverse, and over every overlap, picks.
Examples are derandomized, so every run draws the same presentations.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import relator_class
from sgcalc import tietze
from sgcalc.presentations import Presentation
from sgcalc.tietze import RemoveDuplicate, Shorten
from sgcalc.words import Alphabet, Word, cyclic_core, inverse_codes

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
AB = Alphabet(("a", "b", "c"))


def _derived(state: tietze._State) -> list:
    return [r.derive(state.bases, state.inverses) for r in state.relators]


@st.composite
def planted_relators(draw) -> list[Word]:
    """Cyclically reduced, nontrivial relators, with rotations and inverted
    rotations of some of them planted among them."""
    bases = draw(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=8), min_size=1, max_size=5))
    relators = [core for core, _ in map(cyclic_core, (Word(AB, codes) for codes in bases)) if len(core)]
    if not relators:
        relators = [AB.gen("a")]
    for _ in range(draw(st.integers(0, 5))):
        codes = draw(st.sampled_from(relators)).codes()
        k = draw(st.integers(0, len(codes) - 1))
        codes = codes[k:] + codes[:k]
        relators.append(Word(AB, inverse_codes(codes) if draw(st.booleans()) else codes))
    return draw(st.permutations(relators))


def _reference_duplicate(relators: list[Word]) -> RemoveDuplicate | None:
    keys = [relator_class(w) for w in relators]
    return next((RemoveDuplicate(i, j) for i in range(len(keys)) for j in range(i) if keys[j] == keys[i]), None)


@PROPERTY
@given(planted_relators())
def test_the_rotation_predicate_is_brute_force_rotation_equality(relators):
    derived = _derived(tietze._State(Presentation(AB, relators)))
    for u, du in zip(relators, derived):
        for v, dv in zip(relators, derived):
            assert du.is_rotation_of(dv) == (relator_class(u) == relator_class(v)), (u, v)


@PROPERTY
@given(planted_relators())
def test_find_duplicate_picks_the_brute_force_reference_step(relators):
    derived = _derived(tietze._State(Presentation(AB, relators)))
    assert tietze._find_duplicate(derived) == _reference_duplicate(relators)


def _find(chunk: tuple[int, ...], t: tuple[int, ...]) -> int:
    return next((at for at in range(len(t) - len(chunk) + 1) if t[at : at + len(chunk)] == chunk), -1)


def _reference_shortening(relators: list[tuple[int, ...]]) -> Shorten | None:
    """The first target, other, side, rotation and longest overlap above half
    the other's length that occurs in the target, over every pair."""
    for ti, t in enumerate(relators):
        for oi, other in enumerate(relators):
            n = len(other)
            if oi == ti or not 2 <= n <= len(t):
                continue
            for inverted in (False, True):
                src = inverse_codes(other) if inverted else other
                for rotation in range(n):
                    rotated = src[rotation:] + src[:rotation]
                    for overlap in range(n, n // 2, -1):
                        at = _find(rotated[:overlap], t)
                        if at >= 0:
                            return Shorten(ti, oi, inverted, rotation, at, overlap)
    return None


presentations = st.lists(st.lists(st.integers(0, 5), max_size=12), min_size=1, max_size=6).map(
    lambda relators: Presentation(AB, tuple(Word(AB, codes) for codes in relators)))


def _shorten_while_the_reference_agrees(p: Presentation) -> None:
    """Apply ``_find_shortening``'s steps until none is left, each checked
    against the reference on the current relators."""
    state = tietze._State(p)
    while True:
        step = tietze._find_shortening(_derived(state))
        assert step == _reference_shortening([r.codes for r in state.relators])
        if step is None:
            return
        state.apply(step)


@PROPERTY
@given(presentations)
def test_find_shortening_picks_the_brute_force_step_through_repeated_shortening(p):
    _shorten_while_the_reference_agrees(p)


@st.composite
def long_overlaps(draw) -> Presentation:
    """A relator of 34 to 60 letters, whose heads are shorter than its
    shortest shortening chunks, and a target holding a chunk of one of its
    rotations, or of its inverse's, over half its length, perhaps with one
    letter past the head changed, so that the head is in the target but the
    chunk may not be."""
    other = Word(AB, draw(st.lists(st.integers(0, 5), min_size=34, max_size=60)))
    codes = other.codes()
    if draw(st.booleans()):
        codes = list(inverse_codes(codes))
    k = draw(st.integers(0, max(len(codes) - 1, 0)))
    chunk = (codes[k:] + codes[:k])[: draw(st.integers(len(codes) // 2 + 1, max(len(codes), 1)))]
    if draw(st.booleans()) and len(chunk) > tietze._HEAD_LETTERS:
        at = draw(st.integers(tietze._HEAD_LETTERS, len(chunk) - 1))
        chunk[at] = draw(st.integers(0, 5))
    around = st.lists(st.integers(0, 5), max_size=6)
    return Presentation(AB, (Word(AB, draw(around) + chunk + draw(around)), other))


@PROPERTY
@given(long_overlaps())
def test_find_shortening_picks_the_brute_force_step_past_the_heads(p):
    _shorten_while_the_reference_agrees(p)


@PROPERTY
@given(presentations)
def test_find_shortening_picks_the_brute_force_step_before_every_step_of_a_simplification(p):
    """Between two searches, eliminations keep the relators they do not touch,
    with their scan stamps, and every other move makes new relators."""
    state = tietze._State(p)
    while True:
        step = tietze._find_shortening(_derived(state))
        assert step == _reference_shortening([r.codes for r in state.relators])
        step = tietze._next_step(state)
        if step is None:
            break
        state.apply(step)
