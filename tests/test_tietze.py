import random
from pathlib import Path

import pytest

from conftest import random_word
from sgcalc.construction import TIETZE_BUDGET, assemble_x
from sgcalc.coset_enum import todd_coxeter
from sgcalc.presentations import (
    Exactness,
    Presentation,
    PresentationError,
    homology_invariants,
)
from sgcalc.tietze import Eliminate, RemoveDuplicate, Shorten, replay, tietze_simplify
from sgcalc.words import Alphabet, commutator


def test_single_generator_killed():
    ab = Alphabet(("x",))
    p = Presentation(ab, (ab.gen("x"),))
    final, trace = tietze_simplify(p)
    assert final.is_empty()
    assert trace.complete
    assert trace.eliminated_generators() == ["x"]


def test_commuting_pair_collapses_to_infinite_cyclic():
    ab = Alphabet(("x", "y"))
    x, y = ab.gen("x"), ab.gen("y")
    p = Presentation(ab, (commutator(x, y), x * ~y))
    final, trace = tietze_simplify(p)
    assert final.alphabet.names == ("x",)
    assert final.relators == ()
    assert homology_invariants(final) == (1, [])


def test_budget_exhaustion_flags_incomplete():
    ab = Alphabet(("x", "y"))
    x, y = ab.gen("x"), ab.gen("y")
    p = Presentation(ab, (commutator(x, y), x * ~y))
    final, trace = tietze_simplify(p, budget=1)
    assert not trace.complete
    assert len(trace.steps) == 1
    with pytest.raises(PresentationError):
        tietze_simplify(p, budget=0)


def test_trace_replays_to_final():
    ab = Alphabet(("x", "y", "z"))
    x, y, z = (ab.gen(n) for n in ab.names)
    p = Presentation(ab, (x * y * ~z, z ** 4, commutator(x, z), y * ~z))
    final, trace = tietze_simplify(p)
    assert replay(p, trace) == final


def test_isomorphism_witnesses_on_corpus():
    """Homology and, for finite groups, coset index survive simplification."""
    cases = []
    ab = Alphabet(("x", "y"))
    x, y = ab.gen("x"), ab.gen("y")
    cases.append(Presentation(ab, (x ** 2, y ** 3, commutator(x, y))))  # Z6
    cases.append(Presentation(ab, (x ** 2, y ** 2, (x * y) ** 2)))  # Klein four
    cases.append(Presentation(ab, (x * y * ~x * y,)))  # Klein bottle group
    ab3 = Alphabet(("x", "y", "z"))
    cases.append(
        Presentation(ab3, (ab3.gen("z") * ~ab3.gen("x"), ab3.gen("x") ** 5, ab3.gen("y")))
    )
    for p in cases:
        final, trace = tietze_simplify(p)
        assert trace.complete
        assert homology_invariants(final) == homology_invariants(p)
        before = todd_coxeter(p, max_cosets=4000)
        if before.found:
            after = todd_coxeter(final, max_cosets=4000)
            assert after.index == before.index


def test_greedy_prefers_shortest_definition():
    ab = Alphabet(("x", "y", "z"))
    x, y, z = (ab.gen(n) for n in ab.names)
    p = Presentation(ab, (x * ~(y * z), y * ~z))
    _, trace = tietze_simplify(p)
    first = next(s for s in trace.steps if isinstance(s, Eliminate))
    # both y and z have one-letter definitions; the later-declared z goes
    assert first.gen == "z" and first.definition == y


def test_shortening_move_collapses_coprime_powers():
    # no relator has a single-occurrence generator, so elimination alone
    # cannot start; rewriting a^5 against a^3 begins the euclidean collapse
    ab = Alphabet(("a",))
    p = Presentation(ab, (ab.gen("a", 5), ab.gen("a", 3)))
    final, trace = tietze_simplify(p)
    assert trace.complete and final.is_empty()
    assert replay(p, trace) == final


def test_exactness_preserved():
    ab = Alphabet(("x",))
    p = Presentation(ab, (ab.gen("x"),), Exactness.SURJECTIVE_BOUND)
    final, _ = tietze_simplify(p)
    assert final.exactness is Exactness.SURJECTIVE_BOUND


def test_x_trace_matches_golden():
    """The paper's simplification, step by step: one repr per step, then the result."""
    final, trace = tietze_simplify(assemble_x().state.pi1, TIETZE_BUDGET)
    lines = [repr(step) for step in trace.steps] + [repr(final)]
    golden = Path(__file__).parent / "golden" / "x_trace.txt"
    assert "\n".join(lines) + "\n" == golden.read_text()


def _random_presentation(rng: random.Random) -> Presentation:
    ab = Alphabet(("a", "b", "c", "d")[: rng.randint(1, 4)])
    relators = [random_word(rng, ab, 8) for _ in range(rng.randint(1, 6))]
    for _ in range(rng.randint(0, 2)):  # exact and inverted duplicates
        copy = rng.choice(relators)
        relators.insert(rng.randint(0, len(relators)), ~copy if rng.random() < 0.5 else copy)
    return Presentation(ab, tuple(relators))


def test_random_traces_replay_to_their_result():
    rng = random.Random(1984)
    kinds = set()
    for _ in range(120):
        p = _random_presentation(rng)
        for budget in (3, 50, 1000):
            final, trace = tietze_simplify(p, budget)
            assert len(trace.steps) <= budget
            assert replay(p, trace) == final
            kinds.update(type(step) for step in trace.steps)
    assert {RemoveDuplicate, Shorten} <= kinds
