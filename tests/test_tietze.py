import random
from collections import Counter
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
from sgcalc import words
from sgcalc.tietze import (
    CyclicReduce,
    DerivationTrace,
    Eliminate,
    RemoveDuplicate,
    RemoveTrivial,
    Shorten,
    replay,
    tietze_simplify,
)
from sgcalc.words import Alphabet, Word, commutator


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


def _random_trace_lines() -> list[str]:
    # the inputs of test_random_traces_replay_to_their_result, in its order
    rng = random.Random(1984)
    lines = []
    for _ in range(120):
        p = _random_presentation(rng)
        lines += [repr(tietze_simplify(p, budget)[1]) for budget in (3, 50, 1000)]
    return lines


def test_random_traces_match_golden():
    """Trace determinism beyond X: every random trace, byte for byte."""
    golden = Path(__file__).parent / "golden" / "random_traces.txt"
    assert "\n".join(_random_trace_lines()) + "\n" == golden.read_text()


def _replay_steps(p: Presentation, *steps) -> Presentation:
    return replay(p, DerivationTrace(steps, complete=True))


def test_replay_refuses_a_relator_as_its_own_duplicate():
    # accepted, < x | x > would become < x | >: H1 from 0 to Z
    ab = Alphabet(("x",))
    with pytest.raises(PresentationError):
        _replay_steps(Presentation(ab, (ab.gen("x"),)), RemoveDuplicate(0, 0))


def test_replay_refuses_a_relator_shortened_by_itself():
    # accepted, < x, y | x y, y > would become < x, y | y >: H1 from 0 to Z
    ab = Alphabet(("x", "y"))
    x, y = ab.gen("x"), ab.gen("y")
    with pytest.raises(PresentationError):
        _replay_steps(Presentation(ab, (x * y, y)), Shorten(0, 0, False, 0, 0, 2), RemoveTrivial(0))


_AB = Alphabet(("x", "y"))
_X, _Y = _AB.gen("x"), _AB.gen("y")
# < x, y | x^2, y x y^-1, x^2, y x^-1, 1 >: each step below is valid on it
# with its indices read as Python list indices, a negative one wrapping round
_BAD_INDEX = Presentation(_AB, (_X ** 2, _Y * _X * ~_Y, _X ** 2, _Y * ~_X, _AB.identity()))


@pytest.mark.parametrize(
    "step",
    [
        RemoveTrivial(-1),
        RemoveTrivial(5),
        RemoveDuplicate(-3, 0),
        RemoveDuplicate(2, 5),
        CyclicReduce(-4, _Y),
        CyclicReduce(5, _Y),
        Eliminate("y", -2, _X),
        Eliminate("y", 5, _X),
        Shorten(-3, 0, False, 0, 0, 2),
        Shorten(2, -5, False, 0, 0, 2),
        Shorten(2, 5, False, 0, 0, 2),
        Shorten(2, 0, False, -1, 0, 2),
        Shorten(2, 0, False, 2, 0, 2),
        Shorten(2, 0, False, 0, -2, 1),
        Shorten(2, 0, False, 0, 0, 3),
        Shorten(2, 0, False, 0, 0, -1),
    ],
    ids=repr,
)
def test_replay_refuses_an_index_out_of_range(step):
    """A negative index would wrap round, a large one raise IndexError."""
    with pytest.raises(PresentationError):
        _replay_steps(_BAD_INDEX, step)


_PARTNER = {"relator_index": "kept_index", "kept_index": "relator_index", "target": "other", "other": "target"}


def _mutants(step, size: int, rng: random.Random):
    """Every one-field change of ``step``, applied to ``size`` relators."""
    for name in type(step)._fields:
        value = getattr(step, name)
        if name in _PARTNER:  # an index: +-1, pointed at itself, negative, out of range
            changed = {value + 1, value - 1, -1 - value, size}
            if hasattr(step, _PARTNER[name]):
                changed.add(getattr(step, _PARTNER[name]))
        elif isinstance(value, Word):  # prefix or definition: one letter changed
            codes = value.codes() or [0]
            at = rng.randrange(len(codes))
            codes[at] = rng.choice([c for c in range(2 * len(value.alphabet)) if c != codes[at]])
            changed = {Word(value.alphabet, codes)}
        elif isinstance(value, bool):
            changed = {not value}
        elif isinstance(value, int):  # rotation, position, overlap
            changed = {value + 1, value - 1}
        else:  # the eliminated generator's name
            continue
        for new in changed - {value}:
            yield step.replace(**{name: new})


def test_mutated_x_trace_never_changes_h1():
    """One field of one step changed: replay refuses it, or H1 survives."""
    x = assemble_x().state.pi1
    h1 = homology_invariants(x)
    _, trace = tietze_simplify(x, TIETZE_BUDGET)
    rng = random.Random(52)
    size, refused, accepted = len(x.relators), 0, 0
    for k, step in enumerate(trace.steps):
        for mutant in _mutants(step, size, rng):
            steps = trace.steps[:k] + (mutant,) + trace.steps[k + 1 :]
            try:
                result = replay(x, trace.replace(steps=steps))
            except PresentationError:
                refused += 1
                continue
            accepted += 1
            assert homology_invariants(result) == h1, (k, mutant)
        size -= isinstance(step, (Eliminate, RemoveTrivial, RemoveDuplicate))
    assert len(trace.steps) == 52 and refused > 10 * len(trace.steps)


def test_x_simplification_work_counts(monkeypatch):
    """Machine-independent work of one simplification of X: ``Word``s built
    and least-rotation searches run."""
    x = assemble_x().state.pi1
    counts = Counter()
    word_init, least_rotation = words.Word.__init__, words._least_rotation

    def counted_init(self, *args):
        counts["Word"] += 1
        word_init(self, *args)

    def counted_least_rotation(s):
        counts["_least_rotation"] += 1
        return least_rotation(s)

    monkeypatch.setattr(words.Word, "__init__", counted_init)
    monkeypatch.setattr(words, "_least_rotation", counted_least_rotation)
    tietze_simplify(x, TIETZE_BUDGET)
    assert counts["Word"] <= 1000 and counts["_least_rotation"] <= 400, counts
