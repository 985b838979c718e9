import hashlib
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from conftest import random_word
from sgcalc import construction
from sgcalc.construction import TIETZE_BUDGET, assemble_x
from sgcalc.coset_enum import todd_coxeter
from sgcalc.presentations import (
    Exactness,
    Presentation,
    PresentationError,
    homology_invariants,
)
from sgcalc import tietze, words
from sgcalc.script import MAX_WORD_LETTERS
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
from sgcalc.words import Alphabet, Word, WordError, commutator


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
            for step in trace.steps:  # step words are over the input's generators
                assert all(v.alphabet == p.alphabet for v in step._values() if isinstance(v, Word)), step
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


def _sign_member(signs: tuple[int, ...]) -> Presentation:
    """X's group with the six surgery coefficients ``signs`` (V's two, P1's, P2's)."""
    k1, k2, k3, k4, k5, k6 = signs
    v = construction._surgery_block(
        "V", ("s1", "t1", "s2", "t2"), images=(("s1", 1), ("t1", 1), ("s2", 1), ("t2", 1)),
        closed=(("x", "y"), ("a", "b")), plan=(("T1", 1, 0, k1), ("T2", 0, 1, k2)),
        marks=(("H", "s1", "t1"), ("K", "s2", "t2")), closures_first=True,
    )
    p1 = construction._closed_first_block(1, (("T1", 1, 0, k3), ("T2", 0, 1, k4)))
    p2 = construction._closed_first_block(2, (("T1", 0, 1, k5), ("T2", 1, 0, k6)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construction, "assemble_v", lambda: v)
        mp.setattr(construction, "assemble_p1", lambda: p1)
        mp.setattr(construction, "assemble_p2", lambda: p2)
        return construction.assemble_x().state.pi1


def _family_inputs() -> list[tuple[str, Presentation]]:
    inputs = [("signs " + " ".join(f"{k:+d}" for k in signs), _sign_member(signs))
              for signs in itertools.product((1, -1), repeat=6)]
    xy = Alphabet(("x", "y"))
    x, y = xy.gen("x"), xy.gen("y")
    for n in (2, 3):  # Akbulut-Kirby: x^n = y^(n+1), x y x = y x y
        inputs.append((f"AK({n})", Presentation(xy, (x ** n * y ** -(n + 1), x * y * x * ~y * ~x * ~y))))
    abc = Alphabet(("a", "b", "c"))
    a, b, c = (abc.gen(g) for g in "abc")
    inputs.append(("Higman", Presentation(abc, (~b * a * b * a ** -2, ~c * b * c * b ** -2, ~a * c * a * c ** -2))))
    return inputs


def _family_trace_lines() -> list[str]:
    lines = []
    for label, p in _family_inputs():
        final, trace = tietze_simplify(p, TIETZE_BUDGET)
        digest = hashlib.sha256(repr(trace).encode()).hexdigest()[:16]
        relators = ", ".join(map(str, final.relators))
        lines.append(f"{label}: {len(trace.steps)} steps, <{' '.join(final.alphabet.names)} | {relators}>, {digest}")
    return lines


def test_sign_family_traces_match_golden():
    """Traces past X: the 64 surgery-sign members, 20 of which stall after long
    shortening runs, and three trivial groups Tietze moves do not reach."""
    golden = Path(__file__).parent / "golden" / "sign_family_traces.txt"
    assert "\n".join(_family_trace_lines()) + "\n" == golden.read_text()


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


def _counting(monkeypatch) -> Counter:
    """Count ``Word``s built, ``derive`` calls, relator derivations (a
    relator's facts worked out) and shortening pair tests."""
    counts = Counter()
    word_init, derive = words.Word.__init__, tietze._Relator.derive
    overlap = tietze._Relator.overlap

    def counted_init(self, *args):
        counts["Word"] += 1
        word_init(self, *args)

    def counted_derive(self, *args):
        counts["derive"] += 1
        counts["_Relator"] += self.text is None
        return derive(self, *args)

    def counted_overlap(self, t):
        counts["pair tests"] += 1
        return overlap(self, t)

    monkeypatch.setattr(words.Word, "__init__", counted_init)
    monkeypatch.setattr(tietze._Relator, "derive", counted_derive)
    monkeypatch.setattr(tietze._Relator, "overlap", counted_overlap)
    return counts


def test_x_simplification_work_counts(monkeypatch):
    """Machine-independent work of one simplification of X: ``Word``s built,
    ``derive`` calls, relators derived and shortening pairs tested.  A
    relator an ``Eliminate`` does not touch keeps its facts, ``derive`` runs
    only on a relator that has none yet, and a shortening target is tested
    against each relator once."""
    x = assemble_x().state.pi1
    counts = _counting(monkeypatch)
    tietze_simplify(x, TIETZE_BUDGET)
    assert counts["Word"] <= 74 and counts["_Relator"] <= 91 and counts["derive"] <= 91, counts
    assert counts["pair tests"] <= 185, counts


def test_replaying_x_works_out_facts_only_for_rechecked_duplicates(monkeypatch):
    """``replay`` reads a relator's facts only to re-check a ``RemoveDuplicate``,
    so it works them out for 11 of X's relators, not for every relator a
    step changes."""
    x = assemble_x().state.pi1
    final, trace = tietze_simplify(x, TIETZE_BUDGET)
    counts = _counting(monkeypatch)
    assert replay(x, trace) == final
    assert counts["_Relator"] == 11, counts


def test_the_result_refuses_an_eliminated_generators_letter():
    """Words stay over the input's alphabet; only the result is renumbered,
    and a relator that still holds an eliminated generator cannot be."""
    ab = Alphabet(("x", "y"))
    x, y = ab.gen("x"), ab.gen("y")
    state = tietze._State(Presentation(ab, (y * ~x, commutator(x, y))))
    state.apply(Eliminate("y", 0, x))
    assert state.word((0, 0)) == state.initial.gen("x", 2)
    for code in (2, 3):
        state.relators.append(tietze._Relator((0, code), next(state.stamps)))
        with pytest.raises(WordError, match="eliminated"):
            state.presentation()
        state.relators.pop()
    assert state.presentation().alphabet == Alphabet(("x",))


def _rotated_pair(n: int) -> tuple[Word, Presentation]:
    """A cyclically reduced ``w`` of ``n`` letters and < a, b | w, (w rotated)^-1 >."""
    rng = random.Random(n)
    codes = [rng.randrange(4)]
    while len(codes) < n:
        c = rng.randrange(4)
        if c != codes[-1] ^ 1 and (len(codes) < n - 1 or c != codes[0] ^ 1):
            codes.append(c)
    ab = Alphabet(("a", "b"))
    w = Word(ab, codes)
    return w, Presentation(ab, (w, ~Word(ab, codes[n // 3 :] + codes[: n // 3])))


def test_a_long_duplicate_is_found_and_rechecked_without_rotating_words(monkeypatch):
    w, p = _rotated_pair(2000)
    counts = _counting(monkeypatch)
    final, trace = tietze_simplify(p)
    assert trace.steps == (RemoveDuplicate(1, 0),) and final.relators == (w,)
    assert counts["Word"] <= 3, counts


def test_a_duplicate_of_the_longest_word_a_script_reads_is_removed():
    w, p = _rotated_pair(MAX_WORD_LETTERS)
    final, trace = tietze_simplify(p)
    assert trace.steps == (RemoveDuplicate(1, 0),) and final.relators == (w,)
    assert replay(p, trace) == final


def test_replay_refuses_a_duplicate_that_is_no_rotation():
    # same length and the same letters up to sign, but no rotation of
    # a^2 b^2 or of its inverse
    ab = Alphabet(("a", "b"))
    a, b = ab.gen("a"), ab.gen("b")
    for other in (a * b * a * b, a * ~b * a * b, b ** 2 * a ** -2 * b):
        with pytest.raises(PresentationError):
            _replay_steps(Presentation(ab, (a ** 2 * b ** 2, other)), RemoveDuplicate(1, 0))
    assert _replay_steps(Presentation(ab, (a ** 2 * b ** 2, ~b * ~b * ~a * ~a)), RemoveDuplicate(1, 0)).nrels == 1
