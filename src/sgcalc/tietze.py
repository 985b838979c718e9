"""Presentation simplification with replayable derivation traces.

Moves, each of which preserves the presented group up to isomorphism:

  (a) eliminate a generator using a relator in which it occurs exactly once
      with exponent +-1 (the relator is the generator's definition);
  (b) delete relators that reduce to the identity, and relators that merely
      repeat another relator up to rotation and inversion;
  (c) replace a relator by its product with a conjugate of another whenever
      that makes it strictly shorter (found by overlapping more than half of
      the other relator), and replace relators by their cyclic reductions.

The greedy strategy eliminates the generator with the shortest definition,
ties broken by generator declaration order, so traces are stable across
runs.  Every step carries enough data to be re-applied from scratch;
``replay`` recomputes the whole derivation and is used to validate traces.

Everything works on the words' letter codes: duplicates share a
``relator_key``, and shortening chunks are found by substring search.
Applying a step, during simplification and in ``replay`` alike, re-checks
it by brute force: a duplicate against ``rotations``, a shortening letter by
letter.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence, Union

from .presentations import Presentation, PresentationError, solve_relator
from .records import Record, setfield, setfields
from .words import Alphabet, Word, cyclic_core, relator_key, rotations, substitute


# Default cap on the recorded steps of one simplification.
TIETZE_BUDGET = 2000


class Eliminate(Record):
    __slots__ = ("gen", "relator_index", "definition")

    def __init__(self, gen: str, relator_index: int, definition: Word):
        setfield(self, "gen", gen)
        setfield(self, "relator_index", relator_index)
        setfield(self, "definition", definition)


class RemoveTrivial(Record):
    __slots__ = ("relator_index",)

    def __init__(self, relator_index: int):
        setfield(self, "relator_index", relator_index)


class RemoveDuplicate(Record):
    __slots__ = ("relator_index", "kept_index")

    def __init__(self, relator_index: int, kept_index: int):
        setfield(self, "relator_index", relator_index)
        setfield(self, "kept_index", kept_index)


class CyclicReduce(Record):
    __slots__ = ("relator_index", "prefix")

    def __init__(self, relator_index: int, prefix: Word):
        setfield(self, "relator_index", relator_index)
        setfield(self, "prefix", prefix)


class Shorten(Record):
    """Rewrite relator ``target`` with a chunk of relator ``other``.

    ``other`` rotated by ``rotation`` (inverted first when ``inverted``)
    has its first ``overlap`` letters matched at ``position`` in the target
    and replaced by the inverse of its remainder.
    """

    __slots__ = ("target", "other", "inverted", "rotation", "position", "overlap")

    def __init__(self, target: int, other: int, inverted: bool, rotation: int, position: int, overlap: int):
        setfield(self, "target", target)
        setfield(self, "other", other)
        setfield(self, "inverted", inverted)
        setfield(self, "rotation", rotation)
        setfield(self, "position", position)
        setfield(self, "overlap", overlap)


TietzeStep = Union[Eliminate, RemoveTrivial, RemoveDuplicate, CyclicReduce, Shorten]


class DerivationTrace(Record):
    __slots__ = ("steps", "complete")

    def __init__(self, steps: tuple[TietzeStep, ...], complete: bool):
        setfields(self, steps, complete)

    def eliminated_generators(self) -> list[str]:
        return [s.gen for s in self.steps if isinstance(s, Eliminate)]


class _State:
    def __init__(self, p: Presentation):
        self.alphabet = p.alphabet
        self.relators = list(p.relators)
        self.exactness = p.exactness

    def presentation(self) -> Presentation:
        return Presentation(self.alphabet, tuple(self.relators), self.exactness)

    def apply(self, step: TietzeStep) -> None:
        if isinstance(step, RemoveTrivial):
            if not self.relators[step.relator_index].is_identity:
                raise PresentationError("replay: relator is not trivial")
            del self.relators[step.relator_index]
        elif isinstance(step, RemoveDuplicate):
            r = self.relators[step.relator_index]
            kept = self.relators[step.kept_index]
            if r not in rotations(kept) and r not in rotations(~kept):
                raise PresentationError("replay: relator is not a duplicate")
            del self.relators[step.relator_index]
        elif isinstance(step, CyclicReduce):
            r = self.relators[step.relator_index]
            core, prefix = cyclic_core(r)
            if prefix != step.prefix:
                raise PresentationError("replay: cyclic reduction mismatch")
            self.relators[step.relator_index] = core
        elif isinstance(step, Eliminate):
            definition = solve_relator(self.relators[step.relator_index], step.gen)
            if definition != step.definition:
                raise PresentationError("replay: eliminated definition mismatch")
            target = self.alphabet.without(step.gen)
            images = {n: target.gen(n) for n in target.names}
            images[step.gen] = substitute(definition, images, target)
            del self.relators[step.relator_index]
            self.relators = [substitute(r, images, target) for r in self.relators]
            self.alphabet = target
        elif isinstance(step, Shorten):
            other = self.relators[step.other]
            src = (~other if step.inverted else other).codes()
            src = src[step.rotation :] + src[: step.rotation]
            t = self.relators[step.target].codes()
            at, overlap = step.position, step.overlap
            if t[at : at + overlap] != src[:overlap]:
                raise PresentationError("replay: overlap does not match")
            inverse_rest = [c ^ 1 for c in reversed(src[overlap:])]
            self.relators[step.target] = Word(self.alphabet, t[:at] + inverse_rest + t[at + overlap :])
        else:
            raise PresentationError(f"unknown step {step!r}")


def _find_shortening(relators: Sequence[Word]) -> Shorten | None:
    # Letter codes as strings, so chunks are found with str.find.  Every
    # match shortens: an overlap above n/2 replaces ``overlap`` letters by
    # ``n - overlap``.  Each chunk of a rotation starts with its shortest,
    # so a rotation whose shortest chunk is absent is skipped whole.
    codes = [r.codes() for r in relators]
    texts = ["".join(map(chr, c)) for c in codes]
    inverses = ["".join(chr(x ^ 1) for x in reversed(c)) for c in codes]
    for ti, t in enumerate(texts):
        for oi, other in enumerate(texts):
            n = len(other)
            if oi == ti or n < 2 or n > len(t):
                continue
            for inverted in (False, True):
                doubled = (inverses[oi] if inverted else other) * 2
                for rotation in range(n):
                    if doubled[rotation : rotation + n // 2 + 1] not in t:
                        continue
                    for overlap in range(n, n // 2, -1):
                        pos = t.find(doubled[rotation : rotation + overlap])
                        if pos >= 0:
                            return Shorten(ti, oi, inverted, rotation, pos, overlap)
    return None


def _find_elimination(alphabet: Alphabet, relators: Sequence[Word]) -> Eliminate | None:
    # shortest definition first; ties eliminate the latest-declared
    # generator, so earlier-declared names survive
    best = min(
        (
            (len(r) - 1, -rank, idx)
            for idx, r in enumerate(relators)
            for rank, count in Counter(c >> 1 for c in r.codes()).items()
            if count == 1
        ),
        default=None,
    )
    if best is None:
        return None
    gen, idx = alphabet.names[-best[1]], best[2]
    return Eliminate(gen, idx, solve_relator(relators[idx], gen))


def _next_step(state: _State) -> TietzeStep | None:
    """The first applicable move: cyclic reduction, trivial and duplicate
    removal, elimination, then shortening."""
    relators = state.relators
    for i, r in enumerate(relators):
        _, prefix = cyclic_core(r)
        if not prefix.is_identity:
            return CyclicReduce(i, prefix)
    for i, r in enumerate(relators):
        if r.is_identity:
            return RemoveTrivial(i)
    # relators are now cyclically reduced and nontrivial, so being a
    # rotation of another relator or of its inverse is key equality
    seen: dict[tuple[int, ...], int] = {}
    for i, r in enumerate(relators):
        j = seen.setdefault(relator_key(r), i)
        if j != i:
            return RemoveDuplicate(i, j)
    return _find_elimination(state.alphabet, relators) or _find_shortening(relators)


def tietze_simplify(p: Presentation, budget: int = TIETZE_BUDGET) -> tuple[Presentation, DerivationTrace]:
    """Greedily simplify ``p``, recording a replayable trace.

    Runs until no move applies or ``budget`` recorded steps are spent; an
    exhausted budget returns the best presentation so far with the trace
    flagged incomplete.
    """
    if budget <= 0:
        raise PresentationError("budget must be positive")
    state = _State(p)
    steps: list[TietzeStep] = []
    while (step := _next_step(state)) is not None:
        if len(steps) >= budget:
            return state.presentation(), DerivationTrace(tuple(steps), complete=False)
        state.apply(step)
        steps.append(step)
    return state.presentation(), DerivationTrace(tuple(steps), complete=True)


def replay(initial: Presentation, trace: DerivationTrace) -> Presentation:
    """Re-apply a trace from the initial presentation; raises on mismatch."""
    state = _State(initial)
    for step in trace.steps:
        state.apply(step)
    return state.presentation()
