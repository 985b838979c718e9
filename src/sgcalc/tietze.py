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

The state holds each relator as its tuple of letter codes.  What the step
search reads off a relator is derived once per distinct tuple: its cyclic
reduction prefix, its ``relator_key`` (duplicates share it), its code string
and its inverse's (shortening chunks are found by substring search), the
generators that occur in it once, and the relators found not to shorten it.
``CyclicReduce`` and ``Shorten`` change one relator, so only that one is
derived afresh; the removals change none; ``Eliminate`` renumbers the codes,
so every relator is.  ``Word``s are built only for step records, the result
and the duplicate re-check.  Applying a step, during simplification and in
``replay`` alike, re-checks it: every index in range, a duplicate against
``rotations`` of another relator, a shortening letter by letter against
another relator.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence, Union

from .presentations import Presentation, PresentationError, solve_relator
from .records import Record, setfield, setfields
from .words import Word, _core_key, _cyclic_reduction, free_reduce, inverse_codes, rotations


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


class _Relator:
    """What the step search reads off one relator's letter codes."""

    __slots__ = ("cut", "key", "text", "inverse_text", "singles", "unmatched")

    def __init__(self, codes: tuple[int, ...]):
        prefix, core = _cyclic_reduction(codes)
        self.cut = len(prefix)  # letters cyclic reduction cuts from each end
        self.key = None if prefix else _core_key(core)
        # letter codes as strings, so shortening chunks are found with str.find
        self.text = "".join(map(chr, codes))
        self.inverse_text = "".join(map(chr, inverse_codes(codes)))
        self.singles = [rank for rank, n in Counter(c >> 1 for c in codes).items() if n == 1]
        self.unmatched: set[str] = set()  # texts of relators found not to shorten this one


_INDEX_FIELDS = ("relator_index", "kept_index", "target", "other")


class _State:
    """A presentation being simplified: each relator as its tuple of letter
    codes, with the ``_Relator`` of each distinct tuple computed once and
    forgotten when an ``Eliminate`` renumbers the codes."""

    def __init__(self, p: Presentation):
        self.alphabet = p.alphabet
        self.relators = [tuple(r.codes()) for r in p.relators]
        self.exactness = p.exactness
        self._derived: dict[tuple[int, ...], _Relator] = {}

    def presentation(self) -> Presentation:
        return Presentation(self.alphabet, tuple(Word(self.alphabet, r) for r in self.relators), self.exactness)

    def derived(self) -> list[_Relator]:
        table = self._derived
        return [table[r] if r in table else table.setdefault(r, _Relator(r)) for r in self.relators]

    def apply(self, step: TietzeStep) -> None:
        relators = self.relators
        if not all(0 <= getattr(step, name, 0) < len(relators) for name in _INDEX_FIELDS):
            raise PresentationError(f"replay: relator index out of range in {step!r}")
        if isinstance(step, RemoveTrivial):
            if relators[step.relator_index]:
                raise PresentationError("replay: relator is not trivial")
            del relators[step.relator_index]
        elif isinstance(step, RemoveDuplicate):
            i, j = step.relator_index, step.kept_index
            # a brute-force re-check on Words built for it: bench/tracing.py
            # wraps ``tietze.rotations`` by name, so it must stay the check
            r, kept = Word(self.alphabet, relators[i]), Word(self.alphabet, relators[j])
            if i == j or (r not in rotations(kept) and r not in rotations(~kept)):
                raise PresentationError("replay: relator is not a duplicate of another")
            del relators[i]
        elif isinstance(step, CyclicReduce):
            prefix, core = _cyclic_reduction(relators[step.relator_index])
            if Word(self.alphabet, prefix) != step.prefix:
                raise PresentationError("replay: cyclic reduction mismatch")
            relators[step.relator_index] = core
        elif isinstance(step, Eliminate):
            definition = solve_relator(Word(self.alphabet, relators[step.relator_index]), step.gen)
            if definition != step.definition:
                raise PresentationError("replay: eliminated definition mismatch")
            # renumber the codes past the eliminated generator's
            dropped = 2 * self.alphabet.rank(step.gen)
            image = [(c if c < dropped else c - 2,) for c in range(2 * len(self.alphabet))]
            image[dropped] = tuple(c if c < dropped else c - 2 for c in definition.codes())
            image[dropped + 1] = inverse_codes(image[dropped])
            del relators[step.relator_index]
            self.relators = [tuple(free_reduce(x for c in r for x in image[c])) for r in relators]
            self.alphabet = self.alphabet.without(step.gen)
            self._derived = {}
        elif isinstance(step, Shorten):
            t, other = relators[step.target], relators[step.other]
            n, rotation, at, overlap = len(other), step.rotation, step.position, step.overlap
            if step.target == step.other:
                raise PresentationError("replay: relator cannot shorten itself")
            if not (0 <= rotation < n and 0 <= overlap <= n and 0 <= at <= len(t) - overlap):
                raise PresentationError("replay: shortening rotation, position or overlap out of range")
            src = inverse_codes(other) if step.inverted else other
            src = src[rotation:] + src[:rotation]
            if t[at : at + overlap] != src[:overlap]:
                raise PresentationError("replay: overlap does not match")
            relators[step.target] = tuple(free_reduce(t[:at] + inverse_codes(src[overlap:]) + t[at + overlap :]))
        else:
            raise PresentationError(f"unknown step {step!r}")


def _find_shortening(derived: Sequence[_Relator]) -> Shorten | None:
    # Every match shortens: an overlap above n/2 replaces ``overlap``
    # letters by ``n - overlap``.  Each chunk of a rotation starts with its
    # shortest, so a rotation whose shortest chunk is absent is skipped whole.
    for ti, target in enumerate(derived):
        t = target.text
        for oi, other in enumerate(derived):
            n = len(other.text)
            if oi == ti or n < 2 or n > len(t) or other.text in target.unmatched:
                continue
            for inverted in (False, True):
                doubled = (other.inverse_text if inverted else other.text) * 2
                for rotation in range(n):
                    if doubled[rotation : rotation + n // 2 + 1] not in t:
                        continue
                    for overlap in range(n, n // 2, -1):
                        pos = t.find(doubled[rotation : rotation + overlap])
                        if pos >= 0:
                            return Shorten(ti, oi, inverted, rotation, pos, overlap)
            target.unmatched.add(other.text)
    return None


def _find_elimination(state: _State, derived: Sequence[_Relator]) -> Eliminate | None:
    # shortest definition first; ties eliminate the latest-declared
    # generator, so earlier-declared names survive
    best = min(
        ((len(r) - 1, -rank, idx) for idx, r in enumerate(state.relators) for rank in derived[idx].singles),
        default=None,
    )
    if best is None:
        return None
    gen, idx = state.alphabet.names[-best[1]], best[2]
    return Eliminate(gen, idx, solve_relator(Word(state.alphabet, state.relators[idx]), gen))


def _next_step(state: _State) -> TietzeStep | None:
    """The first applicable move: cyclic reduction, trivial and duplicate
    removal, elimination, then shortening."""
    relators, derived = state.relators, state.derived()
    for i, d in enumerate(derived):
        if d.cut:
            return CyclicReduce(i, Word(state.alphabet, relators[i][: d.cut]))
    for i, r in enumerate(relators):
        if not r:
            return RemoveTrivial(i)
    # relators are now cyclically reduced and nontrivial, so being a
    # rotation of another relator or of its inverse is key equality
    seen: dict[tuple[int, ...], int] = {}
    for i, d in enumerate(derived):
        j = seen.setdefault(d.key, i)
        if j != i:
            return RemoveDuplicate(i, j)
    return _find_elimination(state, derived) or _find_shortening(derived)


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
