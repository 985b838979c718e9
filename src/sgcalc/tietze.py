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

The state holds one list of relators, each its letter codes over the
initial alphabet: an ``Eliminate`` substitutes its definition into the
relators that hold the generator and keeps every other relator, and codes
are translated into the current alphabet only where a ``Word`` is built
(step records, re-checks and the result).  A relator works out what the
step search reads off it the first time it is read: its cyclic reduction
prefix, its code string and its inverse's (shortening chunks are found by
substring search), its signature (its generators, sorted), the generators
that occur in it once, and the relators found not to shorten it.  A step
puts a new relator in place of each it changes, and ``replay`` reads facts
only to re-check duplicates.  Duplicates are looked for among relators of
equal signature, whose ``relator_key``s (Booth's least rotation, linear in
the length) are found only then and kept.
Applying a step, during simplification and in ``replay`` alike, re-checks
it: every index in range, a duplicate as a rotation of another relator or
of its inverse (a substring of it written twice), a shortening letter by
letter against another relator.
"""

from __future__ import annotations

from typing import Sequence, Union

from .presentations import Presentation, PresentationError, solve_relator
from .records import Record, setfield, setfields
from .words import Word, WordError, _cyclic_reduction, _least_rotated, free_reduce, inverse_codes
from .words import rotations  # noqa: F401  unused here; bench/tracing.py wraps tietze.rotations by name


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
    """One relator of the state, as its tuple of letter codes over the
    initial alphabet, and what the step search reads off it, worked out the
    first time ``derive`` is called."""

    __slots__ = ("codes", "cut", "text", "inverse_text", "signature", "singles", "unmatched", "_key")

    def __init__(self, codes: tuple[int, ...]):
        self.codes = codes
        self.text: str | None = None  # set, with every other fact, by derive

    def derive(self, bases: list[str], inverses: list[str]) -> _Relator:
        """This relator, its facts worked out; ``bases`` and ``inverses`` are
        the ``str.translate`` tables of a letter's generator and inverse."""
        if self.text is None:
            codes = self.codes
            self.cut = len(_cyclic_reduction(codes)[0])  # letters cyclic reduction cuts from each end
            # letter codes as strings, so shortening chunks are found with str.find
            self.text = "".join(map(chr, codes))
            self.inverse_text = self.text[::-1].translate(inverses)
            # the generators, sorted: equal for a relator's rotations and inverse
            letters = self.text.translate(bases)
            self.signature = "".join(sorted(letters))
            self.singles = [ord(b) for b in set(letters) if letters.count(b) == 1]
            self.unmatched: set[str] = set()  # texts of relators found not to shorten this one
            self._key: str | None = None
        return self

    def key(self) -> str:
        """The cyclically reduced relator's ``relator_key``, as a string; found
        only for a relator that shares its signature with another."""
        if self._key is None:
            self._key = min(_least_rotated(self.text), _least_rotated(self.inverse_text))
        return self._key


_INDEX_FIELDS = ("relator_index", "kept_index", "target", "other")


class _State:
    """A presentation being simplified: one ``_Relator`` per relator, whose
    facts are worked out when first read and kept until a step changes it."""

    def __init__(self, p: Presentation):
        self.alphabet = self.initial = p.alphabet
        self.relators = [_Relator(r._codes) for r in p.relators]
        self.exactness = p.exactness
        codes = range(2 * len(p.alphabet))
        self._to_current = list(codes)  # an initial code's current code
        self._to_initial = list(codes)  # a current code's initial code
        # str.translate tables: a letter's generator, and its inverse letter
        self.bases = [chr(c >> 1) for c in codes]
        self.inverses = [chr(c ^ 1) for c in codes]

    def word(self, codes: Sequence[int]) -> Word:
        """The word of reduced initial-alphabet ``codes`` over the current
        alphabet; the renumbering keeps each letter's inverse beside it, so
        the codes stay reduced."""
        current = tuple(map(self._to_current.__getitem__, codes))
        if -1 in current:
            raise WordError(f"an eliminated generator's letter in {codes!r}")
        return Word(self.alphabet, current, True)

    def presentation(self) -> Presentation:
        return Presentation(self.alphabet, tuple(self.word(r.codes) for r in self.relators), self.exactness)

    def apply(self, step: TietzeStep) -> None:
        relators = self.relators
        if not all(0 <= getattr(step, name, 0) < len(relators) for name in _INDEX_FIELDS):
            raise PresentationError(f"replay: relator index out of range in {step!r}")
        if isinstance(step, RemoveTrivial):
            if relators[step.relator_index].codes:
                raise PresentationError("replay: relator is not trivial")
            del relators[step.relator_index]
        elif isinstance(step, RemoveDuplicate):
            # a rotation of the kept relator or of its inverse: a substring
            # of it, or of its inverse, written twice, and of its length
            r = relators[step.relator_index].derive(self.bases, self.inverses).text
            kept = relators[step.kept_index].derive(self.bases, self.inverses)
            if step.relator_index == step.kept_index or len(r) != len(kept.text) or (
                r not in kept.text * 2 and r not in kept.inverse_text * 2
            ):
                raise PresentationError("replay: relator is not a duplicate of another")
            del relators[step.relator_index]
        elif isinstance(step, CyclicReduce):
            prefix, core = _cyclic_reduction(relators[step.relator_index].codes)
            if self.word(prefix) != step.prefix:
                raise PresentationError("replay: cyclic reduction mismatch")
            relators[step.relator_index] = _Relator(core)
        elif isinstance(step, Eliminate):
            definition = solve_relator(self.word(relators[step.relator_index].codes), step.gen)
            if definition != step.definition:
                raise PresentationError("replay: eliminated definition mismatch")
            # the definition goes into the relators that hold the generator;
            # every other relator keeps its codes and its facts
            to_initial, to_current = self._to_initial, self._to_current
            code = 2 * self.initial.rank(step.gen)
            image = {code: tuple(to_initial[c] for c in definition.codes())}
            image[code + 1] = inverse_codes(image[code])
            del relators[step.relator_index]
            for i, r in enumerate(relators):
                if code in r.codes or code + 1 in r.codes:
                    relators[i] = _Relator(tuple(free_reduce(x for c in r.codes for x in image.get(c, (c,)))))
            self.alphabet = self.alphabet.without(step.gen)
            del to_initial[to_current[code] : to_current[code] + 2]
            to_current[code] = to_current[code + 1] = -1  # no Word may hold it now
            for at, c in enumerate(to_initial):
                to_current[c] = at
        elif isinstance(step, Shorten):
            t, other = relators[step.target].codes, relators[step.other].codes
            n, rotation, at, overlap = len(other), step.rotation, step.position, step.overlap
            if step.target == step.other:
                raise PresentationError("replay: relator cannot shorten itself")
            if not (0 <= rotation < n and 0 <= overlap <= n and 0 <= at <= len(t) - overlap):
                raise PresentationError("replay: shortening rotation, position or overlap out of range")
            src = inverse_codes(other) if step.inverted else other
            src = src[rotation:] + src[:rotation]
            if t[at : at + overlap] != src[:overlap]:
                raise PresentationError("replay: overlap does not match")
            relators[step.target] = _Relator(
                tuple(free_reduce(t[:at] + inverse_codes(src[overlap:]) + t[at + overlap :])))
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
    # generator, so earlier-declared names survive (initial ranks keep the
    # current ranks' order)
    best = min(
        ((len(d.text) - 1, -rank, idx) for idx, d in enumerate(derived) for rank in d.singles),
        default=None,
    )
    if best is None:
        return None
    gen, idx = state.initial.names[-best[1]], best[2]
    return Eliminate(gen, idx, solve_relator(state.word(derived[idx].codes), gen))


def _find_duplicate(derived: Sequence[_Relator]) -> RemoveDuplicate | None:
    # on cyclically reduced, nontrivial relators, being a rotation of another
    # or of its inverse is key equality; keys are found only where
    # signatures, which equal keys imply, collide
    seen: dict[str, list[int]] = {}
    for i, d in enumerate(derived):
        group = seen.setdefault(d.signature, [])
        if group:
            key = d.key()
            for j in group:
                if derived[j].key() == key:
                    return RemoveDuplicate(i, j)
        group.append(i)
    return None


def _next_step(state: _State) -> TietzeStep | None:
    """The first applicable move: cyclic reduction, trivial and duplicate
    removal, elimination, then shortening."""
    derived = [r.derive(state.bases, state.inverses) for r in state.relators]
    for i, d in enumerate(derived):
        if d.cut:
            return CyclicReduce(i, state.word(d.codes[: d.cut]))
    for i, d in enumerate(derived):
        if not d.text:
            return RemoveTrivial(i)
    return _find_duplicate(derived) or _find_elimination(state, derived) or _find_shortening(derived)


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
