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
relators that hold the generator and keeps every other relator.  Step
records and re-checks build their words over the initial alphabet too; only
the result is renumbered, over the generators left.  A relator works out
what the step search reads off it the first time it is read: its cyclic
reduction prefix, its code string, that string and its inverse's written
twice (a duplicate or shortening chunk is a substring), its signature (its
generators, sorted) and the generators that occur in it once.  A step puts
a new relator, with the state's next creation stamp, in place of each it
changes; a shortening target is tested only against relators stamped after
its last full scan, and ``replay`` reads facts only to re-check duplicates.
Applying a step re-checks it: every index in range, a duplicate by the test
that finds it, a shortening letter by letter against another relator.
"""

from __future__ import annotations

from itertools import count
from typing import Sequence, Union

from .presentations import Presentation, PresentationError, solve_relator
from .records import Record
from .words import Alphabet, Word, WordError, _cyclic_reduction, free_reduce, inverse_codes, is_rotation
from .words import rotations  # noqa: F401  unused here; bench/tracing.py wraps tietze.rotations by name


# Default cap on the recorded steps of one simplification.
TIETZE_BUDGET = 2000
_HEAD_LETTERS = 16  # a rotation's head is at most this long, so a relator's heads are linear in its length


class Eliminate(Record):
    __slots__ = ("gen", "relator_index", "definition")


class RemoveTrivial(Record):
    __slots__ = ("relator_index",)


class RemoveDuplicate(Record):
    __slots__ = ("relator_index", "kept_index")


class CyclicReduce(Record):
    __slots__ = ("relator_index", "prefix")


class Shorten(Record):
    """Rewrite relator ``target`` with a chunk of relator ``other``.

    ``other`` rotated by ``rotation`` (inverted first when ``inverted``)
    has its first ``overlap`` letters matched at ``position`` in the target
    and replaced by the inverse of its remainder.
    """

    __slots__ = ("target", "other", "inverted", "rotation", "position", "overlap")


TietzeStep = Union[Eliminate, RemoveTrivial, RemoveDuplicate, CyclicReduce, Shorten]


class DerivationTrace(Record):
    __slots__ = ("steps", "complete")

    def eliminated_generators(self) -> list[str]:
        return [s.gen for s in self.steps if isinstance(s, Eliminate)]


class _Relator:
    """One relator of the state: its codes over the initial alphabet, its
    creation ``stamp``, the newest stamp its last full shortening scan saw,
    and the search facts that ``derive`` sets (``text`` is ``None`` before)."""

    __slots__ = ("codes", "stamp", "scanned", "heads", "cut", "text", "twice", "inverse_twice", "signature", "singles")

    def __init__(self, codes: tuple[int, ...], stamp: int):
        self.codes, self.stamp, self.scanned, self.heads, self.text = codes, stamp, -1, None, None

    def derive(self, bases: list[str], inverses: list[str]) -> _Relator:
        """This relator, its facts worked out; ``bases`` and ``inverses`` are
        the ``str.translate`` tables of a letter's generator and inverse."""
        codes = self.codes
        self.cut = len(_cyclic_reduction(codes)[0])  # letters cyclic reduction cuts from each end
        # letter codes as strings, written twice so that every rotation is a substring
        self.text = text = "".join(map(chr, codes))
        self.twice, self.inverse_twice = text * 2, text[::-1].translate(inverses) * 2
        # the generators, sorted: equal for a relator's rotations and inverse
        letters = text.translate(bases)
        self.signature = "".join(sorted(letters))
        self.singles = [ord(b) for b in set(letters) if letters.count(b) == 1]
        return self

    def is_rotation_of(self, other: _Relator) -> bool:
        """Whether this relator is a rotation of ``other`` or of its inverse."""
        return self.signature == other.signature and (
            is_rotation(self.text, other.twice) or is_rotation(self.text, other.inverse_twice))

    def overlap(self, t: str) -> tuple[bool, int, int, int] | None:
        """The first ``(inverted, rotation, position, overlap)`` with more than half of a
        rotation of this relator or its inverse in ``t``, at its longest.  A rotation is tried only
        if its head, which starts every such chunk, is in ``t``; heads are cut when first needed."""
        n = len(self.text)
        if self.heads is None:
            m = min(n // 2 + 1, _HEAD_LETTERS)
            self.heads = [d[r : r + m] for d in (self.twice, self.inverse_twice) for r in range(n)]
        for k, head in enumerate(self.heads):
            if head in t:
                inverted, rotation = divmod(k, n)
                doubled = self.inverse_twice if inverted else self.twice
                overlap = next((m for m in range(n, n // 2, -1) if doubled[rotation : rotation + m] in t), 0)
                if overlap:
                    return bool(inverted), rotation, t.find(doubled[rotation : rotation + overlap]), overlap
        return None


_INDEX_FIELDS = ("relator_index", "kept_index", "target", "other")


class _State:
    """A presentation being simplified: one ``_Relator`` per relator, whose
    facts are worked out when first read and kept until a step changes it."""

    def __init__(self, p: Presentation):
        self.initial = p.alphabet
        self.eliminated: set[str] = set()
        self.stamps = count()
        self.relators = [_Relator(r._codes, next(self.stamps)) for r in p.relators]
        self.exactness = p.exactness
        codes = range(2 * len(p.alphabet))
        # str.translate tables: a letter's generator, and its inverse letter
        self.bases = [chr(c >> 1) for c in codes]
        self.inverses = [chr(c ^ 1) for c in codes]

    def derived(self, i: int) -> _Relator:
        """Relator ``i``, its facts worked out if it has none yet."""
        r = self.relators[i]
        return r if r.text is not None else r.derive(self.bases, self.inverses)

    def word(self, codes: tuple[int, ...]) -> Word:
        """The word of reduced initial-alphabet ``codes``."""
        return Word(self.initial, codes, True)

    def presentation(self) -> Presentation:
        """The relators renumbered over the generators left, in initial order,
        which keeps each letter's inverse beside it: the codes stay reduced."""
        names = self.initial.names
        kept = [c for c in range(2 * len(names)) if names[c >> 1] not in self.eliminated]
        to_current = {c: at for at, c in enumerate(kept)}  # a kept letter's code in the result
        alphabet, relators = Alphabet(names[c >> 1] for c in kept[::2]), []
        for r in self.relators:
            current = tuple(map(to_current.get, r.codes))
            if None in current:
                raise WordError(f"an eliminated generator's letter in {r.codes!r}")
            relators.append(Word(alphabet, current, True))
        return Presentation(alphabet, tuple(relators), self.exactness)

    def apply(self, step: TietzeStep) -> None:
        relators = self.relators
        if not all(0 <= getattr(step, name, 0) < len(relators) for name in _INDEX_FIELDS):
            raise PresentationError(f"replay: relator index out of range in {step!r}")
        if isinstance(step, RemoveTrivial):
            if relators[step.relator_index].codes:
                raise PresentationError("replay: relator is not trivial")
            del relators[step.relator_index]
        elif isinstance(step, RemoveDuplicate):
            r, kept = self.derived(step.relator_index), self.derived(step.kept_index)
            if step.relator_index == step.kept_index or not r.is_rotation_of(kept):
                raise PresentationError("replay: relator is not a duplicate of another")
            del relators[step.relator_index]
        elif isinstance(step, CyclicReduce):
            prefix, core = _cyclic_reduction(relators[step.relator_index].codes)
            if self.word(prefix) != step.prefix:
                raise PresentationError("replay: cyclic reduction mismatch")
            relators[step.relator_index] = _Relator(core, next(self.stamps))
        elif isinstance(step, Eliminate):
            definition = solve_relator(self.word(relators[step.relator_index].codes), step.gen)
            if definition != step.definition:
                raise PresentationError("replay: eliminated definition mismatch")
            # the definition goes into the relators that hold the generator;
            # every other relator keeps its codes and its facts
            code = 2 * self.initial.rank(step.gen)
            image = {code: definition._codes, code + 1: inverse_codes(definition._codes)}
            del relators[step.relator_index]
            for i, r in enumerate(relators):
                if code in r.codes or code + 1 in r.codes:
                    relators[i] = _Relator(tuple(free_reduce(x for c in r.codes for x in image.get(c, (c,)))),
                                           next(self.stamps))
            self.eliminated.add(step.gen)
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
            codes = tuple(free_reduce(t[:at] + inverse_codes(src[overlap:]) + t[at + overlap :]))
            relators[step.target] = _Relator(codes, next(self.stamps))
        else:
            raise PresentationError(f"unknown step {step!r}")


def _find_shortening(derived: Sequence[_Relator]) -> Shorten | None:
    # Every match shortens: an overlap above n/2 replaces ``overlap`` letters by ``n - overlap``.  A
    # test reads only the two texts, so a target is tested only against relators made since its last full scan.
    newest, made_since = max((d.stamp for d in derived), default=-1), {}  # a scan's stamp -> relators made since
    for ti, target in enumerate(derived):
        t, scanned = target.text, target.scanned
        if scanned not in made_since:
            made_since[scanned] = [oi for oi, d in enumerate(derived) if d.stamp > scanned]
        for oi in made_since[scanned]:
            n = len(derived[oi].text)
            if oi != ti and 2 <= n <= len(t) and (found := derived[oi].overlap(t)):
                return Shorten(ti, oi, *found)
        target.scanned = newest
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
    # only relators of equal signature can be rotations of each other
    seen: dict[str, list[int]] = {}
    for i, d in enumerate(derived):
        group = seen.setdefault(d.signature, [])
        for j in group:
            if d.is_rotation_of(derived[j]):
                return RemoveDuplicate(i, j)
        group.append(i)
    return None


def _next_step(state: _State) -> TietzeStep | None:
    """The first applicable move: cyclic reduction, trivial and duplicate
    removal, elimination, then shortening."""
    derived, trivial = [], None
    for i in range(len(state.relators)):
        d = state.derived(i)
        if d.cut:
            return CyclicReduce(i, state.word(d.codes[: d.cut]))
        if trivial is None and not d.text:
            trivial = i
        derived.append(d)
    if trivial is not None:
        return RemoveTrivial(trivial)
    return _find_duplicate(derived) or _find_elimination(state, derived) or _find_shortening(derived)


def check_tietze_budget(budget: int) -> None:
    """Refuse a step budget that is not an ``int`` of at least 1 (a ``bool`` is not one)."""
    if type(budget) is not int or budget < 1:
        raise PresentationError("budget must be an int of at least 1")


def tietze_simplify(p: Presentation, budget: int = TIETZE_BUDGET) -> tuple[Presentation, DerivationTrace]:
    """Greedily simplify ``p``, recording a replayable trace.

    Runs until no move applies or ``budget`` recorded steps are spent; an
    exhausted budget returns the best presentation so far with the trace
    flagged incomplete.
    """
    check_tietze_budget(budget)
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
