"""Finitely presented groups: quotients, abelianization, integer homology.

A presentation either presents the group of interest exactly or is a
*surjective bound*: the presented group surjects onto the target, so proving
the presented group trivial proves the target trivial.  All constructions
that graft relation sets through gluings produce bounds, and the distinction
is tracked so reports never overclaim.
"""

from __future__ import annotations

import enum
from math import gcd
from typing import Iterable, Sequence

from .records import Record
from .words import Alphabet, Word, free_reduce, matches_relator, relator_texts


class PresentationError(ValueError):
    """Relators over the wrong alphabet, bad indices, malformed moves."""


class Exactness(enum.Enum):
    EXACT = "exact"
    SURJECTIVE_BOUND = "surjective-bound"


class Presentation(Record):
    __slots__ = ("alphabet", "relators", "exactness")

    def __init__(self, alphabet: Alphabet, relators: Iterable[Word] = (), exactness: Exactness = Exactness.EXACT):
        super().__init__(alphabet, tuple(relators), exactness)
        for r in self.relators:
            if r.alphabet is not alphabet and r.alphabet != alphabet:
                raise PresentationError(f"relator {r} is not over the presentation alphabet")

    @property
    def ngens(self) -> int:
        return len(self.alphabet)

    @property
    def nrels(self) -> int:
        return len(self.relators)

    def is_empty(self) -> bool:
        return self.ngens == 0 and self.nrels == 0

    def __str__(self) -> str:
        gens = ", ".join(self.alphabet.names)
        rels = ", ".join(str(r) for r in self.relators)
        return f"< {gens} | {rels} >"


def quotient_by(p: Presentation, new_relators: Iterable[Word]) -> Presentation:
    """Quotient by the normal closure of ``new_relators`` (relator addition)."""
    return Presentation(p.alphabet, p.relators + tuple(new_relators), p.exactness)


def unique_occurrence(relator: Word, gen: str, codes: Sequence[int]) -> int:
    """The position of the only ``gen`` letter in ``codes``, which spell ``relator`` or its cyclic core."""
    names = relator.alphabet.names
    hits = [i for i, c in enumerate(codes) if names[c >> 1] == gen]
    if len(hits) != 1:
        raise PresentationError(f"generator {gen!r} does not occur exactly once in {relator}")
    return hits[0]


def solve_relator(relator: Word, gen: str) -> Word:
    """Read a relator as an equation and solve for ``gen``.

    Requires ``gen`` to occur exactly once, with exponent +-1.  For
    ``relator = p g^e q`` the solution is ``p^-1 q^-1`` (e = 1) or ``q p``
    (e = -1); it never mentions ``gen``.
    """
    codes = relator._codes
    i = unique_occurrence(relator, gen, codes)
    p = Word(relator.alphabet, codes[:i], True)  # slices of a reduced word are reduced
    q = Word(relator.alphabet, codes[i + 1 :], True)
    if codes[i] & 1:
        return q * p
    return ~p * ~q


# -- commutation rewriting ---------------------------------------------------

def _commutator_ranks(w: Word) -> tuple[int, int] | None:
    """If ``w`` is the commutator of two signed single generators, the ranks of their bases."""
    codes = w._codes
    if len(codes) == 4:
        g, h, g2, h2 = codes
        if g2 == g ^ 1 and h2 == h ^ 1 and g >> 1 != h >> 1:
            return g >> 1, h >> 1
    return None


def simple_commutator_pair(w: Word) -> tuple[str, str] | None:
    """If ``w`` is the commutator of two signed single generators, the bases."""
    hit = _commutator_ranks(w)
    return None if hit is None else (w.alphabet.names[hit[0]], w.alphabet.names[hit[1]])


def commuting_pairs(relators: Iterable[Word]) -> frozenset[frozenset[str]]:
    """Generator pairs forced to commute by simple commutator relators."""
    pairs = set()
    for r in relators:
        hit = simple_commutator_pair(r)
        if hit:
            pairs.add(frozenset(hit))
    return frozenset(pairs)


def commutation_normal_form(w: Word, pairs: frozenset[frozenset[str]]) -> Word:
    """Sort letters by declaration rank across known commuting pairs.

    Each pass applies the leftmost rank-lowering swap of adjacent letters
    whose bases commute, then freely reduces; the (length, inversions)
    measure strictly drops, so the loop terminates deterministically.
    """
    ranks = w.alphabet.ranks
    swaps = set()
    for pair in pairs:
        if len(pair) == 2 and all(name in ranks for name in pair):
            low, high = sorted(ranks[name] for name in pair)
            swaps.add((high, low))
    return _commuted(w, swaps)


def _commuted(w: Word, swaps: set[tuple[int, int]]) -> Word:
    """:func:`commutation_normal_form` with the pairs as ``(left, right)`` ranks of the bases
    a pass swaps: the passes rewrite one code list, and only a rewritten word is built anew."""
    codes, i, swapped = list(w._codes), 0, False
    while i < len(codes) - 1:
        if (codes[i] >> 1, codes[i + 1] >> 1) in swaps:
            codes[i], codes[i + 1] = codes[i + 1], codes[i]
            codes, i, swapped = free_reduce(codes), 0, True
        else:
            i += 1
    return Word(w.alphabet, tuple(codes), True) if swapped else w


def prune_redundant(relators: Sequence[Word]) -> list[Word]:
    """The relators, all over one alphabet, that do not restate what the remaining ones already say.

    A relator goes when, rewriting with the commuting pairs declared by the
    *other* relators, it either becomes trivial or coincides (up to rotation
    and inversion) with an earlier kept relator.  Removal only ever weakens a
    presentation, which is sound for surjective bounds.  Each relator's
    commuting pair is read once.
    """
    # each relator's pair as the swap it allows, or None
    declared = [None if hit is None else (max(hit), min(hit)) for hit in map(_commutator_ranks, relators)]
    kept = [True] * len(relators)
    for i, r in enumerate(relators):
        swaps = {pair for j, pair in enumerate(declared) if pair and kept[j] and j != i}
        nf = _commuted(r, swaps)
        # a nontrivial nf is never the same relator as a trivial normal form
        kept[i] = not nf.is_identity and not matches_relator(
            nf, relator_texts(_commuted(relators[j], swaps) for j in range(i) if kept[j]))
    return [r for i, r in enumerate(relators) if kept[i]]


# -- abelianization and integer homology -------------------------------------

def abelianize(p: Presentation) -> list[list[int]]:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    rows = []
    for r in p.relators:
        row = [0] * p.ngens
        for c in r._codes:
            row[c >> 1] += -1 if c & 1 else 1
        rows.append(row)
    return rows


def _sparse_rows(matrix: Iterable[Sequence[int]]) -> list[dict[int, int]]:
    """The nonzero rows of a matrix as ``{column: entry}`` dicts of the nonzero entries."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix if any(row)]


def _least_pivot(rows: list[dict[int, int]]) -> tuple[dict[int, int], int]:
    """A row and column of an entry of least magnitude, in the shortest row that holds one."""
    row = min(rows, key=lambda row: (min(map(abs, row.values())), len(row)))
    least = min(map(abs, row.values()))
    return row, next(c for c, v in row.items() if abs(v) == least)


def _invariant_factors(rows: list[dict[int, int]]) -> list[int]:
    """Nonzero invariant factors of sparse nonzero rows, which it overwrites.

    One sparse elimination (Havas-Holt-Rees, "Recognizing badly presented
    Z-modules", 1993).  The pivot is the first unit of the shortest row
    holding a +-1 (Markowitz order, which bounds fill-in), or else
    ``_least_pivot``'s entry.  Its multiples are subtracted from the rows
    holding its column, and from no others.  A unit's row then leaves as a
    factor 1: the column operations that would clear it touch no other row.
    A non-unit pivot also reduces its own row by column operations on the
    rows still holding its column, and leaves once its row and column are
    clear; until then each step leaves an entry smaller than it, so the next
    pivot is smaller: a pivot that is not raises ``ArithmeticError`` rather
    than loop.  A final gcd/lcm pass turns the diagonal into the chain of
    invariant factors.
    """
    ones, diagonal = 0, []
    bound = None  # a kept non-unit pivot's magnitude, which the next pivot must undercut
    while rows:
        pivot = None
        for row in rows:
            if (pivot is None or len(row) < len(pivot)) and (1 in row.values() or -1 in row.values()):
                pivot = row
                if len(row) == 1:  # no row is shorter
                    break
        if pivot is None:
            pivot, j = _least_pivot(rows)
        else:
            j = next(c for c, v in pivot.items() if v == 1 or v == -1)
        p = pivot[j]
        if bound is not None and abs(p) >= bound:
            raise ArithmeticError(f"Smith form: pivot {p} does not undercut the kept pivot of magnitude {bound}")
        bound = None
        left = []
        for row in rows:
            if row is pivot:
                continue
            if j in row:
                q = row[j] // p
                for c, v in pivot.items():
                    w = row.get(c, 0) - q * v
                    if w:
                        row[c] = w
                    else:
                        del row[c]
            if row:
                left.append(row)
        rows = left
        if p == 1 or p == -1:
            ones += 1
            continue
        holders = [row for row in rows if j in row]
        for c, v in list(pivot.items()):
            q = v // p
            if q and c != j:
                for row in holders + [pivot]:
                    w = row.get(c, 0) - q * row[j]
                    if w:
                        row[c] = w
                    else:
                        del row[c]
        if holders or len(pivot) > 1:
            rows.append(pivot)
            bound = abs(p)
        else:
            diagonal.append(abs(p))
    for i in range(len(diagonal)):
        for k in range(i + 1, len(diagonal)):
            g = gcd(diagonal[i], diagonal[k])
            diagonal[i], diagonal[k] = g, diagonal[i] * diagonal[k] // g
    return [1] * ones + diagonal


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Every entry must be an ``int`` (not a ``bool``, a float or a string) and
    every row as long as the first, or ``ValueError`` is raised.  Zero rows
    and zero entries are dropped, and the rest goes through one unimodular
    elimination over Python integers (see ``_invariant_factors``).
    """
    cols = len(matrix[0]) if matrix else 0
    for row in matrix:  # every row: an empty first row hides no other
        if len(row) != cols:
            raise ValueError("ragged matrix")
        for v in row:
            if type(v) is not int:
                raise ValueError(f"matrix entry {v!r} is not an int")
    return _invariant_factors(_sparse_rows(matrix))


def homology_invariants(p: Presentation) -> tuple[int, list[int]]:
    """(free rank, torsion coefficients) of the abelianized group.

    The Smith form runs on the nonzero rows of ``abelianize(p)``, whose
    entries are exponent sums and so ints: the entry check is skipped.  The
    abelianizations of X and of its blocks take unit pivots alone.
    """
    factors = _invariant_factors(_sparse_rows(abelianize(p)))
    rank = p.ngens - len(factors)
    torsion = [d for d in factors if d > 1]
    return rank, torsion
