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

from .records import Record, setfield
from .words import Alphabet, Word, relator_key


class PresentationError(ValueError):
    """Relators over the wrong alphabet, bad indices, malformed moves."""


class Exactness(enum.Enum):
    EXACT = "exact"
    SURJECTIVE_BOUND = "surjective-bound"


class Presentation(Record):
    __slots__ = ("alphabet", "relators", "exactness")

    def __init__(self, alphabet: Alphabet, relators: Iterable[Word] = (), exactness: Exactness = Exactness.EXACT):
        setfield(self, "alphabet", alphabet)
        setfield(self, "relators", tuple(relators))
        setfield(self, "exactness", exactness)
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

def simple_commutator_pair(w: Word) -> tuple[str, str] | None:
    """If ``w`` is the commutator of two signed single generators, the bases."""
    codes = w.codes()
    if len(codes) != 4:
        return None
    g, h, g2, h2 = codes
    if g2 == g ^ 1 and h2 == h ^ 1 and g >> 1 != h >> 1:
        return (w.alphabet.names[g >> 1], w.alphabet.names[h >> 1])
    return None


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
    names = w.alphabet.names
    word = w
    while True:
        codes = word.codes()
        for i in range(len(codes) - 1):
            g, h = codes[i] >> 1, codes[i + 1] >> 1
            if h < g and frozenset((names[g], names[h])) in pairs:
                codes[i], codes[i + 1] = codes[i + 1], codes[i]
                break
        else:
            return word
        word = Word(w.alphabet, codes)


def prune_redundant(relators: Sequence[Word]) -> list[Word]:
    """The relators that do not restate what the remaining ones already say.

    A relator goes when, rewriting with the commuting pairs declared by the
    *other* relators, it either becomes trivial or coincides (up to rotation
    and inversion) with an earlier kept relator.  Removal only ever weakens a
    presentation, which is sound for surjective bounds.
    """
    kept = [True] * len(relators)
    for i, r in enumerate(relators):
        others = [s for j, s in enumerate(relators) if j != i and kept[j]]
        pairs = commuting_pairs(others)
        nf = commutation_normal_form(r, pairs)
        if nf.is_identity:
            kept[i] = False
            continue
        for j in range(i):
            if not kept[j]:
                continue
            nfj = commutation_normal_form(relators[j], pairs)
            if not nfj.is_identity and relator_key(nf) == relator_key(nfj):
                kept[i] = False
                break
    return [r for i, r in enumerate(relators) if kept[i]]


# -- abelianization and integer homology -------------------------------------

def abelianize(p: Presentation) -> list[list[int]]:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    rows = []
    for r in p.relators:
        row = [0] * p.ngens
        for c in r.codes():
            row[c >> 1] += -1 if c & 1 else 1
        rows.append(row)
    return rows


def _min_abs_pivot(m: list[list[int]], s: int) -> tuple[int, int] | None:
    best = None
    for i in range(s, len(m)):
        for j in range(s, len(m[0])):
            v = abs(m[i][j])
            if v and (best is None or v < abs(m[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Elementary row/column operations over Python integers, so no overflow,
    bring the matrix to a diagonal; pivots are the smallest-magnitude nonzero
    entries, which keeps entry growth tame on small matrices.  A final pass
    replaces each pair of diagonal entries by their gcd and lcm, which turns
    any diagonal into the chain of invariant factors.
    """
    m = [list(map(int, row)) for row in matrix]
    cols = len(m[0]) if m else 0
    if any(len(row) != cols for row in m):  # every row: an empty first row hides no other
        raise ValueError("ragged matrix")
    m = [row for row in m if any(row)]  # a zero row adds no invariant factor
    rows = len(m)

    s = 0
    limit = min(rows, cols)
    while s < limit:
        pivot = _min_abs_pivot(m, s)
        if pivot is None:
            break
        pi, pj = pivot
        m[s], m[pi] = m[pi], m[s]
        for row in m:
            row[s], row[pj] = row[pj], row[s]

        dirty = False
        for i in range(s + 1, rows):
            if m[i][s]:
                q = m[i][s] // m[s][s]
                for j in range(s, cols):
                    m[i][j] -= q * m[s][j]
                if m[i][s]:
                    dirty = True
        for j in range(s + 1, cols):
            if m[s][j]:
                q = m[s][j] // m[s][s]
                for i in range(s, rows):
                    m[i][j] -= q * m[i][s]
                if m[s][j]:
                    dirty = True
        if not dirty:
            s += 1

    diag = [abs(m[i][i]) for i in range(limit) if m[i][i]]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def homology_invariants(p: Presentation) -> tuple[int, list[int]]:
    """(free rank, torsion coefficients) of the abelianized group."""
    factors = smith_normal_form(abelianize(p))
    rank = p.ngens - len(factors)
    torsion = [d for d in factors if d > 1]
    return rank, torsion
