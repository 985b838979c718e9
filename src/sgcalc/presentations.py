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
from .words import Alphabet, Word, same_relator


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
        # a nontrivial nf is never the same relator as a trivial normal form
        kept[i] = not nf.is_identity and not any(
            kept[j] and same_relator(nf, commutation_normal_form(relators[j], pairs)) for j in range(i))
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


def _unit_pivots(rows: list[dict[int, int]]) -> tuple[int, list[dict[int, int]]]:
    """Split off every invariant factor 1 that a unit pivot gives.

    While some sparse row holds a +-1, the shortest such row (Markowitz
    order, which bounds fill-in) pivots on its first unit: multiples of it
    are subtracted from the rows holding the pivot's column, and from no
    other rows.  The pivot row then holds the column alone, so the column
    operations that clear the rest of it touch no other row, and it leaves
    as a 1x1 block.  Returns the count of such blocks and the rows left,
    none of which holds a unit.
    """
    ones = 0
    while rows:
        pivot = None
        for row in rows:
            if (pivot is None or len(row) < len(pivot)) and (1 in row.values() or -1 in row.values()):
                pivot = row
                if len(row) == 1:  # no row is shorter
                    break
        if pivot is None:
            break
        j = next(c for c, v in pivot.items() if v == 1 or v == -1)
        unit = pivot[j]
        left = []
        for row in rows:
            if row is pivot:
                continue
            if j in row:
                q = row[j] * unit
                for c, v in pivot.items():
                    w = row.get(c, 0) - q * v
                    if w:
                        row[c] = w
                    else:
                        del row[c]
            if row:
                left.append(row)
        rows = left
        ones += 1
    return ones, rows


def _min_abs_pivot(m: list[list[int]], s: int) -> tuple[int, int] | None:
    best = None
    for i in range(s, len(m)):
        for j in range(s, len(m[0])):
            v = abs(m[i][j])
            if v and (best is None or v < abs(m[best[0]][best[1]])):
                best = (i, j)
    return best


def _dense_factors(m: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of a nonempty dense matrix, which it overwrites.

    Elementary row/column operations over Python integers, so no overflow,
    bring the matrix to a diagonal; pivots are the smallest-magnitude nonzero
    entries, which keeps entry growth tame on small matrices.  A final pass
    replaces each pair of diagonal entries by their gcd and lcm, which turns
    any diagonal into the chain of invariant factors.
    """
    rows, cols = len(m), len(m[0])
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


def _invariant_factors(rows: list[dict[int, int]]) -> list[int]:
    """Nonzero invariant factors of sparse nonzero rows, which it overwrites:
    unit pivots first, then the dense loop on the columns of what is left."""
    ones, rows = _unit_pivots(rows)
    if not rows:
        return [1] * ones
    cols = sorted({c for row in rows for c in row})
    return [1] * ones + _dense_factors([[row.get(c, 0) for c in cols] for row in rows])


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Every entry must be an ``int`` (not a ``bool``, a float or a string) and
    every row as long as the first, or ``ValueError`` is raised.  Zero rows
    and zero entries are dropped, and the factors come in two phases: unit
    pivots on sparse rows split off the factors 1 (see ``_unit_pivots``),
    and what no unit reaches goes to a smallest-pivot dense loop.  Both
    phases are unimodular, so the factors are those of the whole matrix.
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

    The Smith form's two phases (see ``smith_normal_form``) run on the
    nonzero rows of ``abelianize(p)``, whose entries are exponent sums and
    so ints by construction: the entry check is skipped.  The
    abelianizations of X and of its blocks are reduced by unit pivots alone.
    """
    factors = _invariant_factors(_sparse_rows(abelianize(p)))
    rank = p.ngens - len(factors)
    torsion = [d for d in factors if d > 1]
    return rank, torsion
