"""Todd-Coxeter coset enumeration (HLT strategy).

The enumeration is relator-scan driven: every live coset is scanned against
every relator, defining new cosets to fill gaps, and coincidences are merged
immediately through a union-find table with path compression.  Merging
follows COINCIDENCE in Holt, Eick and O'Brien, *Handbook of Computational
Group Theory* (2005), §5.1: each entry ``dead.x = d`` of a dead coset is
moved to the live representatives only after the back-pointer
``d.x^-1 = dead`` is undefined.  So once a coincidence is processed, every
entry of a live row names a live coset and ``c.x = d`` holds exactly when
``d.x^-1 = c``; no stale back-pointer to a dead coset can hide a deduction.
When the scan queue drains, the table is a complete permutation
representation of the presented group on the cosets of the given subgroup,
so the coset count is the exact subgroup index.  The loop is deterministic:
identical inputs give identical tables.

Index 1 for the trivial subgroup certifies that the presented group - and
therefore anything it surjects onto - is trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .presentations import Presentation
from .words import Word, cyclic_core


# Default cap on the cosets one enumeration may define.
MAX_COSETS = 100_000


class EnumerationError(ValueError):
    """Malformed input to the enumerator, or a closed table that fails its check."""


@dataclass(frozen=True)
class EnumResult:
    """Outcome of one enumeration.

    ``index`` is the subgroup index when the table closed, or ``None`` when
    the coset budget ran out first.  ``defined``/``collapsed`` count cosets
    ever created and cosets removed by coincidences.
    """

    index: int | None
    defined: int
    collapsed: int

    @property
    def found(self) -> bool:
        return self.index is not None


@dataclass(frozen=True)
class TrivialityCertificate:
    """An index-1 enumeration of the trivial subgroup of ``presentation``."""

    presentation: Presentation
    result: EnumResult


class _Budget(Exception):
    pass


class _Table:
    def __init__(self, ncols: int, max_cosets: int):
        self.ncols = ncols
        self.max_cosets = max_cosets
        self.rows: list[list[int | None]] = []
        self.parent: list[int] = []
        self.defined = 0
        self.collapsed = 0
        self.new_coset()

    def new_coset(self) -> int:
        if self.defined >= self.max_cosets:
            raise _Budget
        c = len(self.rows)
        self.rows.append([None] * self.ncols)
        self.parent.append(c)
        self.defined += 1
        return c

    def find(self, c: int) -> int:
        root = c
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[c] != root:
            self.parent[c], c = root, self.parent[c]
        return root

    def alive(self, c: int) -> bool:
        return self.find(c) == c

    def live_cosets(self) -> list[int]:
        return [c for c in range(len(self.rows)) if self.parent[c] == c]

    def deduce(self, a: int, x: int, b: int) -> None:
        """Record a.x = b in both directions, merging on conflict."""
        xi = x ^ 1
        ea = self.rows[a][x]
        if ea is None:
            self.rows[a][x] = b
        elif self.find(ea) != self.find(b):
            self.coincide(ea, b)
            return
        eb = self.rows[b][xi]
        if eb is None:
            self.rows[b][xi] = a
        elif self.find(eb) != self.find(a):
            self.coincide(eb, a)

    def coincide(self, a: int, b: int) -> None:
        """Merge cosets ``a`` and ``b`` and every coincidence they force.

        Handbook of Computational Group Theory, §5.1 (COINCIDENCE).
        """
        queue: list[int] = []

        def merge(u: int, v: int) -> None:
            u, v = self.find(u), self.find(v)
            if u == v:
                return
            u, v = min(u, v), max(u, v)
            self.parent[v] = u
            self.collapsed += 1
            queue.append(v)

        merge(a, b)
        while queue:
            dead = queue.pop()
            row = self.rows[dead]
            for x in range(self.ncols):
                d = row[x]
                if d is None:
                    continue
                row[x] = None
                # Undefine d.x^-1 = dead first: left in place, it would make
                # the lookup below resolve to mu itself and drop mu.x = nu.
                if self.rows[d][x ^ 1] == dead:
                    self.rows[d][x ^ 1] = None
                mu, nu = self.find(dead), self.find(d)
                ex = self.rows[mu][x]
                if ex is not None:
                    merge(nu, self.find(ex))
                else:
                    exi = self.rows[nu][x ^ 1]
                    if exi is not None:
                        merge(mu, self.find(exi))
                    else:
                        self.rows[mu][x] = nu
                        self.rows[nu][x ^ 1] = mu

    def scan_and_fill(self, start: int, word: Sequence[int]) -> bool:
        """Trace ``word`` from ``start`` back to ``start``, filling gaps.

        Returns False when a coincidence interrupted the scan (the caller
        retries while the coset is still alive).
        """
        if not word:
            return True
        i, j = 0, len(word) - 1
        f = b = self.find(start)
        while True:
            while i <= j:
                nxt = self.rows[f][word[i]]
                if nxt is None:
                    break
                f = self.find(nxt)
                i += 1
            if i > j:
                if f != b:
                    self.coincide(f, b)
                    return False
                return True
            while j >= i:
                prv = self.rows[b][word[j] ^ 1]
                if prv is None:
                    break
                b = self.find(prv)
                j -= 1
            if j < i:
                if f != b:
                    self.coincide(f, b)
                    return False
                return True
            if j == i:
                before = self.collapsed
                self.deduce(f, word[i], b)
                return self.collapsed == before
            self.deduce(f, word[i], self.new_coset())


def todd_coxeter(
    p: Presentation, subgroup_gens: Sequence[Word] = (), max_cosets: int = MAX_COSETS
) -> EnumResult:
    """Enumerate cosets of the subgroup generated by ``subgroup_gens``.

    Single-coset shortcut for empty alphabets aside, the run either closes
    with the exact index or stops once ``max_cosets`` cosets have been
    defined in total.
    """
    if max_cosets < 1:
        raise EnumerationError("max_cosets must be at least 1")
    for w in subgroup_gens:
        if w.alphabet != p.alphabet:
            raise EnumerationError(f"subgroup word {w} is not over the presentation alphabet")
    if p.ngens == 0:
        return EnumResult(index=1, defined=1, collapsed=0)

    relators = []
    for r in p.relators:
        core, _ = cyclic_core(r)
        if not core.is_identity:
            relators.append(core.codes())
    subgens = [w.codes() for w in subgroup_gens]

    table = _Table(2 * p.ngens, max_cosets)
    try:
        for word in subgens:
            while not table.scan_and_fill(0, word):
                pass
        q = 0
        while q < len(table.rows):
            if table.alive(q):
                for word in relators:
                    while not table.scan_and_fill(q, word):
                        if not table.alive(q):
                            break
                    if not table.alive(q):
                        break
                # complete the row: generators outside every relator still act
                if table.alive(q):
                    for x in range(table.ncols):
                        if table.rows[q][x] is None:
                            table.deduce(q, x, table.new_coset())
            q += 1
    except _Budget:
        return EnumResult(index=None, defined=table.defined, collapsed=table.collapsed)

    _verify_closed(table, relators, subgens)
    return EnumResult(index=len(table.live_cosets()), defined=table.defined, collapsed=table.collapsed)


def _verify_closed(table: _Table, relators: list[list[int]], subgens: list[list[int]]) -> None:
    """Deduction-consistency check of a finished table; raises :class:`EnumerationError`."""
    live = table.live_cosets()
    for c in live:
        for x in range(table.ncols):
            d = table.rows[c][x]
            if d is None or table.rows[table.find(d)][x ^ 1] is None:
                raise EnumerationError("incomplete coset table after closure")
    for c in live:
        for word in relators:
            cur = c
            for x in word:
                cur = table.find(table.rows[cur][x])
            if cur != c:
                raise EnumerationError("relator scan does not close")
    for word in subgens:
        cur = 0
        for x in word:
            cur = table.find(table.rows[cur][x])
        if cur != 0:
            raise EnumerationError("subgroup generator leaves coset 1")


def certify_trivial(
    p: Presentation, max_cosets: int = MAX_COSETS
) -> TrivialityCertificate | EnumResult:
    """Certify that the presented group is trivial, if it is.

    Returns a :class:`TrivialityCertificate` when enumeration of the trivial
    subgroup closes with index 1.  Otherwise the plain :class:`EnumResult`
    comes back: a closed index > 1 refutes triviality, ``index=None`` means
    the budget ran out and nothing was decided.
    """
    result = todd_coxeter(p, (), max_cosets)
    if result.index != 1:
        return result
    return TrivialityCertificate(p, result)
