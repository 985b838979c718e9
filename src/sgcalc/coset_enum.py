"""Todd-Coxeter coset enumeration (HLT strategy).

The procedures are those of Holt, Eick and O'Brien, *Handbook of
Computational Group Theory* (2005), §5.1-5.2: the HLT loop runs SCANANDFILL
(:meth:`_Table.scan_and_fill`) of every relator from every live coset in
order of definition, filling gaps with DEFINE (:meth:`_Table.define`) and
merging coincidences with COINCIDENCE (:meth:`_Table.coincide`) through a
union-find table.  COINCIDENCE undefines each back-pointer ``d.x^-1 = dead``
before it moves ``dead.x = d`` to the live representatives, so outside it
every entry ``c.x = d`` of a live row names a live coset ``d`` with
``d.x^-1 = c``.  The scan relies on this invariant and never calls ``find``;
:func:`_verify_closed` checks it on the finished table.  A closed table is a
permutation representation of the group on the cosets of the subgroup, so
the coset count is the exact index.  Identical inputs give identical tables.

Index 1 for the trivial subgroup certifies that the presented group - and
therefore anything it surjects onto - is trivial.
"""

from __future__ import annotations

from typing import Sequence

from .presentations import Presentation
from .records import Record, setfields
from .words import Word, cyclic_core


# Default cap on the cosets one enumeration may define.
MAX_COSETS = 100_000


class EnumerationError(ValueError):
    """Malformed input to the enumerator, or a closed table that fails its check."""


class EnumResult(Record):
    """Outcome of one enumeration.

    ``index`` is the subgroup index when the table closed, or ``None`` when
    the coset budget ran out first.  ``defined``/``collapsed`` count cosets
    ever created and cosets removed by coincidences.
    """

    __slots__ = ("index", "defined", "collapsed")

    def __init__(self, index: int | None, defined: int, collapsed: int):
        setfields(self, index, defined, collapsed)

    @property
    def found(self) -> bool:
        return self.index is not None


class TrivialityCertificate(Record):
    """An index-1 enumeration of the trivial subgroup of ``presentation``."""

    __slots__ = ("presentation", "result")

    def __init__(self, presentation: Presentation, result: EnumResult):
        setfields(self, presentation, result)


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

    def live_cosets(self) -> list[int]:
        return [c for c in range(len(self.rows)) if self.parent[c] == c]

    def define(self, c: int, x: int) -> None:
        """DEFINE (Handbook §5.1): a new coset ``d`` with ``c.x = d`` and ``d.x^-1 = c``."""
        d = self.new_coset()
        self.rows[c][x] = d
        self.rows[d][x ^ 1] = c

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

    def scan_and_fill(self, c: int, word: Sequence[int]) -> None:
        """SCANANDFILL (Handbook §5.2): trace ``word`` from live ``c`` back to ``c``.

        Forward and backward traces follow defined entries, which name live
        cosets by the table invariant; DEFINE fills the first gap while more
        than one letter is missing.  The scan ends with a closed trace, one
        deduction written in both directions, or a COINCIDENCE of the ends.
        """
        rows = self.rows
        i, j = 0, len(word) - 1
        f = b = c
        while True:
            while i <= j and rows[f][word[i]] is not None:
                f = rows[f][word[i]]
                i += 1
            while j >= i and rows[b][word[j] ^ 1] is not None:
                b = rows[b][word[j] ^ 1]
                j -= 1
            if j < i:
                if f != b:
                    self.coincide(f, b)
                return
            if j == i:
                rows[f][word[i]] = b
                rows[b][word[i] ^ 1] = f
                return
            self.define(f, word[i])


def todd_coxeter(
    p: Presentation, subgroup_gens: Sequence[Word] = (), max_cosets: int = MAX_COSETS
) -> EnumResult:
    """Enumerate cosets of the subgroup generated by ``subgroup_gens``.

    The run either closes with the exact index or stops once
    ``max_cosets`` cosets have been defined in total.
    """
    if max_cosets < 1:
        raise EnumerationError("max_cosets must be at least 1")
    for w in subgroup_gens:
        if w.alphabet != p.alphabet:
            raise EnumerationError(f"subgroup word {w} is not over the presentation alphabet")

    relators = [cyclic_core(r)[0].codes() for r in p.relators]
    subgens = [w.codes() for w in subgroup_gens]

    table = _Table(2 * p.ngens, max_cosets)
    try:
        for word in subgens:
            table.scan_and_fill(0, word)
        q = 0
        while q < len(table.rows):
            for word in relators:
                if table.parent[q] != q:
                    break
                table.scan_and_fill(q, word)
            # complete the row: generators outside every relator still act
            if table.parent[q] == q:
                for x in range(table.ncols):
                    if table.rows[q][x] is None:
                        table.define(q, x)
            q += 1
    except _Budget:
        return EnumResult(index=None, defined=table.defined, collapsed=table.collapsed)

    _verify_closed(table, relators, subgens)
    return EnumResult(index=len(table.live_cosets()), defined=table.defined, collapsed=table.collapsed)


def _verify_closed(table: _Table, relators: list[list[int]], subgens: list[list[int]]) -> None:
    """Deduction-consistency check of a finished table; raises :class:`EnumerationError`.

    It also checks, without ``find``, the invariant the scan relies on.
    """
    live = table.live_cosets()
    for c in live:
        for x in range(table.ncols):
            d = table.rows[c][x]
            if d is None or table.rows[d][x ^ 1] is None:
                raise EnumerationError("incomplete coset table after closure")
            if table.parent[d] != d or table.rows[d][x ^ 1] != c:
                raise EnumerationError("live coset row names a dead or unmatched coset")
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
