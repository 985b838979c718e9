"""Todd-Coxeter coset enumeration (HLT strategy).

The procedures are those of Holt, Eick and O'Brien, *Handbook of
Computational Group Theory* (2005), §5.1-5.2: the HLT loop (:func:`_hlt`)
scans every relator from every live coset in order of definition, filling
gaps with DEFINE and merging coincidences with COINCIDENCE
(:func:`_coincide`) through a union-find forest.  COINCIDENCE undefines
each back-pointer ``d.x^-1 = dead`` before it moves ``dead.x = d`` to the
live representatives, so outside it every entry ``c.x = d`` of a live coset
names a live coset ``d`` with ``d.x^-1 = c``.  The table is one list per
generator letter (a column): a scan step reads one of the word's forward or
inverse columns, COINCIDENCE walks (column, inverse column) pairs, and
:func:`_verify_closed` walks relators without ``find`` once its first pass
has shown that live cosets name only live cosets.  A closed table is a
permutation representation of the group on the cosets of the subgroup, so
the coset count is the exact index.  Identical inputs give identical tables.

Index 1 for the trivial subgroup certifies that the presented group - and
therefore anything it surjects onto - is trivial.
"""

from __future__ import annotations

from typing import Sequence

from .presentations import Presentation
from .records import Record, setfields
from .words import Word, _cyclic_reduction


# Default and largest coset budget: a coset costs about 150 bytes at 8 generators.
MAX_COSETS = 100_000
MAX_COSETS_CEILING = 1_000_000


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
    """The coset table: ``cols[x][c]`` is ``c.x`` (``None`` while undefined), ``pairs[x]`` is column ``x``
    with its inverse column ``x ^ 1``, ``parent`` the union-find forest of coincidences, ``len(parent)``
    the cosets defined; columns start at min(``max_cosets``, 64) entries."""

    def __init__(self, ncols: int, max_cosets: int):
        self.max_cosets = max_cosets
        self.capacity = min(max_cosets, 64)
        self.cols: list[list[int | None]] = [[None] * self.capacity for _ in range(ncols)]
        self.pairs = [(col, self.cols[x ^ 1]) for x, col in enumerate(self.cols)]
        self.parent: list[int] = [0]

    def grow(self) -> int:
        """Double the columns in place, so lists naming them stay valid, up to ``max_cosets``.
        Raises :class:`_Budget` once they hold ``max_cosets`` entries."""
        n = self.capacity
        if n >= self.max_cosets:
            raise _Budget
        self.capacity = min(2 * n, self.max_cosets)
        for col in self.cols:
            col.extend([None] * (self.capacity - n))
        return self.capacity

    def live_cosets(self) -> list[int]:
        return [c for c, r in enumerate(self.parent) if c == r]


def _find(parent: list[int], c: int) -> int:
    """The root of ``c``, with the path from ``c`` compressed onto it."""
    root = c
    while parent[root] != root:
        root = parent[root]
    while parent[c] != root:
        parent[c], c = root, parent[c]
    return root


def _coincide(pairs: list[tuple[list, list]], parent: list[int], a: int, b: int) -> None:
    """Merge distinct live cosets ``a`` and ``b`` and every coincidence they force.

    Handbook of Computational Group Theory, §5.1 (COINCIDENCE), on ``pairs`` of each
    column and its inverse.  Each merge keeps the lesser coset and queues the other.
    """
    queue = [max(a, b)]
    parent[queue[0]] = min(a, b)
    while queue:
        dead = queue.pop()
        for col, icol in pairs:
            d = col[dead]
            if d is None:
                continue
            col[dead] = None
            # Undefine d.x^-1 = dead first: left in place, it would make
            # the lookup below resolve to mu itself and drop mu.x = nu.
            if icol[d] == dead:
                icol[d] = None
            mu = parent[dead]
            if parent[mu] != mu:
                mu = _find(parent, dead)
            nu = d if parent[d] == d else _find(parent, d)
            u, v = nu, col[mu]
            if v is None:
                u, v = mu, icol[nu]
                if v is None:
                    col[mu] = nu
                    icol[nu] = mu
                    continue
            if parent[v] != v:
                v = _find(parent, v)
            if u != v:
                if u > v:
                    u, v = v, u
                parent[v] = u
                queue.append(v)


def _hlt(table: _Table, subgens: list[Sequence[int]], relators: list[Sequence[int]]) -> None:
    """The HLT loop on ``table`` (Handbook §5.2); raises :class:`_Budget`.

    Coset 0 scans the subgroup generators, then every live coset in order of
    definition scans every relator and completes its row.  SCANANDFILL runs
    inline: it traces a word from live ``q`` forwards and backwards along
    defined entries, which name live cosets by the table invariant, DEFINEs
    the first gap while more than one letter is missing, and ends with a
    closed trace, one deduction written in both directions, or a
    COINCIDENCE of the ends.
    """
    pairs, parent, cap = table.pairs, table.parent, table.capacity
    # each word's forward and backward columns, and its last position
    words = [([pairs[x][0] for x in w], [pairs[x][1] for x in w], len(w) - 1) for w in subgens + relators]
    relator_words = words[len(subgens) :]
    q, scans = 0, words  # coset 0 never merges away, so it scans the subgroup words first
    while q < len(parent):
        if parent[q] == q:
            for fw, bw, last in scans:
                i, j = 0, last
                f = b = q
                while True:
                    while i <= j and (d := fw[i][f]) is not None:
                        f, i = d, i + 1
                    while j >= i and (d := bw[j][b]) is not None:
                        b, j = d, j - 1
                    if j < i:
                        if f != b:
                            _coincide(pairs, parent, f, b)
                        break
                    if j == i:
                        fw[i][f] = b
                        bw[i][b] = f
                        break
                    if (d := len(parent)) == cap:  # DEFINE f.x = d, d.x^-1 = f
                        cap = table.grow()
                    fw[i][f] = d
                    bw[i][d] = f
                    parent.append(d)
                    f, i = d, i + 1
                if parent[q] != q:
                    break
            else:  # complete the row: generators outside every relator still act
                for col, icol in pairs:
                    if col[q] is None:  # DEFINE q.x = d, d.x^-1 = q
                        if (d := len(parent)) == cap:
                            cap = table.grow()
                        col[q] = d
                        icol[d] = q
                        parent.append(d)
        q += 1
        scans = relator_words


def check_max_cosets(max_cosets: int) -> None:
    """Refuse a coset budget that is not an ``int`` from 1 to :data:`MAX_COSETS_CEILING`."""
    if type(max_cosets) is not int or not 1 <= max_cosets <= MAX_COSETS_CEILING:
        raise EnumerationError(f"max_cosets must be an int from 1 to {MAX_COSETS_CEILING}")


def todd_coxeter(
    p: Presentation, subgroup_gens: Sequence[Word] = (), max_cosets: int = MAX_COSETS
) -> EnumResult:
    """Enumerate cosets of the subgroup generated by ``subgroup_gens``.

    The run either closes with the exact index or stops once
    ``max_cosets`` cosets have been defined in total.  ``max_cosets`` must
    be an ``int`` from 1 to :data:`MAX_COSETS_CEILING`.
    """
    check_max_cosets(max_cosets)
    for w in subgroup_gens:
        if w.alphabet is not p.alphabet and w.alphabet != p.alphabet:
            raise EnumerationError(f"subgroup word {w} is not over the presentation alphabet")

    relators = [_cyclic_reduction(r._codes)[1] for r in p.relators]
    subgens = [w.codes() for w in subgroup_gens]

    table = _Table(2 * p.ngens, max_cosets)
    parent = table.parent
    try:
        _hlt(table, subgens, relators)
    except _Budget:  # len(parent) counts the cosets defined, non-roots those collapsed
        return EnumResult(None, len(parent), sum(c != r for c, r in enumerate(parent)))
    index = _verify_closed(table, relators, subgens)
    return EnumResult(index, len(parent), len(parent) - index)


def _verify_closed(table: _Table, relators: list[Sequence[int]], subgens: list[Sequence[int]]) -> int:
    """Check a finished table's deductions and return its live coset count; raises :class:`EnumerationError`.

    The first pass checks the invariant the scan relies on: each live coset has an
    entry in every column, naming a live coset that points back.  So no walk needs ``find``.
    """
    cols, pairs, parent = table.cols, table.pairs, table.parent
    live = table.live_cosets()
    for c in live:
        for col, icol in pairs:
            d = col[c]
            if d is None or icol[d] is None:
                raise EnumerationError("incomplete coset table after closure")
            if parent[d] != d or icol[d] != c:
                raise EnumerationError("live coset row names a dead or unmatched coset")
    checks = (relators, live, "relator scan does not close"), (subgens, [0], "subgroup generator leaves coset 1")
    for words, starts, message in checks:
        for word in words:
            path = [cols[x] for x in word]
            for c in starts:
                d = c
                for col in path:
                    d = col[d]
                if d != c:
                    raise EnumerationError(message)
    return len(live)


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
