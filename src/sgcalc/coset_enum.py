"""Todd-Coxeter coset enumeration: HLT definitions, Felsch deduction processing.

The procedures are those of Holt, Eick and O'Brien, *Handbook of
Computational Group Theory* (2005), §5.1-5.2: the HLT loop (:func:`_hlt`)
scans every relator from every live coset in order of definition, filling
gaps with DEFINE and merging coincidences with COINCIDENCE
(:func:`_coincide`) through a union-find forest.  Each deduction a scan
makes is then processed as in Felsch's strategy
(:func:`_process_deductions`): every cycle of a relator or its inverse
through the new entry is scanned without DEFINE, which fills single gaps
(further deductions) and finds coincidences long before HLT's row order
would reach them.  On the trivial groups the verdicts certify this defines
far fewer cosets; on finite groups of larger index each coset costs more
scans (Havas, "Coset enumeration strategies", ISSAC 1991, weighs such
mixed strategies).  Only HLT defines cosets, and the coset budget bounds
what it defines.  COINCIDENCE undefines
each back-pointer ``d.x^-1 = dead`` before it moves ``dead.x = d`` to the
live representatives, so outside it every entry ``c.x = d`` of a live coset
names a live coset ``d`` with ``d.x^-1 = c``.  The table is one list per
generator letter (a column), except that a cyclically reduced relator of two
letters, ``x y``, makes column ``x`` the same permutation as column
``y^-1`` in every table of the group, so the two letters share one list
(ACE stores an involution ``x^2`` once in the same way; Handbook ch. 5).  Such
a relator then holds by construction: HLT and the deduction scans skip it,
and a deduction on one letter of a shared column scans the cycles of all of
them.  A scan step reads one of the word's forward or inverse columns by
letter, COINCIDENCE, row completion and the first pass of
:func:`_verify_closed` walk one (column, inverse column) pair per distinct
list, and :func:`_verify_closed` walks every relator, the two-letter ones
too, without ``find`` once its first pass has shown that live cosets name
only live cosets.  A closed table is a
permutation representation of the group on the cosets of the subgroup, so
the coset count is the exact index.  Identical inputs give identical tables.

Index 1 for the trivial subgroup certifies that the presented group - and
therefore anything it surjects onto - is trivial.
"""

from __future__ import annotations

from typing import Sequence

from .presentations import Presentation
from .records import Record, setfields
from .words import Word, _cyclic_reduction, inverse_codes


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
    """The coset table: ``cols[x][c]`` is ``c.x`` (``None`` while undefined), ``parent`` the union-find
    forest of coincidences, ``len(parent)`` the cosets defined; columns start at min(``max_cosets``, 64)
    entries.

    A cyclically reduced relator ``x y`` of ``joins`` makes column ``x`` column ``y^-1`` and column
    ``x^-1`` column ``y``: letters joined so share one list, and ``classes[x]`` is the least letter
    sharing ``x``'s.  A class holding ``x`` and ``x^-1`` is an involution.  ``pairs`` holds each
    distinct list once, with its inverse column.
    """

    def __init__(self, ncols: int, max_cosets: int, joins: Sequence[Sequence[int]] = ()):
        self.max_cosets = max_cosets
        self.capacity = min(max_cosets, 64)
        classes = list(range(ncols))
        for x, y in joins:
            for u, v in (x, y ^ 1), (x ^ 1, y):
                u, v = _find(classes, u), _find(classes, v)
                classes[max(u, v)] = min(u, v)
        self.classes = [_find(classes, x) for x in range(ncols)]
        lists = {x: [None] * self.capacity for x in set(self.classes)}
        self.cols: list[list[int | None]] = [lists[x] for x in self.classes]
        self.pairs = [(self.cols[x], self.cols[x ^ 1]) for x in sorted(lists)]
        self.parent: list[int] = [0]

    def grow(self) -> int:
        """Double the columns in place, so lists naming them stay valid, up to ``max_cosets``.
        Raises :class:`_Budget` once they hold ``max_cosets`` entries."""
        n = self.capacity
        if n >= self.max_cosets:
            raise _Budget
        self.capacity = min(2 * n, self.max_cosets)
        for col, _ in self.pairs:
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


def _relator_scans(table: _Table, relators: list[Sequence[int]]) -> tuple[list[tuple], list[list[tuple]]]:
    """Each relator's scan, and for each letter ``x`` the distinct cyclic conjugates of every relator
    and of its inverse that begin with a letter sharing ``x``'s column, each without that letter.

    A scan is ``(forward columns, backward columns, first, last, letters)`` of a word written
    twice, read from position ``first`` to ``last``; the conjugates of a word share its lists.
    Letters sharing a column share one cycle list, since an entry of one is an entry of each.
    A two-letter relator is left out: its letters share a column, so it holds in every table.
    """
    cols, scans = table.cols, []
    shared: dict[int, list[tuple]] = {x: [] for x in table.classes}
    cycles = [shared[x] for x in table.classes]
    for r in relators:
        if len(r) == 2:
            continue
        n, text, twice = len(r), "".join(map(chr, r)), (*r, *r)
        period = (text + text).find(text, 1)  # r is a power of its first period letters: its distinct rotations
        fw, bw = [cols[y] for y in twice], [cols[y ^ 1] for y in twice]
        scans.append((fw, bw, 0, n - 1, twice))
        # r^-1 twice reads r's lists backwards, and in a free group no rotation of r is r^-1
        for gw, hw, letters in (fw, bw, twice), (bw[::-1], fw[::-1], inverse_codes(twice)):
            for k in range(period):
                cycles[letters[k]].append((gw, hw, k + 1, k + n - 1, letters))
    return scans, cycles


def _process_deductions(
    table: _Table, cycles: list[list[tuple]], stack: list[tuple[int, int]]
) -> None:
    """Felsch's deduction processing (Handbook §5.2) of the entries ``(c, x)`` on ``stack``.

    Each live ``c`` scans every cycle through ``c.x`` from ``c``: the conjugates in
    ``cycles[x]``, read from ``c.x``, which is re-read before each since a coincidence may
    have moved it.  A scan never DEFINEs: it fills a single gap, a new deduction that is
    stacked in turn, or merges the ends of a closed trace by COINCIDENCE, and it stops
    once ``c`` itself has merged away.
    """
    cols, pairs, parent = table.cols, table.pairs, table.parent
    while stack:
        c, x = stack.pop()
        if parent[c] != c:
            continue
        col = cols[x]
        for gw, hw, k, m, letters in cycles[x]:
            e = col[c]
            g = c
            while k <= m and (d := gw[k][e]) is not None:
                e, k = d, k + 1
            while m >= k and (d := hw[m][g]) is not None:
                g, m = d, m - 1
            if m < k:
                if e != g:
                    _coincide(pairs, parent, e, g)
                    if parent[c] != c:
                        break
            elif m == k:
                gw[k][e] = g
                hw[k][g] = e
                stack.append((e, letters[k]))


def _hlt(table: _Table, subgens: list[Sequence[int]], relators: list[Sequence[int]]) -> None:
    """The HLT loop on ``table`` (Handbook §5.2) with Felsch's deduction processing; raises :class:`_Budget`.

    Coset 0 scans the subgroup generators, then every live coset in order of
    definition scans every relator and completes its row.  SCANANDFILL runs
    inline: it traces a word from live ``q`` forwards and backwards along
    defined entries, which name live cosets by the table invariant, DEFINEs
    the first gap while more than one letter is missing, and ends with a
    closed trace, one deduction written in both directions, or a
    COINCIDENCE of the ends.  :func:`_process_deductions` then scans every
    cycle through such a deduction, and through the deductions that follow.
    """
    cols, pairs, parent, cap = table.cols, table.pairs, table.parent, table.capacity
    relator_words, cycles = _relator_scans(table, relators)
    # each subgroup word's forward and backward columns, its first and last position and its letters
    words = [([cols[x] for x in w], [cols[x ^ 1] for x in w], 0, len(w) - 1, w) for w in subgens] + relator_words
    q, scans = 0, words  # coset 0 never merges away, so it scans the subgroup words first
    while q < len(parent):
        if parent[q] == q:
            for fw, bw, i, j, letters in scans:
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
                        _process_deductions(table, cycles, [(f, letters[i])])
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

    table = _Table(2 * p.ngens, max_cosets, [r for r in relators if len(r) == 2])
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
