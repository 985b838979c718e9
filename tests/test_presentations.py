import random
from itertools import combinations
from math import gcd

import pytest

from sgcalc import presentations
from sgcalc.presentations import (
    Exactness,
    Presentation,
    PresentationError,
    abelianize,
    commutation_normal_form,
    commuting_pairs,
    homology_invariants,
    prune_redundant,
    quotient_by,
    simple_commutator_pair,
    smith_normal_form,
    solve_relator,
)
from sgcalc.words import Alphabet, commutator


def stq_alphabet():
    return Alphabet(("s1", "t1", "s2", "t2"))


def v_presentation():
    ab = stq_alphabet()
    s1, t1, s2, t2 = (ab.gen(n) for n in ab.names)
    return Presentation(
        ab,
        (
            commutator(s1, t1),
            commutator(s2, t2),
            commutator(s1, s2),
            commutator(t1, s2),
            commutator(~t2, ~t1) * ~s1,
            commutator(~t2, ~s1) * ~s2,
        ),
        Exactness.SURJECTIVE_BOUND,
    )


# -- quotients ----------------------------------------------------------------

def test_quotient_by_adds_relators():
    ab = Alphabet(("x",))
    p = Presentation(ab)
    q = quotient_by(p, [ab.gen("x")])
    assert q.nrels == 1 and q.alphabet == ab
    assert quotient_by(p, []) == p


def test_quotient_by_foreign_symbols():
    p = Presentation(Alphabet(("x",)))
    other = Alphabet(("y",))
    with pytest.raises(PresentationError):
        quotient_by(p, [other.gen("y")])


def test_quotient_preserves_exactness_and_counts():
    p = v_presentation()
    q = quotient_by(p, [p.alphabet.gen("s1")])
    assert q.exactness is Exactness.SURJECTIVE_BOUND
    assert q.nrels == p.nrels + 1


# -- relator utilities --------------------------------------------------------

def test_solve_relator():
    ab = Alphabet(("x", "y"))
    x, y = ab.gen("x"), ab.gen("y")
    # x y^-1 = 1 solves to y = x
    assert solve_relator(x * ~y, "y") == x
    assert solve_relator(x * ~y, "x") == y
    with pytest.raises(PresentationError):
        solve_relator(commutator(x, y), "x")


def test_commutation_rewriting():
    ab = stq_alphabet()
    s1, t1, s2, t2 = (ab.gen(n) for n in ab.names)
    assert simple_commutator_pair(commutator(t1, s2)) == ("t1", "s2")
    assert simple_commutator_pair(commutator(t1, t2 * s2 * ~t2)) is None
    pairs = commuting_pairs([commutator(s2, t2), commutator(t1, s2)])
    nf = commutation_normal_form(commutator(t1, t2 * s2 * ~t2), pairs)
    assert nf.is_identity


def test_prune_redundant_drops_conjugated_restatement():
    ab = stq_alphabet()
    s1, t1, s2, t2 = (ab.gen(n) for n in ab.names)
    relators = [
        commutator(s1, t1),
        commutator(s2, t2),
        commutator(s1, s2),
        commutator(t1, s2),
        commutator(t1, t2 * s2 * ~t2),
    ]
    assert prune_redundant(relators) == relators[:4]


# -- abelianization -----------------------------------------------------------

def test_abelianize_power():
    ab = Alphabet(("x",))
    p = Presentation(ab, (ab.gen("x", 3),))
    assert abelianize(p) == [[3]]


def test_abelianize_surgery_relator_row():
    ab = stq_alphabet()
    relator = commutator(ab.gen("t2", -1), ab.gen("t1", -1)) * ab.gen("s1", -1)
    p = Presentation(ab, (relator,))
    assert abelianize(p) == [[-1, 0, 0, 0]]


def test_abelianize_v_presentation():
    rows = abelianize(v_presentation())
    assert rows == [
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, -1, 0],
    ]


def test_commutator_rows_are_zero(xyab):
    rng = random.Random(7)
    from conftest import random_word

    for _ in range(50):
        u, v = random_word(rng, xyab), random_word(rng, xyab)
        p = Presentation(xyab, (commutator(u, v),))
        assert abelianize(p) == [[0, 0, 0, 0]]


# -- Smith normal form --------------------------------------------------------

def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def minor_gcd_factors(m):
    """Independent oracle: d_k = gcd(k x k minors) / gcd((k-1) minors)."""
    rows, cols = len(m), len(m[0]) if m else 0
    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                g = gcd(g, _det([[m[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def test_snf_examples():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([]) == []
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    # diagonals that are not a divisibility chain
    assert smith_normal_form([[4, 0], [0, 6]]) == [2, 12]
    assert smith_normal_form([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == [1, 2, 12]
    assert smith_normal_form([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == [1, 30, 30]


def test_snf_of_v_abelianization():
    assert smith_normal_form(abelianize(v_presentation())) == [1, 1]


def test_snf_matches_minor_gcd_oracle_randomized():
    rng = random.Random(314159)
    for _ in range(300):
        m = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(4)]
        factors = smith_normal_form(m)
        assert factors == minor_gcd_factors(m)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_snf_large_entries_no_overflow():
    big = 10**30
    assert smith_normal_form([[big, 0], [0, 2 * big]]) == [big, 2 * big]


@pytest.mark.parametrize("matrix", [[[1.5, 0], [0, 2.9]], [["3"]], [[True, 0]], [[2, 0], [0, 3.0]]])
def test_snf_takes_int_entries_only(matrix):
    # truncating 1.5 and 2.9 read [1, 2]; int("3") read [3]
    with pytest.raises(ValueError, match="is not an int"):
        smith_normal_form(matrix)


def _count_least_pivots(monkeypatch) -> list:
    """The rows at each non-unit pivot step, as ``_least_pivot`` is handed them."""
    calls = []
    least = presentations._least_pivot
    monkeypatch.setattr(presentations, "_least_pivot", lambda rows: calls.append([dict(r) for r in rows]) or least(rows))
    return calls


def test_a_least_pivot_runs_only_on_what_unit_pivots_leave(monkeypatch):
    calls = _count_least_pivots(monkeypatch)
    assert smith_normal_form([[1, 0, 0], [0, 2, 4], [3, 6, 8]]) == [1, 2, 4]
    assert calls[0] == [{1: 2, 2: 4}, {1: 6, 2: 8}]  # the unit's row and column are gone
    calls.clear()
    assert smith_normal_form([[2, 1], [3, 1]]) == [1, 1]
    assert calls == []  # the first pivot leaves [1, 0] in the second row, a unit


def test_h1_of_the_paper_blocks_and_the_drop_family_takes_unit_pivots_alone(monkeypatch):
    """H1 of X, its blocks and X less each relation that kills a free Z
    takes no non-unit pivot: a work count the same on every machine."""
    from sgcalc import construction

    groups = [getattr(construction, f"build_{b}")().pi1 for b in ("x", "v", "w", "p1", "p2", "p")]
    x = groups[0]
    drops = [Presentation(x.alphabet, x.relators[: k - 1] + x.relators[k:]) for k in (1, 2, 7, 8, 13, 14, 19, 20)]
    calls = _count_least_pivots(monkeypatch)
    answers = [homology_invariants(p) for p in groups + drops]
    assert calls == []
    assert answers[0] == (0, []) and all(a == (1, []) for a in answers[6:])


# -- homology -----------------------------------------------------------------

def test_homology_invariants():
    trivial = Presentation(Alphabet(()))
    assert homology_invariants(trivial) == (0, [])
    ab = Alphabet(("x",))
    assert homology_invariants(Presentation(ab, (ab.gen("x", 3),))) == (0, [3])
    assert homology_invariants(v_presentation()) == (2, [])
    free = Presentation(Alphabet(("x", "y")))
    assert homology_invariants(free) == (2, [])
