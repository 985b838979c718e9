"""Properties of ``symplectic_sum`` on random small states.

Each side draws its genus-g glued surface, whether that surface's meridian
is killed and flagged, its minimality rules, a few relators and a few more
surface marks whose ids may collide with the other side's marks, the other
side's glued id included.  Examples are derandomized, so every run draws
the same sums.
"""

from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcalc.manifolds import ManifoldError, ManifoldState, Minimality, SurfaceMark, symplectic_sum
from sgcalc.presentations import Exactness, Presentation
from sgcalc.words import Alphabet

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
OTHER_IDS = ("A", "B", "C", "D")
RULES = ((), ("R1",), ("R1", "R2"), ("R1", "R3"), ("R4",))


@st.composite
def sides(draw, prefix: str, glued: str, genus: int):
    ab = Alphabet(tuple(f"{prefix}{i}" for i in range(2 * genus + draw(st.integers(0, 1)))))
    letter = st.tuples(st.sampled_from(ab.names), st.sampled_from((-1, 1)))
    relators = draw(st.lists(st.lists(letter, min_size=1, max_size=5).map(ab.word), max_size=3))
    killed = draw(st.booleans())
    boundary = tuple(ab.gen(n) for n in ab.names[: 2 * genus])
    marks = [SurfaceMark(glued, genus, 0, boundary,
                         meridian_killed_reason="meets an exceptional sphere" if killed else "",
                         no_minus_one_sphere_off_surface=killed and draw(st.booleans()))]
    for other in draw(st.lists(st.sampled_from([i for i in OTHER_IDS if i != glued]), max_size=2, unique=True)):
        marks.append(SurfaceMark(other, 1, draw(st.integers(-1, 1)), (ab.gen(ab.names[0]), ab.gen(ab.names[1]))))
    ids = [m.id for m in marks]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1]),
                          max_size=2, unique=True))
    return ManifoldState(
        pi1=Presentation(ab, tuple(relators), Exactness.SURJECTIVE_BOUND),
        euler=draw(st.integers(-4, 8)),
        signature=draw(st.integers(-4, 4)),
        symplectic=True,
        minimality_rules=draw(st.sampled_from(RULES)),
        surfaces=tuple(marks),
        transverse_pairs=tuple(pairs),
    )


@st.composite
def sums(draw):
    genus = draw(st.integers(1, 2))
    return draw(sides("a", "A", genus)), draw(sides("b", "B", genus)), genus


def _flagged(mark: SurfaceMark) -> bool:
    return mark.meridian_killed and mark.no_minus_one_sphere_off_surface


def _check_sum(s1: ManifoldState, s2: ManifoldState, genus: int) -> str:
    """Check one sum against the model; name the branch it took."""
    mark1, mark2 = s1.surface("A"), s2.surface("B")
    killed = mark1.meridian_killed or mark2.meridian_killed
    # a killed-meridian side goes second: the first is the host, the second the donor
    oriented = ((s1, "A"), (s2, "B"))
    if mark1.meridian_killed and not mark2.meridian_killed:
        oriented = oriented[::-1]
    (host, _), (donor, _) = oriented
    host_prefix = host.pi1.alphabet.names[0][0]

    def words(side: ManifoldState, mark: SurfaceMark) -> tuple[str, ...]:
        # a killed sum sends donor generator i to host generator i (the pairing is the identity)
        moved = killed and side is donor
        return tuple(host_prefix + str(w)[1:] if moved else str(w) for w in mark.boundary_generators)

    # kept marks as (side, id, genus, self-intersection, boundary words)
    kept = [(n, m.id, m.genus, m.self_intersection, words(s, m))
            for n, (s, glued) in enumerate(oriented) for m in s.surfaces if m.id != glued]
    pairs = [pair for s, glued in oriented for pair in s.transverse_pairs if glued not in pair]
    crossing = [{i for pair in s.transverse_pairs if glued in pair for i in pair} - {glued} for s, glued in oriented]
    join = all(len(ids) == 1 for ids in crossing)
    if join:
        # the two halves become one mark in the first half's place
        a = next(k for k in kept if k[:2] == (0, *crossing[0]))
        b = next(k for k in kept if k[:2] == (1, *crossing[1]))
        name = a[1] if a[1] == b[1] else f"{a[1]}#{b[1]}"
        joined = (0, name, a[2] + b[2], a[3] + b[3], a[4] + b[4])
        kept = [joined if k is a else k for k in kept if k is not b]
        pairs = [tuple(name if i in (a[1], b[1]) else i for i in pair) for pair in pairs]
    ids = [k[1] for k in kept]

    pairing = tuple((i, i) for i in range(2 * genus))
    if (killed and len(donor.pi1.alphabet) > 2 * genus) or len(set(ids)) < len(ids):
        with pytest.raises(ManifoldError):
            symplectic_sum(s1, "A", s2, "B", pairing)
        return "refused"
    out = symplectic_sum(s1, "A", s2, "B", pairing)

    assert out.euler == s1.euler + s2.euler + 4 * genus - 4
    assert out.signature == s1.signature + s2.signature
    n1, n2 = s1.pi1.nrels, s2.pi1.nrels
    if killed:
        assert out.pi1.alphabet == host.pi1.alphabet
        assert out.pi1.nrels == n1 + n2
    else:
        assert out.pi1.alphabet.names == s1.pi1.alphabet.names + s2.pi1.alphabet.names
        assert out.pi1.nrels == n1 + n2 + 2 * genus
    # each kept mark and pair comes from one side and does not name that side's glued mark
    assert [(m.id, m.genus, m.self_intersection, tuple(map(str, m.boundary_generators))) for m in out.surfaces] == [
        k[1:] for k in kept]
    if join:
        assert not out.surface(joined[1]).meridian_killed
    assert out.transverse_pairs == tuple(pairs)

    r3 = (_flagged(mark2) and s1.minimality is Minimality.MINIMAL) or (
        _flagged(mark1) and s2.minimality is Minimality.MINIMAL)
    r2 = s1.minimality is Minimality.MINIMAL and s2.minimality is Minimality.MINIMAL
    assert out.minimality is (Minimality.MINIMAL if r3 or r2 else Minimality.UNKNOWN)
    assert out.minimality_rules[-1:] == (("R3",) if r3 else ("R2",) if r2 else ())
    return "join" if join else "kept"


def test_sum_invariants_marks_and_minimality():
    branches: Counter = Counter()

    @PROPERTY
    @given(sums())
    def run(case):
        branches[_check_sum(*case)] += 1

    run()
    # the join must be exercised, not just modelled
    assert branches["join"] > 0, branches
