"""Properties of ``symplectic_sum`` on random small states.

Each side draws its genus-g glued surface, whether that surface's meridian
is killed and flagged, its minimality, a few relators and a few more
surface marks whose ids may collide with the other side's marks, the other
side's glued id included.  Examples are derandomized, so every run draws
the same sums.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcalc.manifolds import ManifoldError, ManifoldState, Minimality, SurfaceMark, symplectic_sum
from sgcalc.presentations import Exactness, Presentation
from sgcalc.words import Alphabet

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
OTHER_IDS = ("A", "B", "C", "D")


@st.composite
def sides(draw, prefix: str, glued: str, genus: int):
    ab = Alphabet(tuple(f"{prefix}{i}" for i in range(2 * genus + draw(st.integers(0, 1)))))
    letter = st.tuples(st.sampled_from(ab.names), st.sampled_from((-1, 1)))
    relators = draw(st.lists(st.lists(letter, min_size=1, max_size=5).map(ab.word), max_size=3))
    killed = draw(st.booleans())
    boundary = tuple(ab.gen(n) for n in ab.names[: 2 * genus])
    marks = [SurfaceMark(glued, genus, 0, boundary, meridian_killed=killed,
                         meridian_killed_reason="meets an exceptional sphere" if killed else "",
                         no_minus_one_sphere_off_surface=killed and draw(st.booleans()))]
    for other in draw(st.lists(st.sampled_from([i for i in OTHER_IDS if i != glued]), max_size=2, unique=True)):
        marks.append(SurfaceMark(other, 1, 0, (ab.gen(ab.names[0]), ab.gen(ab.names[1]))))
    ids = [m.id for m in marks]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1]),
                          max_size=2, unique=True))
    minimality = draw(st.sampled_from(Minimality))
    return ManifoldState(
        pi1=Presentation(ab, tuple(relators), Exactness.SURJECTIVE_BOUND),
        euler=draw(st.integers(-4, 8)),
        signature=draw(st.integers(-4, 4)),
        symplectic=True,
        minimality=minimality,
        minimality_rules=("R1",) if minimality is Minimality.MINIMAL else (),
        surfaces=tuple(marks),
        transverse_pairs=tuple(pairs),
    )


@st.composite
def sums(draw):
    genus = draw(st.integers(1, 2))
    return draw(sides("a", "A", genus)), draw(sides("b", "B", genus)), genus


def _flagged(mark: SurfaceMark) -> bool:
    return mark.meridian_killed and mark.no_minus_one_sphere_off_surface


@PROPERTY
@given(sums())
def test_sum_invariants_marks_and_minimality(case):
    s1, s2, genus = case
    mark1, mark2 = s1.surface("A"), s2.surface("B")
    killed = mark1.meridian_killed or mark2.meridian_killed
    # a killed-meridian side goes second: the first is the host, the second the donor
    oriented = ((s1, "A"), (s2, "B"))
    if mark1.meridian_killed and not mark2.meridian_killed:
        oriented = oriented[::-1]
    (host, _), (donor, _) = oriented
    kept = [m.id for s, glued in oriented for m in s.surfaces if m.id != glued]
    pairing = tuple((i, i) for i in range(2 * genus))
    if (killed and len(donor.pi1.alphabet) > 2 * genus) or len(set(kept)) < len(kept):
        with pytest.raises(ManifoldError):
            symplectic_sum(s1, "A", s2, "B", pairing)
        return
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
    # each kept mark and pair comes from exactly one side and does not name that side's glued mark
    assert [m.id for m in out.surfaces] == kept
    assert out.transverse_pairs == tuple(pair for s, glued in oriented for pair in s.transverse_pairs
                                         if glued not in pair)

    r3 = (_flagged(mark2) and s1.minimality is Minimality.MINIMAL) or (
        _flagged(mark1) and s2.minimality is Minimality.MINIMAL)
    r2 = s1.minimality is Minimality.MINIMAL and s2.minimality is Minimality.MINIMAL
    assert (out.minimality is Minimality.MINIMAL) == (r3 or r2)
