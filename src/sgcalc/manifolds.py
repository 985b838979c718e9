"""Manifold states and the cut-and-paste moves that transform them.

A state is a fundamental-group presentation (usually a surjective bound)
together with exact integer invariants, flags, and marked surfaces/tori.
Minimality is rule-based metadata, never computed geometry:

  R1  a block built from the four-torus by surgery on each of its two
      marked Lagrangian tori, along a single push-off direction each time,
      is minimal (the result fibers as a circle bundle, so it carries no
      essential spheres);
  R2  the symplectic sum of two minimal states along surfaces of positive
      genus is minimal (Usher);
  R3  a sum along surfaces of positive genus is minimal when one side's
      glued surface has a killed meridian and is flagged (by ``blow_up``
      alone) as meeting every embedded -1 sphere of that side, and the other
      side (the one glued to it) is minimal;
  R4  a blowup is never minimal (it contains exceptional spheres).

Anything else is Unknown.  A state's minimality is what the last of its
rules concludes, so no state is minimal without citing a rule.  Parity
upgrades to Odd whenever the signature is not divisible by 8, since an even
unimodular intersection pairing forces 8 | signature.
"""

from __future__ import annotations

import enum
from math import gcd

from .coset_enum import TrivialityCertificate
from .presentations import Exactness, Presentation, quotient_by
from .records import Record, setfields, shown
from .words import Word, merge_alphabets, substitute


class ManifoldError(ValueError):
    """Violated preconditions of a construction move."""


class Minimality(enum.Enum):
    MINIMAL = "minimal"
    NOT_MINIMAL = "not-minimal"
    UNKNOWN = "unknown"


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    UNKNOWN = "unknown"


class SurfaceMark(Record):
    """An embedded surface remembered by id.

    ``boundary_generators`` are the images of the standard symplectic
    generating set of the surface (2g words).  The normal bundle is trivial
    exactly when the recorded self-intersection is 0.  The meridian is
    killed exactly when ``meridian_killed_reason`` says why.
    """

    __slots__ = ("id", "genus", "self_intersection", "boundary_generators", "meridian_killed_reason",
                 "no_minus_one_sphere_off_surface")

    def __init__(self, id: str, genus: int, self_intersection: int, boundary_generators: tuple[Word, ...],
                 meridian_killed_reason: str = "", no_minus_one_sphere_off_surface: bool = False):
        if genus < 0:
            raise ManifoldError("genus must be nonnegative")
        if len(boundary_generators) != 2 * genus:
            raise ManifoldError(f"surface {id!r} of genus {genus} needs {2 * genus} boundary generators")
        setfields(self, id, genus, self_intersection, boundary_generators, meridian_killed_reason,
                  no_minus_one_sphere_off_surface)

    @property
    def meridian_killed(self) -> bool:
        return bool(self.meridian_killed_reason)

    @property
    def normal_bundle(self) -> str:
        return "trivial" if self.self_intersection == 0 else "other"


class LagrangianTorusMark(Record):
    """A Lagrangian torus with meridian and the two push-off directions."""

    __slots__ = ("id", "mu", "m", "l")

    def __init__(self, id: str, mu: Word, m: Word, l: Word):
        setfields(self, id, mu, m, l)


class ManifoldState(Record):
    """A presentation with exact invariants, flags and marks.

    Every mark's words are over the presentation's alphabet, no two surface
    marks and no two torus marks share an id, and every transverse pair
    names two of the state's surfaces.
    """

    __slots__ = ("pi1", "euler", "signature", "symplectic", "minimality_rules", "parity",
                 "surfaces", "tori", "transverse_pairs", "two_torus_pattern", "name")

    def __init__(self, pi1: Presentation, euler: int, signature: int, symplectic: bool,
                 minimality_rules: tuple[str, ...] = (), parity: Parity = Parity.UNKNOWN,
                 surfaces: tuple[SurfaceMark, ...] = (), tori: tuple[LagrangianTorusMark, ...] = (),
                 transverse_pairs: tuple[tuple[str, str], ...] = (), two_torus_pattern: bool = False, name: str = ""):
        for kind, marks in (("surface", surfaces), ("torus", tori)):
            for mark in marks:
                words = mark.boundary_generators if kind == "surface" else (mark.mu, mark.m, mark.l)
                if any(w.alphabet is not pi1.alphabet and w.alphabet != pi1.alphabet for w in words):
                    raise ManifoldError(f"{kind} {mark.id!r} carries foreign words")
            ids = [m.id for m in marks]
            if len(set(ids)) < len(ids):
                raise ManifoldError(f"two {kind} marks share an id: {sorted({i for i in ids if ids.count(i) > 1})}")
        surface_ids = {m.id for m in surfaces}
        for pair in transverse_pairs:
            if not surface_ids.issuperset(pair):
                raise ManifoldError(f"transverse pair {pair!r} names a surface the state lacks")
        setfields(self, pi1, euler, signature, symplectic, minimality_rules, parity, surfaces,
                  tori, transverse_pairs, two_torus_pattern, name)

    @property
    def minimality(self) -> Minimality:
        """What the last of ``minimality_rules`` concludes: R4 not minimal, R1-R3 minimal, none unknown."""
        if not self.minimality_rules:
            return Minimality.UNKNOWN
        return Minimality.NOT_MINIMAL if self.minimality_rules[-1] == "R4" else Minimality.MINIMAL

    def surface(self, surface_id: str) -> SurfaceMark:
        for mark in self.surfaces:
            if mark.id == surface_id:
                return mark
        raise ManifoldError(f"unknown surface {shown(surface_id)}")

    def torus(self, torus_id: str) -> LagrangianTorusMark:
        for mark in self.tori:
            if mark.id == torus_id:
                return mark
        known = f"tori {[t.id for t in self.tori]}" if self.tori else "no Lagrangian torus marks"
        raise ManifoldError(f"unknown torus {shown(torus_id)}: this state has {known}")


class HomeoType(Record):
    """Homeomorphism type of a simply connected odd-form 4-manifold."""

    __slots__ = ("b_plus", "b_minus", "description", "exotic_note")

    def __init__(self, b_plus: int, b_minus: int, description: str, exotic_note: str = ""):
        setfields(self, b_plus, b_minus, description, exotic_note)


def _parity_from_signature(signature: int) -> Parity:
    return Parity.ODD if signature % 8 else Parity.UNKNOWN


def luttinger(s: ManifoldState, torus_id: str, p: int, q: int, k: int) -> ManifoldState:
    """1/k surgery on a marked Lagrangian torus along ``p*m + q*l``.

    The fundamental group is quotiented by the normal closure of
    ``mu * m^(k*p) * l^(k*q)``; Euler characteristic, signature and
    symplecticity are untouched, and the consumed torus mark is removed.
    The sign of ``k`` is the caller's orientation choice.
    """
    mark = s.torus(torus_id)
    if k == 0:
        raise ManifoldError("surgery coefficient k must be nonzero")
    if gcd(p, q) != 1:
        raise ManifoldError(f"surgery direction ({p}, {q}) must be coprime")
    relator = mark.mu * mark.m ** (k * p) * mark.l ** (k * q)
    pure_direction = (abs(p), abs(q)) in ((1, 0), (0, 1))
    tori = tuple(t for t in s.tori if t.id != torus_id)
    pattern = s.two_torus_pattern and pure_direction
    rules = s.minimality_rules
    if s.minimality is not Minimality.NOT_MINIMAL:
        rules = ("R1",) if pattern and not tori else ()
    return s.replace(
        pi1=quotient_by(s.pi1, [relator]),
        tori=tori,
        two_torus_pattern=pattern,
        minimality_rules=rules,
        parity=_parity_from_signature(s.signature),
        name="",
    )


def blow_up(s: ManifoldState, on_surface: str | None = None, count: int = 1) -> ManifoldState:
    """Connected sum with ``count`` reversed projective planes.

    e rises and the signature drops by ``count``; the form goes odd and the
    state is no longer minimal (R4).  Blowing up on a marked surface kills
    its meridian (it now meets an exceptional sphere once) and lowers its
    recorded self-intersection.  Only this move sets R3's flag: the surface
    blown up on keeps it, or gains it when the state was minimal (then every
    -1 sphere meets it: Usher's hypothesis); every other surface loses it.
    """
    if count < 1:
        raise ManifoldError("blowup count must be positive")
    surfaces = tuple(m.replace(no_minus_one_sphere_off_surface=False) for m in s.surfaces)
    if on_surface is not None:
        mark = s.surface(on_surface)
        updated = mark.replace(
            meridian_killed_reason="meets an exceptional sphere transversally once",
            self_intersection=mark.self_intersection - count,
            no_minus_one_sphere_off_surface=s.minimality is Minimality.MINIMAL
            or mark.no_minus_one_sphere_off_surface,
        )
        surfaces = tuple(updated if m.id == on_surface else m for m in surfaces)
    return s.replace(
        euler=s.euler + count,
        signature=s.signature - count,
        parity=Parity.ODD,
        minimality_rules=("R4",),
        surfaces=surfaces,
        name="",
    )


def resolve_intersection(
    s: ManifoldState, surface_a: str, surface_b: str, new_id: str | None = None
) -> ManifoldState:
    """Merge two once-transversally-meeting surfaces into one.

    The genera add, the boundary generator lists concatenate, and the new
    self-intersection gains 2 from the smoothed intersection point.  The
    ambient manifold is untouched.  An exceptional sphere that met either
    surface once meets the merged one once, so the merged surface keeps
    either side's killed meridian, and R3's flag if either side has it.
    Every transverse pair naming either surface is dropped, and the new id
    must not already be taken.
    """
    a, b = s.surface(surface_a), s.surface(surface_b)
    if (surface_a, surface_b) not in s.transverse_pairs and (surface_b, surface_a) not in s.transverse_pairs:
        raise ManifoldError(f"surfaces {shown(surface_a)} and {shown(surface_b)} are not marked as meeting once")
    merged = SurfaceMark(
        id=new_id or f"{surface_a}+{surface_b}",
        genus=a.genus + b.genus,
        self_intersection=a.self_intersection + b.self_intersection + 2,
        boundary_generators=a.boundary_generators + b.boundary_generators,
        meridian_killed_reason=a.meridian_killed_reason or b.meridian_killed_reason,
        no_minus_one_sphere_off_surface=a.no_minus_one_sphere_off_surface or b.no_minus_one_sphere_off_surface,
    )
    keep = tuple(m for m in s.surfaces if m.id not in (surface_a, surface_b))
    pairs = tuple(pair for pair in s.transverse_pairs if surface_a not in pair and surface_b not in pair)
    return s.replace(surfaces=keep + (merged,), transverse_pairs=pairs, name="")


def _paired_words(
    mark1: SurfaceMark, mark2: SurfaceMark, pairing: tuple[tuple[int, int], ...]
) -> list[tuple[Word, Word]]:
    n = 2 * mark1.genus
    if sorted(i for i, _ in pairing) != list(range(n)) or sorted(
        j for _, j in pairing
    ) != list(range(n)):
        raise ManifoldError("pairing must match up all boundary generators of both surfaces")
    return [(mark1.boundary_generators[i], mark2.boundary_generators[j]) for i, j in pairing]


def symplectic_sum(
    s1: ManifoldState,
    surface1: str,
    s2: ManifoldState,
    surface2: str,
    pairing: tuple[tuple[int, int], ...],
) -> ManifoldState:
    """Glue two states along same-genus surfaces with trivial normal bundles.

    e(sum) = e1 + e2 - 2(2 - 2g) and signatures add; the result presents a
    group surjecting onto the sum's fundamental group.  The sum orients
    itself so that a side whose surface has a killed meridian comes second.
    Only the result alphabet and the images of each side's generators
    depend on the case.  With a killed second side the first side's
    alphabet is kept and each generator of the second side, all of which
    must be paired boundary letters, goes to its partner's word.  Otherwise
    the alphabets union, each side maps identically, and the pairing adds
    identification relators.  Each side then brings its own relators, its
    surface marks but the glued one, and its transverse pairs not naming the
    glued surface, all moved through its images; a kept mark keeps R3's flag
    only if the other side is minimal (a -1 sphere there would miss it).  If
    each side has one kept mark meeting its glued surface once, the halves
    join (Gompf) in the first half's place: genera and self-intersections
    add, boundary words concatenate, and the id is the halves' shared id or
    ``a#b``.
    """
    mark1, mark2 = s1.surface(surface1), s2.surface(surface2)
    if mark1.genus != mark2.genus:
        raise ManifoldError(f"genus mismatch: {mark1.genus} vs {mark2.genus}")
    for mark in (mark1, mark2):
        if mark.self_intersection != 0:
            raise ManifoldError(
                f"surface {mark.id!r} has self-intersection {mark.self_intersection}, "
                "not a trivial normal bundle"
            )
    genus = mark1.genus
    euler = s1.euler + s2.euler - 2 * (2 - 2 * genus)
    signature = s1.signature + s2.signature
    # R3 reads the side across from the flagged surface, the second argument's side
    # first; R2 lists the rules in argument order.  Both need genus > 0 and come before orienting.
    rules: tuple[str, ...] = ()
    r3 = [other for mark, other in ((mark2, s1), (mark1, s2)) if mark.meridian_killed
          and mark.no_minus_one_sphere_off_surface and other.minimality is Minimality.MINIMAL]
    if genus and r3:
        rules = r3[0].minimality_rules + ("R3",)
    elif genus and s1.minimality is Minimality.MINIMAL and s2.minimality is Minimality.MINIMAL:
        rules = tuple(dict.fromkeys(s1.minimality_rules + s2.minimality_rules)) + ("R2",)
    if mark1.meridian_killed and not mark2.meridian_killed:
        s1, surface1, mark1, s2, surface2, mark2 = s2, surface2, mark2, s1, surface1, mark1
        pairing = tuple((j, i) for i, j in pairing)
    pairs = _paired_words(mark1, mark2, pairing)

    # each side's generator images over the result alphabet; None keeps its words as they are
    if mark2.meridian_killed:
        alphabet = s1.pi1.alphabet
        donor: dict[str, Word] = {}
        for host_word, donor_word in pairs:
            letter = donor_word.as_letter()
            if letter is None:
                raise ManifoldError("killed-meridian sum needs single-generator boundary words "
                                    f"on the {mark2.id!r} side")
            name, exp = letter
            donor[name] = host_word**exp
        unpaired = [n for n in s2.pi1.alphabet.names if n not in donor]
        if unpaired:
            raise ManifoldError(f"killed-meridian side {mark2.id!r} has generators off the glued surface: {unpaired}")
        images, identified = (None, donor), []
    else:
        alphabet = merge_alphabets(s1.pi1.alphabet, s2.pi1.alphabet)
        images = tuple(None if s.pi1.alphabet == alphabet else {n: alphabet.gen(n) for n in s.pi1.alphabet.names}
                       for s in (s1, s2))
        identified = pairs

    def move(w: Word, side_images: dict[str, Word] | None) -> Word:
        return w if side_images is None else substitute(w, side_images, alphabet)

    relators: list[Word] = []
    surfaces: list[SurfaceMark] = []
    transverse: list[tuple[str, str]] = []
    halves: list[list[SurfaceMark]] = []  # each side's kept marks that meet its glued surface once
    for side, glued, side_images, other in zip((s1, s2), (surface1, surface2), images, (s2, s1)):
        relators += (move(r, side_images) for r in side.pi1.relators)
        marks = [m.replace(boundary_generators=tuple(move(w, side_images) for w in m.boundary_generators),
                           no_minus_one_sphere_off_surface=m.no_minus_one_sphere_off_surface
                           and other.minimality is Minimality.MINIMAL)
                 for m in side.surfaces if m.id != glued]
        halves.append([m for m in marks if {m.id, glued} in map(set, side.transverse_pairs)])
        surfaces += marks
        transverse += (pair for pair in side.transverse_pairs if glued not in pair)
    relators += (move(w1, images[0]) * ~move(w2, images[1]) for w1, w2 in identified)
    if len(halves[0]) == len(halves[1]) == 1:
        (a,), (b,) = halves
        joined = SurfaceMark(a.id if a.id == b.id else f"{a.id}#{b.id}", a.genus + b.genus,
                             a.self_intersection + b.self_intersection, a.boundary_generators + b.boundary_generators)
        surfaces = [joined if m is a else m for m in surfaces if m is not b]
        transverse = [tuple(joined.id if i in (a.id, b.id) else i for i in pair) for pair in transverse]

    return ManifoldState(
        pi1=Presentation(alphabet, relators, Exactness.SURJECTIVE_BOUND),
        euler=euler,
        signature=signature,
        symplectic=s1.symplectic and s2.symplectic,
        minimality_rules=rules,
        parity=_parity_from_signature(signature),
        surfaces=tuple(surfaces),
        tori=(),
        transverse_pairs=tuple(transverse),
    )


def classify(s: ManifoldState, trivial_cert: TrivialityCertificate) -> HomeoType:
    """Homeomorphism type of a certified simply connected odd-form state.

    Requires a triviality certificate for this very presentation and an odd
    intersection form; then b+- = (e - 2 +- signature)/2 pins the type.  A
    minimal state with b- > 0 cannot smooth a -1 sphere, so it cannot be
    diffeomorphic to the blowup standard model.
    """
    if trivial_cert.presentation != s.pi1 or trivial_cert.result.index != 1:
        raise ManifoldError("certificate does not certify this state's group trivial")
    if s.parity is not Parity.ODD:
        raise ManifoldError("only odd intersection forms are classified here")
    twice_b_plus = s.euler - 2 + s.signature
    twice_b_minus = s.euler - 2 - s.signature
    if twice_b_plus < 0 or twice_b_minus < 0 or twice_b_plus % 2 or twice_b_minus % 2:
        raise ManifoldError(
            f"(e, sigma) = ({s.euler}, {s.signature}) is not realizable: "
            "e - 2 +- sigma must be even and nonnegative"
        )
    b_plus, b_minus = twice_b_plus // 2, twice_b_minus // 2

    def side(count: int, label: str) -> str:
        return label if count == 1 else f"{count} {label}"

    description = f"{side(b_plus, 'CP^2')} # {side(b_minus, 'CP^2bar')}"
    note = ""
    if s.minimality is Minimality.MINIMAL and b_minus > 0:
        note = (
            "minimal symplectic, so it contains no smoothly embedded -1 sphere "
            "(Taubes); the standard model does, so the two are not diffeomorphic"
        )
    return HomeoType(b_plus, b_minus, description, note)
