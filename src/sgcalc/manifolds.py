"""Manifold states and the cut-and-paste moves that transform them.

A state is a fundamental-group presentation (usually a surjective bound)
together with exact integer invariants, flags, and marked surfaces/tori.
Minimality is rule-based metadata, never computed geometry:

  R1  a block built from the four-torus by surgery on each of its two
      marked Lagrangian tori, along a single push-off direction each time,
      is minimal (the result fibers as a circle bundle, so it carries no
      essential spheres);
  R2  the symplectic sum of two minimal states is minimal (Usher);
  R3  a sum along a killed-meridian surface flagged as meeting every
      embedded -1 sphere of its side is minimal when the other side is;
  R4  a blowup is never minimal (it contains exceptional spheres).

Anything else is Unknown.  Parity upgrades to Odd whenever the signature is
not divisible by 8, since an even unimodular intersection pairing forces
8 | signature.
"""

from __future__ import annotations

import enum
from math import gcd

from .coset_enum import TrivialityCertificate
from .presentations import Exactness, Presentation, quotient_by
from .records import Record, setfields
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
    exactly when the recorded self-intersection is 0.  A killed meridian
    needs a reason, and may carry the relator set that a sum along this
    surface pushes onto the other side.
    """

    __slots__ = ("id", "genus", "self_intersection", "boundary_generators", "meridian_killed",
                 "meridian_killed_reason", "carried_relators", "no_minus_one_sphere_off_surface")

    def __init__(self, id: str, genus: int, self_intersection: int, boundary_generators: tuple[Word, ...],
                 meridian_killed: bool = False, meridian_killed_reason: str = "",
                 carried_relators: tuple[Word, ...] = (), no_minus_one_sphere_off_surface: bool = False):
        if genus < 0:
            raise ManifoldError("genus must be nonnegative")
        if len(boundary_generators) != 2 * genus:
            raise ManifoldError(f"surface {id!r} of genus {genus} needs {2 * genus} boundary generators")
        if meridian_killed and not meridian_killed_reason:
            raise ManifoldError("a killed meridian requires a recorded reason")
        setfields(self, id, genus, self_intersection, boundary_generators, meridian_killed,
                  meridian_killed_reason, carried_relators, no_minus_one_sphere_off_surface)

    @property
    def normal_bundle(self) -> str:
        return "trivial" if self.self_intersection == 0 else "other"


class LagrangianTorusMark(Record):
    """A Lagrangian torus with meridian and the two push-off directions."""

    __slots__ = ("id", "mu", "m", "l")

    def __init__(self, id: str, mu: Word, m: Word, l: Word):
        setfields(self, id, mu, m, l)


class ManifoldState(Record):
    __slots__ = ("pi1", "euler", "signature", "symplectic", "minimality", "minimality_rules", "parity",
                 "surfaces", "tori", "transverse_pairs", "two_torus_pattern", "name")

    def __init__(self, pi1: Presentation, euler: int, signature: int, symplectic: bool,
                 minimality: Minimality = Minimality.UNKNOWN, minimality_rules: tuple[str, ...] = (),
                 parity: Parity = Parity.UNKNOWN, surfaces: tuple[SurfaceMark, ...] = (),
                 tori: tuple[LagrangianTorusMark, ...] = (), transverse_pairs: tuple[tuple[str, str], ...] = (),
                 two_torus_pattern: bool = False, name: str = ""):
        for mark in surfaces:
            for w in mark.boundary_generators + mark.carried_relators:
                if w.alphabet != pi1.alphabet:
                    raise ManifoldError(f"surface {mark.id!r} carries foreign words")
        for torus in tori:
            for w in (torus.mu, torus.m, torus.l):
                if w.alphabet != pi1.alphabet:
                    raise ManifoldError(f"torus {torus.id!r} carries foreign words")
        setfields(self, pi1, euler, signature, symplectic, minimality, minimality_rules, parity, surfaces,
                  tori, transverse_pairs, two_torus_pattern, name)

    def surface(self, surface_id: str) -> SurfaceMark:
        for mark in self.surfaces:
            if mark.id == surface_id:
                return mark
        raise ManifoldError(f"unknown surface {surface_id!r}")

    def torus(self, torus_id: str) -> LagrangianTorusMark:
        for mark in self.tori:
            if mark.id == torus_id:
                return mark
        raise ManifoldError(f"unknown torus {torus_id!r}")


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
    minimality, rules = s.minimality, s.minimality_rules
    if s.minimality is not Minimality.NOT_MINIMAL:
        if pattern and not tori:
            minimality = Minimality.MINIMAL
            rules = ("R1",)
        else:
            minimality = Minimality.UNKNOWN
            rules = ()
    return s.replace(
        pi1=quotient_by(s.pi1, [relator]),
        tori=tori,
        two_torus_pattern=pattern,
        minimality=minimality,
        minimality_rules=rules,
        parity=_parity_from_signature(s.signature),
        name="",
    )


def blow_up(s: ManifoldState, on_surface: str | None = None, count: int = 1) -> ManifoldState:
    """Connected sum with ``count`` reversed projective planes.

    e rises and the signature drops by ``count``; the form goes odd and the
    state is no longer minimal.  Blowing up on a marked surface kills its
    meridian (it now meets an exceptional sphere once), lowers its recorded
    self-intersection, and snapshots the current relators onto the mark when
    the whole group is visible from the surface generators.
    """
    if count < 1:
        raise ManifoldError("blowup count must be positive")
    surfaces = s.surfaces
    if on_surface is not None:
        mark = s.surface(on_surface)
        boundary_bases = set()
        for w in mark.boundary_generators:
            boundary_bases.update(w.generators())
        carried = mark.carried_relators
        if set(s.pi1.alphabet.names) <= boundary_bases:
            carried = s.pi1.relators
        updated = mark.replace(
            meridian_killed=True,
            meridian_killed_reason="meets an exceptional sphere transversally once",
            self_intersection=mark.self_intersection - count,
            carried_relators=carried,
        )
        surfaces = tuple(updated if m.id == on_surface else m for m in s.surfaces)
    return s.replace(
        euler=s.euler + count,
        signature=s.signature - count,
        parity=Parity.ODD,
        minimality=Minimality.NOT_MINIMAL,
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
    ambient manifold is untouched.
    """
    a, b = s.surface(surface_a), s.surface(surface_b)
    if (surface_a, surface_b) not in s.transverse_pairs and (
        surface_b,
        surface_a,
    ) not in s.transverse_pairs:
        raise ManifoldError(
            f"surfaces {surface_a!r} and {surface_b!r} are not marked as meeting once"
        )
    merged = SurfaceMark(
        id=new_id or f"{surface_a}+{surface_b}",
        genus=a.genus + b.genus,
        self_intersection=a.self_intersection + b.self_intersection + 2,
        boundary_generators=a.boundary_generators + b.boundary_generators,
    )
    keep = tuple(m for m in s.surfaces if m.id not in (surface_a, surface_b))
    pairs = tuple(
        pair
        for pair in s.transverse_pairs
        if set(pair) != {surface_a, surface_b}
    )
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

    e(sum) = e1 + e2 - 2(2 - 2g) and signatures add.  When one side's
    surface has a killed meridian, its carried relators are rewritten
    through the pairing and appended to the other side's presentation (the
    result presents a group surjecting onto the sum's fundamental group).
    Otherwise the alphabets union and the pairing contributes identification
    relators.
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

    if mark2.meridian_killed or mark1.meridian_killed:
        if mark2.meridian_killed:
            host, host_mark, donor, donor_mark = s1, mark1, s2, mark2
            pairs = _paired_words(mark1, mark2, pairing)
        else:
            host, host_mark, donor, donor_mark = s2, mark2, s1, mark1
            pairs = [(w2, w1) for w1, w2 in _paired_words(mark1, mark2, pairing)]
        images: dict[str, Word] = {}
        for host_word, donor_word in pairs:
            letter = donor_word.as_letter()
            if letter is None:
                raise ManifoldError(
                    "killed-meridian sum needs single-generator boundary words "
                    f"on the {donor_mark.id!r} side"
                )
            name, exp = letter
            images[name] = host_word**exp
        needed = set()
        for r in donor_mark.carried_relators:
            needed.update(r.generators())
        if not needed <= set(images):
            raise ManifoldError(
                f"carried relators of {donor_mark.id!r} mention generators "
                "outside the pairing"
            )
        transported = tuple(
            substitute(r, images, host.pi1.alphabet) for r in donor_mark.carried_relators
        )
        pi1 = Presentation(
            host.pi1.alphabet,
            host.pi1.relators + transported,
            Exactness.SURJECTIVE_BOUND,
        )
        surfaces = tuple(m for m in host.surfaces if m.id != host_mark.id)
        transverse = tuple(
            pair for pair in host.transverse_pairs if host_mark.id not in pair
        )
    else:
        alphabet = merge_alphabets(s1.pi1.alphabet, s2.pi1.alphabet)
        rel1 = tuple(alphabet.word(r.syllables) for r in s1.pi1.relators)
        rel2 = tuple(alphabet.word(r.syllables) for r in s2.pi1.relators)
        idents = tuple(
            alphabet.word(w1.syllables) * ~alphabet.word(w2.syllables)
            for w1, w2 in _paired_words(mark1, mark2, pairing)
        )
        pi1 = Presentation(alphabet, rel1 + rel2 + idents, Exactness.SURJECTIVE_BOUND)
        surfaces = tuple(
            m.replace(
                boundary_generators=tuple(alphabet.word(w.syllables) for w in m.boundary_generators),
                carried_relators=tuple(alphabet.word(w.syllables) for w in m.carried_relators),
            )
            for m in s1.surfaces + s2.surfaces
            if m.id not in (surface1, surface2)
        )
        transverse = tuple(
            pair
            for pair in s1.transverse_pairs + s2.transverse_pairs
            if surface1 not in pair and surface2 not in pair
        )

    minimality, rules = Minimality.UNKNOWN, ()
    killed_flag = (mark2.meridian_killed and mark2.no_minus_one_sphere_off_surface) or (
        mark1.meridian_killed and mark1.no_minus_one_sphere_off_surface
    )
    other = s1 if mark2.meridian_killed else s2
    if killed_flag and other.minimality is Minimality.MINIMAL:
        minimality = Minimality.MINIMAL
        rules = other.minimality_rules + ("R3",)
    elif s1.minimality is Minimality.MINIMAL and s2.minimality is Minimality.MINIMAL:
        minimality = Minimality.MINIMAL
        seen: list[str] = []
        for rule in s1.minimality_rules + s2.minimality_rules:
            if rule not in seen:
                seen.append(rule)
        rules = tuple(seen) + ("R2",)

    return ManifoldState(
        pi1=pi1,
        euler=euler,
        signature=signature,
        symplectic=s1.symplectic and s2.symplectic,
        minimality=minimality,
        minimality_rules=rules,
        parity=_parity_from_signature(signature),
        surfaces=surfaces,
        tori=(),
        transverse_pairs=transverse,
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
