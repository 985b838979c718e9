"""The staged construction of a minimal symplectic manifold with e = 6, sigma = -2.

Every relation in the pipeline is generated, not hand-entered: the
complement of a fixed pair of disjoint Lagrangian tori in a product of
(possibly punctured) tori carries generators x, y, a, b, torus data

    T1: mu = [b^-1, y^-1],  m = x,  l = a
    T2: mu = [x^-1, b],     m = y,  l = b a b^-1

and universal relations [x,a], [y,a], [y,bab^-1], [[x,y],b], [x,[a,b]],
[y,[a,b]]; closing up a factor adds [x,y] and/or [a,b].  Blocks relabel this
data through invertible generator assignments, perform 1/k surgeries (the
surgery relator is mu * m^(kp) * l^(kq)), and the assembly sums the blocks
along marked surfaces.  The final presentation has 8 generators and 20
relations, numbered in block order; a scripted elimination replays the
generator kill-order against those numbers, and coset enumeration plus
generic simplification certify triviality independently.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .coset_enum import EnumResult, TrivialityCertificate, certify_trivial
from .manifolds import (
    LagrangianTorusMark,
    ManifoldError,
    ManifoldState,
    Minimality,
    Parity,
    SurfaceMark,
    blow_up,
    classify,
    HomeoType,
    luttinger,
    resolve_intersection,
    symplectic_sum,
)
from .presentations import (
    Exactness,
    Presentation,
    PresentationError,
    PruneRecord,
    commutation_normal_form,
    commuting_pairs,
    homology_invariants,
    prune_redundant,
    replace_relator_with_conjugate,
    reorder_relators,
    simple_commutator_pair,
    solve_relator,
)
from .tietze import DerivationTrace, tietze_simplify
from .words import (
    Alphabet,
    Word,
    WordError,
    are_conjugate,
    commutator,
    conjugate,
    cyclic_core,
    from_letters,
    substitute,
)


class Variant(enum.Enum):
    """Which factors of the ambient product are closed up."""

    OPEN_OPEN = "open-open"
    CLOSED_FIRST = "closed-first"
    CLOSED_SECOND = "closed-second"
    FOUR_TORUS = "four-torus"


_CLOSURES = {
    Variant.OPEN_OPEN: (),
    Variant.CLOSED_FIRST: (("x", "y"),),
    Variant.CLOSED_SECOND: (("a", "b"),),
    Variant.FOUR_TORUS: (("x", "y"), ("a", "b")),
}


@dataclass(frozen=True)
class ComplementData:
    """Generators, torus triples and relations of the two-torus complement."""

    variant: Variant
    alphabet: Alphabet
    t1: LagrangianTorusMark
    t2: LagrangianTorusMark
    universal_relators: tuple[Word, ...]
    closure_pairs: tuple[tuple[str, str], ...]
    optional_relators: tuple[Word, ...]

    @property
    def core_universal(self) -> tuple[Word, ...]:
        """The three mixed relations the surgery blocks keep."""
        return self.universal_relators[:3]

    @property
    def closure_relators(self) -> tuple[Word, ...]:
        return tuple(
            commutator(self.alphabet.gen(g), self.alphabet.gen(h))
            for g, h in self.closure_pairs
        )


def complement_data(variant: Variant) -> ComplementData:
    """The complement data over the base alphabet x, y, a, b."""
    ab = Alphabet(("x", "y", "a", "b"))
    x, y, a, b = (ab.gen(n) for n in "xyab")
    universal = (
        commutator(x, a),
        commutator(y, a),
        commutator(y, b * a * ~b),
        commutator(commutator(x, y), b),
        commutator(x, commutator(a, b)),
        commutator(y, commutator(a, b)),
    )
    optional = (
        commutator(commutator(~b, ~y), x),
        commutator(commutator(~b, ~y), a),
        commutator(commutator(~x, b), y),
        commutator(commutator(~x, b), b * a * ~b),
    )
    return ComplementData(
        variant=variant,
        alphabet=ab,
        t1=LagrangianTorusMark("T1", mu=commutator(~b, ~y), m=x, l=a),
        t2=LagrangianTorusMark("T2", mu=commutator(~x, b), m=y, l=b * a * ~b),
        universal_relators=universal,
        closure_pairs=_CLOSURES[variant],
        optional_relators=optional,
    )


def relabel(data: ComplementData, images: Mapping[str, Word]) -> ComplementData:
    """Push the complement data through an invertible generator assignment.

    Every image must be a single signed generator and the images must hit
    distinct generators, so the assignment is invertible and relations pull
    back faithfully.  Closure pairs are re-rendered as commutators of the
    (positive) image generators in declaration order; commutation of two
    elements is insensitive to inversion and swap, so this is the same
    relation.
    """
    target: Alphabet | None = None
    bases: dict[str, str] = {}
    for name in data.alphabet.names:
        if name not in images:
            raise WordError(f"no image for generator {name!r}")
        image = images[name]
        if len(image.syllables) != 1 or abs(image.syllables[0][1]) != 1:
            raise WordError(f"image of {name!r} is not a single signed generator: {image}")
        if target is None:
            target = image.alphabet
        elif image.alphabet != target:
            raise WordError("images span different alphabets")
        bases[name] = image.syllables[0][0]
    if len(set(bases.values())) != len(bases):
        raise WordError("assignment is not invertible: images share a base generator")
    if target is None:
        raise WordError("the complement data has no generators to relabel")

    def sub(w: Word) -> Word:
        return substitute(w, images, target)

    def pair(g: str, h: str) -> tuple[str, str]:
        u, v = bases[g], bases[h]
        return (u, v) if target.rank(u) < target.rank(v) else (v, u)

    return ComplementData(
        variant=data.variant,
        alphabet=target,
        t1=LagrangianTorusMark(data.t1.id, sub(data.t1.mu), sub(data.t1.m), sub(data.t1.l)),
        t2=LagrangianTorusMark(data.t2.id, sub(data.t2.mu), sub(data.t2.m), sub(data.t2.l)),
        universal_relators=tuple(sub(w) for w in data.universal_relators),
        closure_pairs=tuple(pair(g, h) for g, h in data.closure_pairs),
        optional_relators=tuple(sub(w) for w in data.optional_relators),
    )


# -- surgery blocks -----------------------------------------------------------

@dataclass(frozen=True)
class SurgeryRecord:
    """One surgery: coefficients, raw relator, and its isolated form.

    ``relator = conjugator * raw_relator * conjugator^-1`` is the cyclic
    rotation that puts the surgered direction's generator last, so the two
    words have the same normal closure; the rotation is proved, not assumed.
    """

    torus_id: str
    p: int
    q: int
    k: int
    raw_relator: Word
    conjugator: Word
    relator: Word


@dataclass(frozen=True)
class BlockBuild:
    """A built state with its surgeries, pruned relators and the blocks built on the way."""

    state: ManifoldState
    surgeries: tuple[SurgeryRecord, ...]
    pruned: tuple[PruneRecord, ...]
    blocks: tuple[ManifoldState, ...] = ()


def _direction_core(direction: Word) -> str:
    core, _ = cyclic_core(direction)
    if len(core.syllables) != 1 or abs(core.syllables[0][1]) != 1:
        raise PresentationError(f"direction {direction} is not a conjugated single generator")
    return core.syllables[0][0]


def isolate_direction(relator: Word, gen: str) -> tuple[Word, Word]:
    """Rotate the unique ``gen`` letter of a relator to the end.

    Returns ``(rotated, conjugator)`` with
    ``rotated == conjugator * relator * conjugator^-1``.
    """
    core, prefix = cyclic_core(relator)
    letters = list(core.letters())
    hits = [i for i, (n, _) in enumerate(letters) if n == gen]
    if len(hits) != 1:
        raise PresentationError(f"generator {gen!r} does not occur exactly once in {relator}")
    i = hits[0]
    rotated = from_letters(relator.alphabet, letters[i + 1 :] + letters[: i + 1])
    conjugator = from_letters(relator.alphabet, letters[i + 1 :]) * ~prefix
    if conjugate(relator, conjugator) != rotated or not are_conjugate(relator, rotated):
        raise PresentationError("rotation check failed")
    return rotated, conjugator


def _surgery_block(
    data: ComplementData,
    plan: Sequence[tuple[str, int, int, int]],
    marks: tuple[SurfaceMark, ...],
    transverse: tuple[tuple[str, str], ...],
    closures_first: bool,
    surgeries_first: bool,
    name: str,
    extra_relations: bool = False,
) -> BlockBuild:
    """Assemble one surgery block from relabeled complement data.

    The template presentation keeps the closure relations and the three
    mixed universal relations, pruned of restatements; it is a surjective
    bound for the block's fundamental group, and stays one after each
    surgery quotient.  ``closures_first``/``surgeries_first`` fix the
    relator numbering conventions of the individual blocks, which the
    assembled 20-relation numbering depends on.
    """
    closures = data.closure_relators
    core = data.core_universal
    base = list(closures + core if closures_first else core + closures)
    kept, pruned = prune_redundant(data.alphabet, base)
    if extra_relations:
        kept = kept + [w for w in data.universal_relators[3:]] + list(data.optional_relators)
    state = ManifoldState(
        pi1=Presentation(data.alphabet, tuple(kept), Exactness.SURJECTIVE_BOUND),
        euler=0,
        signature=0,
        symplectic=True,
        parity=Parity.EVEN,
        surfaces=marks,
        tori=(data.t1, data.t2),
        transverse_pairs=transverse,
        two_torus_pattern=True,
    )
    records = []
    for torus_id, p, q, k in plan:
        mark = state.torus(torus_id)
        direction = mark.m if (abs(p), abs(q)) == (1, 0) else mark.l
        core_gen = _direction_core(direction)
        state = luttinger(state, torus_id, p, q, k)
        raw = state.pi1.relators[-1]
        rotated, conjugator = isolate_direction(raw, core_gen)
        if rotated != raw:
            state = replace(
                state,
                pi1=replace_relator_with_conjugate(state.pi1, state.pi1.nrels - 1, rotated),
            )
        records.append(SurgeryRecord(torus_id, p, q, k, raw, conjugator, rotated))
    if surgeries_first:
        n = state.pi1.nrels
        order = list(range(n - len(plan), n)) + list(range(n - len(plan)))
        state = replace(state, pi1=reorder_relators(state.pi1, order))
    return BlockBuild(replace(state, name=name), tuple(records), tuple(pruned))


def _v_assignment() -> Mapping[str, Word]:
    target = Alphabet(("s1", "t1", "s2", "t2"))
    return {"x": target.gen("s1"), "y": target.gen("t1"), "a": target.gen("s2"), "b": target.gen("t2")}


def _p_assignment(i: int) -> Mapping[str, Word]:
    target = Alphabet((f"x{i}", f"y{i}", f"s{i}", f"t{i}"))
    return {
        "x": target.gen(f"y{i}", -1),
        "y": target.gen(f"x{i}"),
        "a": target.gen(f"t{i}", -1),
        "b": target.gen(f"s{i}"),
    }


def assemble_v(extra_relations: bool = False) -> BlockBuild:
    """-1 surgery along m on T1 and -1 along l on T2 in the four-torus.

    The torus factors survive as once-meeting symplectic surface marks H
    (directions s1, t1) and K (directions s2, t2).
    """
    data = relabel(complement_data(Variant.FOUR_TORUS), _v_assignment())
    ab = data.alphabet
    marks = (
        SurfaceMark("H", 1, 0, (ab.gen("s1"), ab.gen("t1"))),
        SurfaceMark("K", 1, 0, (ab.gen("s2"), ab.gen("t2"))),
    )
    return _surgery_block(
        data,
        plan=(("T1", 1, 0, -1), ("T2", 0, 1, -1)),
        marks=marks,
        transverse=(("H", "K"),),
        closures_first=True,
        surgeries_first=False,
        name="V",
        extra_relations=extra_relations,
    )


def assemble_p1(extra_relations: bool = False) -> BlockBuild:
    """+1 along m on T1 and +1 along l on T2, first factor closed."""
    data = relabel(complement_data(Variant.CLOSED_FIRST), _p_assignment(1))
    ab = data.alphabet
    marks = (SurfaceMark("H1", 1, 0, (ab.gen("x1"), ab.gen("y1"))),)
    return _surgery_block(
        data,
        plan=(("T1", 1, 0, 1), ("T2", 0, 1, 1)),
        marks=marks,
        transverse=(),
        closures_first=False,
        surgeries_first=True,
        name="P1",
        extra_relations=extra_relations,
    )


def assemble_p2(extra_relations: bool = False) -> BlockBuild:
    """+1 along l on T1 and -1 along m on T2, first factor closed."""
    data = relabel(complement_data(Variant.CLOSED_FIRST), _p_assignment(2))
    ab = data.alphabet
    marks = (SurfaceMark("H2", 1, 0, (ab.gen("x2"), ab.gen("y2"))),)
    return _surgery_block(
        data,
        plan=(("T1", 0, 1, 1), ("T2", 1, 0, -1)),
        marks=marks,
        transverse=(),
        closures_first=False,
        surgeries_first=True,
        name="P2",
        extra_relations=extra_relations,
    )


def assemble_w() -> BlockBuild:
    """Resolve H and K in V to a genus 2 surface G, then blow up twice on it.

    G starts with self-intersection 2 (the smoothed intersection point);
    two blowups on it make the normal bundle trivial, kill its meridian,
    and leave no -1 sphere disjoint from G.
    """
    built = assemble_v()
    state = resolve_intersection(built.state, "H", "K", new_id="G")
    state = blow_up(state, on_surface="G", count=2)
    surfaces = tuple(
        replace(m, no_minus_one_sphere_off_surface=True) if m.id == "G" else m
        for m in state.surfaces
    )
    return BlockBuild(
        replace(state, surfaces=surfaces, name="W"), built.surgeries, built.pruned, (built.state,)
    )


def assemble_p(include_wall_relation: bool = False) -> BlockBuild:
    """Sum the two closed surgery blocks along their torus marks.

    The pairing identifies x1 with x2 and y1 with y2; the halves of the
    marked surfaces line up to a genus 2 surface F carrying s1, t1, s2, t2.
    The relation [s1,t1][s2,t2] also holds on F but is not needed, so it is
    off unless requested.
    """
    b1, b2 = assemble_p1(), assemble_p2()
    state = symplectic_sum(b1.state, "H1", b2.state, "H2", pairing=((0, 0), (1, 1)))
    ab = state.pi1.alphabet
    if include_wall_relation:
        wall = commutator(ab.gen("s1"), ab.gen("t1")) * commutator(ab.gen("s2"), ab.gen("t2"))
        state = replace(state, pi1=Presentation(ab, state.pi1.relators + (wall,), state.pi1.exactness))
    f_mark = SurfaceMark(
        "F", 2, 0, (ab.gen("s1"), ab.gen("t1"), ab.gen("s2"), ab.gen("t2"))
    )
    state = replace(state, surfaces=state.surfaces + (f_mark,), name="P")
    return BlockBuild(
        state, b1.surgeries + b2.surgeries, b1.pruned + b2.pruned, (b1.state, b2.state)
    )


def assemble_x() -> BlockBuild:
    """Sum P along F with W along G, identifying generators by name.

    G's meridian is killed and its side's relations ride through the
    pairing, so the result keeps P's 8 generators and gains W's 6 relations:
    20 relations in all, a surjective bound whose triviality is then
    certified independently.  ``blocks`` holds P1, P2, P, V and W.
    """
    p = assemble_p()
    w = assemble_w()
    state = symplectic_sum(
        p.state, "F", w.state, "G", pairing=((0, 0), (1, 1), (2, 2), (3, 3))
    )
    return BlockBuild(
        replace(state, name="X"),
        p.surgeries + w.surgeries,
        p.pruned + w.pruned,
        p.blocks + (p.state,) + w.blocks + (w.state,),
    )


def build_v() -> ManifoldState:
    return assemble_v().state


def build_w() -> ManifoldState:
    return assemble_w().state


def build_p1() -> ManifoldState:
    return assemble_p1().state


def build_p2() -> ManifoldState:
    return assemble_p2().state


def build_p() -> ManifoldState:
    return assemble_p().state


def build_x() -> ManifoldState:
    return assemble_x().state


# -- scripted kill-order replay ----------------------------------------------

class ReplayError(RuntimeError):
    def __init__(self, generator: str, reason: str):
        super().__init__(f"kill step for {generator!r} failed: {reason}")
        self.generator = generator
        self.reason = reason


@dataclass(frozen=True)
class KillStep:
    """Kill one generator, citing relation numbers.

    ``uses`` are applied in order as rewrites of the running word;
    ``commuting`` lists generator pairs (with the relations establishing
    them) that let the surviving mobile generator cancel out.
    """

    generator: str
    uses: tuple[int, ...]
    commuting: tuple[tuple[tuple[str, str], tuple[int, ...]], ...] = ()


KILL_SCRIPT: tuple[KillStep, ...] = (
    KillStep("y1", uses=(1, 19), commuting=((("x1", "t1"), (4,)), (("x1", "t2"), (10, 13)))),
    KillStep("y2", uses=(14,)),
    KillStep("t1", uses=(2,)),
    KillStep("s1", uses=(19,)),
    KillStep("s2", uses=(20,)),
    KillStep("t2", uses=(7,)),
    KillStep("x1", uses=(13, 8)),
    KillStep("x2", uses=(8,)),
)


@dataclass(frozen=True)
class KillStepResult:
    generator: str
    uses: tuple[int, ...]
    derivation: tuple[str, ...]


@dataclass(frozen=True)
class KillReplayReport:
    steps: tuple[KillStepResult, ...]

    @property
    def killed(self) -> tuple[str, ...]:
        return tuple(s.generator for s in self.steps)


def _single_generator_equation(w: Word, prefer: str | None = None) -> tuple[str, Word] | None:
    """Read ``w`` as ``g = (other signed generator)`` if possible."""
    names = sorted(w.generators(), key=w.alphabet.rank)
    if prefer is not None and prefer in names:
        names = [prefer] + [n for n in names if n != prefer]
    for name in names:
        try:
            definition = solve_relator(w, name)
        except PresentationError:
            continue
        if len(definition.syllables) == 1 and abs(definition.syllables[0][1]) == 1:
            return name, definition
    return None


def _establish_pair(
    generator: str, want: tuple[str, str], cited: list[Word]
) -> None:
    """Check that the cited relations force ``want`` to commute."""
    wanted = frozenset(want)
    for w in cited:
        hit = simple_commutator_pair(w)
        if hit and frozenset(hit) == wanted:
            return
    if len(cited) == 2:
        for ident, comm in (cited, cited[::-1]):
            for prefer in frozenset(ident.generators()):
                eq = _single_generator_equation(ident, prefer)
                if eq is None:
                    continue
                name, image = eq
                images = {n: ident.alphabet.gen(n) for n in ident.alphabet.names}
                images[name] = image
                hit = simple_commutator_pair(substitute(comm, images, ident.alphabet))
                if hit and frozenset(hit) == wanted:
                    return
    raise ReplayError(
        generator, f"cited relations do not show {want[0]} and {want[1]} commute"
    )


def replay_kill_order(
    p: Presentation,
    script: tuple[KillStep, ...] = KILL_SCRIPT,
    drop: tuple[int, ...] = (),
) -> KillReplayReport:
    """Replay a scripted generator elimination against numbered relations.

    Relations are numbered 1..n in presentation order; ``drop`` removes
    numbers for negative-control runs.  Each step derives the target
    generator's triviality in the quotient group using only its cited
    relations and the generators already killed; any gap raises
    :class:`ReplayError` at that step.
    """
    alphabet = p.alphabet
    relations = {i + 1: r for i, r in enumerate(p.relators) if i + 1 not in drop}
    killed: set[str] = set()

    def sigma(w: Word) -> Word:
        images = {
            n: (alphabet.identity() if n in killed else alphabet.gen(n))
            for n in alphabet.names
        }
        return substitute(w, images, alphabet)

    results = []
    for step in script:
        cited_all = set(step.uses)
        for _, cites in step.commuting:
            cited_all.update(cites)
        for idx in sorted(cited_all):
            if idx not in relations:
                raise ReplayError(step.generator, f"cites relation {idx}, which is absent")

        word = alphabet.gen(step.generator)
        derivation = [str(word)]
        for idx in step.uses:
            rel = sigma(relations[idx])
            applied = False
            for name in sorted(word.generators(), key=alphabet.rank):
                try:
                    definition = solve_relator(rel, name)
                except PresentationError:
                    continue
                if name in definition.generators():
                    continue
                images = {n: alphabet.gen(n) for n in alphabet.names}
                images[name] = definition
                word = sigma(substitute(word, images, alphabet))
                derivation.append(f"{word}   [relation {idx}: {name} = {definition}]")
                applied = True
                break
            if not applied:
                raise ReplayError(
                    step.generator, f"relation {idx} rewrites no generator of {word}"
                )

        if step.commuting:
            partners = set()
            mobiles = None
            for pair, cites in step.commuting:
                _establish_pair(step.generator, pair, [sigma(relations[c]) for c in cites])
                mobiles = set(pair) if mobiles is None else mobiles & set(pair)
                partners.update(pair)
            if not mobiles:
                raise ReplayError(step.generator, "commuting pairs share no mobile generator")
            mobile = sorted(mobiles, key=alphabet.rank)[0]
            allowed = partners - {mobile}
            rest = word.generators() - {mobile}
            if not rest <= allowed:
                raise ReplayError(
                    step.generator,
                    f"{mobile} is not known to commute with {sorted(rest - allowed)}",
                )
            if word.exponent_sum(mobile) != 0:
                raise ReplayError(step.generator, f"{mobile} does not cancel")
            word = from_letters(alphabet, (l for l in word.letters() if l[0] != mobile))
            derivation.append(f"{word}   [{mobile} commutes with the rest and cancels]")

        word = sigma(word)
        if not word.is_identity:
            raise ReplayError(step.generator, f"derivation leaves {word}, not the identity")
        killed.add(step.generator)
        results.append(KillStepResult(step.generator, step.uses, tuple(derivation)))

    missing = set(alphabet.names) - killed
    if missing:
        raise ReplayError(sorted(missing)[0], "never killed by the script")
    return KillReplayReport(tuple(results))


# -- torus-triple commutation diagnostics ------------------------------------

def commutation_status(data: ComplementData) -> dict[tuple[str, str], str]:
    """For each torus, whether its triple's pairwise commutation is derivable.

    The triple lies on a boundary 3-torus, so its members commute in the
    complement group; only some of those commutations follow from the stored
    relations (by matching a relator or by commuting-pair rewriting), and
    the rest are recorded as assumptions.
    """
    relators = data.universal_relators + data.closure_relators
    pairs = commuting_pairs(relators)
    out: dict[tuple[str, str], str] = {}
    for mark in (data.t1, data.t2):
        for label, u, v in (
            ("mu,m", mark.mu, mark.m),
            ("mu,l", mark.mu, mark.l),
            ("m,l", mark.m, mark.l),
        ):
            word = commutator(u, v)
            proved = any(
                are_conjugate(word, r) or are_conjugate(word, ~r) for r in relators
            ) or commutation_normal_form(word, pairs).is_identity
            out[(mark.id, label)] = "proved" if proved else "assumed (boundary three-torus)"
    return out


# -- end-to-end verification ---------------------------------------------------

AXIOMS: tuple[str, ...] = (
    "1/k surgery on a Lagrangian torus along a push-off direction keeps the "
    "manifold symplectic and quotients the complement's group by the surgery "
    "relator (Luttinger; Auroux-Donaldson-Katzarkov).",
    "A block obtained from the four-torus by one surgery on each marked torus "
    "along a single push-off direction fibers as a circle bundle over a "
    "fibered 3-manifold, so it has no essential spheres and is minimal [R1].",
    "The symplectic sum of two minimal symplectic 4-manifolds along surfaces "
    "of positive genus is minimal (Usher) [R2, R3].",
    "A closed simply connected oriented 4-manifold with odd intersection form "
    "is determined up to homeomorphism by (e, sigma) (Freedman).",
    "A minimal symplectic 4-manifold contains no smoothly embedded sphere of "
    "square -1 (Taubes), so it is not diffeomorphic to a blowup.",
)


# -- checks, verdicts and reports shared by verify_main_theorem and scripts ----

VERDICT_EXIT = {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 2}


@dataclass(frozen=True)
class StatementResult:
    """One script statement or verification check and how it came out."""

    index: int
    text: str
    status: str  # ok | pass | fail | inconclusive | error
    detail: str
    data: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "pass")

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "statement": self.text,
            "status": self.status,
            "detail": self.detail,
            "data": self.data,
        }

    def lines(self, trace: bool = False) -> list[str]:
        out = [f"[{self.index}] {self.text}"]
        out.append(f"    {self.status.upper()}: {self.detail}" if self.detail else f"    {self.status.upper()}")
        if trace:
            out += [f"      {key}: {self.data[key]}" for key in sorted(self.data)]
        return out


def verdict_of(results: Sequence[StatementResult]) -> str:
    """FAIL if any check failed or errored, else INCONCLUSIVE if any is undecided, else PASS."""
    statuses = {r.status for r in results}
    if statuses & {"fail", "error"}:
        return "FAIL"
    return "INCONCLUSIVE" if "inconclusive" in statuses else "PASS"


class VerdictReport:
    """JSON text and exit code of a report with a ``verdict`` and a ``to_dict``."""

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @property
    def exit_code(self) -> int:
        return VERDICT_EXIT[self.verdict]


def presentation_dict(p: Presentation) -> dict:
    return {"generators": list(p.alphabet.names), "relators": [str(r) for r in p.relators]}


def check_invariants(state: ManifoldState, euler: int, signature: int) -> tuple[str, str, dict]:
    ok = (state.euler, state.signature) == (euler, signature)
    return (
        "pass" if ok else "fail",
        f"(e, sigma) = ({state.euler}, {state.signature})"
        + ("" if ok else f", expected ({euler}, {signature})"),
        {"euler": state.euler, "signature": state.signature},
    )


def check_trivial(
    p: Presentation, h1: tuple[int, list[int]], max_cosets: int
) -> tuple[str, str, dict, TrivialityCertificate | EnumResult | None]:
    """Triviality of ``p`` given its H1; the last item is the enumeration's outcome.

    A nonzero H1 refutes triviality without enumerating (the outcome is then
    ``None``); an exhausted coset budget is inconclusive.
    """
    rank, torsion = h1
    if (rank, torsion) != (0, []):
        return (
            "fail",
            f"refuted without enumeration: H1 has rank {rank} and torsion {torsion}",
            {"h1_rank": rank, "h1_torsion": torsion, "enumeration": "skipped"},
            None,
        )
    outcome = certify_trivial(p, max_cosets)
    if not isinstance(outcome, TrivialityCertificate):
        data = {"index": outcome.index, "cosets_defined": outcome.defined}
        if outcome.index is None:
            detail = f"coset budget of {max_cosets} exhausted ({outcome.defined} defined)"
            return "inconclusive", detail, data, outcome
        return "fail", f"refuted: the group has order {outcome.index}", data, outcome
    result = outcome.result
    data = {
        "index": 1,
        "cosets_defined": result.defined,
        "cosets_collapsed": result.collapsed,
        "witnesses": [list(w) for w in outcome.witnesses],
    }
    detail = f"trivial: index 1 with {result.defined} cosets defined, {result.collapsed} collapsed"
    return "pass", detail, data, outcome


def check_classify(
    state: ManifoldState, trivial: tuple[str, str, dict, object]
) -> tuple[str, str, dict, HomeoType | None]:
    """Classify ``state`` from the result of :func:`check_trivial` on its group.

    Without a certificate the triviality check's status and detail stand:
    a refuted group fails, an undecided one is inconclusive.
    """
    status, detail, data, outcome = trivial
    if not isinstance(outcome, TrivialityCertificate):
        return status, detail, data, None
    try:
        homeo = classify(state, outcome)
    except ManifoldError as err:
        return "fail", str(err), data, None
    detail = f"b+ = {homeo.b_plus}, b- = {homeo.b_minus}: {homeo.description}"
    if homeo.exotic_note:
        detail += f" ({homeo.exotic_note})"
    data = dict(
        data,
        b_plus=homeo.b_plus,
        b_minus=homeo.b_minus,
        description=homeo.description,
        exotic_note=homeo.exotic_note,
    )
    return "pass", detail, data, homeo


@dataclass(frozen=True)
class ConstructionReport(VerdictReport):
    verdict: str
    checks: tuple[StatementResult, ...]
    blocks: tuple[ManifoldState, ...]
    state: ManifoldState
    surgeries: tuple[SurgeryRecord, ...]
    certificate: TrivialityCertificate | None
    enum_stats: EnumResult | None
    trace: DerivationTrace | None
    simplified: Presentation | None
    replay: KillReplayReport | None
    homeo: HomeoType | None
    assumptions: tuple[str, ...]
    axioms: tuple[str, ...] = AXIOMS

    def to_dict(self) -> dict:
        def state_dict(s: ManifoldState) -> dict:
            return {
                "name": s.name,
                "euler": s.euler,
                "signature": s.signature,
                "symplectic": s.symplectic,
                "minimality": s.minimality.value,
                "minimality_rules": list(s.minimality_rules),
                "parity": s.parity.value,
                **presentation_dict(s.pi1),
                "exactness": s.pi1.exactness.value,
                "surfaces": [
                    {
                        "id": m.id,
                        "genus": m.genus,
                        "self_intersection": m.self_intersection,
                        "normal_bundle": m.normal_bundle,
                        "meridian_killed": m.meridian_killed,
                        "boundary_generators": [str(w) for w in m.boundary_generators],
                    }
                    for m in s.surfaces
                ],
                "tori": [
                    {"id": t.id, "mu": str(t.mu), "m": str(t.m), "l": str(t.l)}
                    for t in s.tori
                ],
            }

        return {
            "verdict": self.verdict,
            "checks": [c.to_dict() for c in self.checks],
            "blocks": [state_dict(b) for b in self.blocks],
            "result": state_dict(self.state),
            "surgeries": [
                {
                    "torus": r.torus_id,
                    "p": r.p,
                    "q": r.q,
                    "k": r.k,
                    "raw_relator": str(r.raw_relator),
                    "conjugator": str(r.conjugator),
                    "relator": str(r.relator),
                }
                for r in self.surgeries
            ],
            "enumeration": (
                None
                if self.enum_stats is None
                else {
                    "index": self.enum_stats.index,
                    "cosets_defined": self.enum_stats.defined,
                    "cosets_collapsed": self.enum_stats.collapsed,
                }
            ),
            "certificate": (
                None
                if self.certificate is None
                else {
                    "index": self.certificate.result.index,
                    "witnesses": [list(w) for w in self.certificate.witnesses],
                }
            ),
            "simplification": (
                None
                if self.trace is None
                else {
                    "steps": len(self.trace.steps),
                    "complete": self.trace.complete,
                    "eliminated": self.trace.eliminated_generators(),
                    "final_generators": list(self.simplified.alphabet.names),
                    "final_relators": [str(r) for r in self.simplified.relators],
                }
            ),
            "kill_replay": (
                None
                if self.replay is None
                else [
                    {
                        "generator": s.generator,
                        "relations": list(s.uses),
                        "derivation": list(s.derivation),
                    }
                    for s in self.replay.steps
                ]
            ),
            "classification": (
                None
                if self.homeo is None
                else {
                    "b_plus": self.homeo.b_plus,
                    "b_minus": self.homeo.b_minus,
                    "description": self.homeo.description,
                    "exotic_note": self.homeo.exotic_note,
                }
            ),
            "assumptions": list(self.assumptions),
            "axioms": list(self.axioms),
        }

    def to_text(self, trace: bool = False) -> str:
        lines = [line for c in self.checks for line in c.lines(trace)]
        if trace and self.replay is not None:
            lines += ["", "kill-order replay:"]
            for step in self.replay.steps:
                cited = ", ".join(str(i) for i in step.uses)
                lines.append(f"  kill {step.generator} (relations {cited})")
                lines += [f"    {d}" for d in step.derivation]
        if trace and self.trace is not None:
            lines += [
                "",
                "simplification: "
                + ", ".join(self.trace.eliminated_generators())
                + f" eliminated in {len(self.trace.steps)} steps",
            ]
        lines += ["", "assumptions:"] + [f"  {a}" for a in self.assumptions]
        lines += ["axioms:"] + [f"  {a}" for a in self.axioms]
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


TIETZE_BUDGET = 2000


def verify_main_theorem(
    max_cosets: int = 100_000, tietze_budget: int = TIETZE_BUDGET
) -> ConstructionReport:
    """Run the whole construction and verify every numbered claim.

    Triviality of the final group is certified two independent ways (coset
    enumeration and generic simplification) and cross-checked against the
    scripted kill-order.  The verdict follows :func:`verdict_of`: any failed
    check makes it FAIL, and an exhausted budget makes it INCONCLUSIVE,
    never PASS.
    """
    checks: list[StatementResult] = []

    def check(name: str, status: str, detail: str, data: dict | None = None) -> None:
        checks.append(StatementResult(len(checks), name, status, detail, data or {}))

    def expect(name: str, ok: bool, detail: str) -> None:
        check(name, "pass" if ok else "fail", detail)

    x = assemble_x()
    built = {b.name: b for b in x.blocks}
    blocks = (built["V"], built["W"], built["P"], x.state)

    for state, e, sig in zip(blocks, (0, 2, 0, 6), (0, -2, 0, -2)):
        check(f"invariants {state.name}", *check_invariants(state, e, sig))
    expect(
        "presentation size X",
        x.state.pi1.ngens == 8 and x.state.pi1.nrels == 20,
        f"{x.state.pi1.ngens} generators, {x.state.pi1.nrels} relators",
    )
    h1v = homology_invariants(built["V"].pi1)
    expect("H1 V", h1v == (2, []), f"H1 = (rank {h1v[0]}, torsion {h1v[1]}), expected Z^2")
    h1x = homology_invariants(x.state.pi1)
    expect("H1 X", h1x == (0, []), f"H1 = (rank {h1x[0]}, torsion {h1x[1]}), expected 0")
    expect(
        "minimality X",
        x.state.minimality is Minimality.MINIMAL
        and x.state.minimality_rules == ("R1", "R2", "R3"),
        f"{x.state.minimality.value} via {'->'.join(x.state.minimality_rules) or 'nothing'}",
    )
    expect("parity X", x.state.parity is Parity.ODD, x.state.parity.value)
    expect("symplectic X", x.state.symplectic, str(x.state.symplectic))

    trivial = check_trivial(x.state.pi1, h1x, max_cosets)
    check("coset enumeration", *trivial[:3])
    outcome = trivial[3]
    certificate = outcome if isinstance(outcome, TrivialityCertificate) else None
    enum_stats = certificate.result if certificate is not None else outcome

    simplified, trace = tietze_simplify(x.state.pi1, tietze_budget)
    if not trace.complete:
        check("simplification", "inconclusive", f"budget of {tietze_budget} steps exhausted")
    else:
        expect(
            "simplification",
            simplified.is_empty(),
            f"reached {simplified} in {len(trace.steps)} steps, eliminating "
            f"{', '.join(trace.eliminated_generators())}",
        )

    replay_report = None
    try:
        replay_report = replay_kill_order(x.state.pi1)
        check("kill-order replay", "pass", " -> ".join(replay_report.killed))
    except ReplayError as err:
        check("kill-order replay", "fail", str(err))

    status, detail, data, homeo = check_classify(x.state, trivial)
    if homeo is not None and (homeo.b_plus, homeo.b_minus) != (1, 3):
        status = "fail"
    check("classification", status, detail, data)
    if homeo is not None:
        expect("exotic note", bool(homeo.exotic_note), homeo.exotic_note or "missing")

    commutations = commutation_status(complement_data(Variant.FOUR_TORUS))
    assumptions = tuple(
        f"torus {torus} triple ({label}): {status}"
        for (torus, label), status in sorted(commutations.items())
        if status != "proved"
    )

    return ConstructionReport(
        verdict=verdict_of(checks),
        checks=tuple(checks),
        blocks=blocks,
        state=x.state,
        surgeries=x.surgeries,
        certificate=certificate,
        enum_stats=enum_stats,
        trace=trace,
        simplified=simplified,
        replay=replay_report,
        homeo=homeo,
        assumptions=assumptions,
    )
