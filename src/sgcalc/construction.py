"""The staged construction of a minimal symplectic manifold with e = 6, sigma = -2.

Every relation in the pipeline is generated, not hand-entered: the
complement of a fixed pair of disjoint Lagrangian tori in a product of
(possibly punctured) tori carries generators x, y, a, b, torus data

    T1: mu = [b^-1, y^-1],  m = x,  l = a
    T2: mu = [x^-1, b],     m = y,  l = b a b^-1

and universal relations [x,a], [y,a], [y,bab^-1], [[x,y],b], [x,[a,b]],
[y,[a,b]]; closing up a factor adds [x,y] and/or [a,b].  Each block evaluates
this data at its own generators (an invertible assignment of x, y, a, b to
signed generators), performs 1/k surgeries (the surgery relator is
mu * m^(kp) * l^(kq)), and the assembly sums the blocks along marked
surfaces.  The final presentation has 8 generators and 20 relations,
numbered in block order; a scripted elimination replays the generator
kill-order against those numbers, and coset enumeration plus generic
simplification certify triviality independently.
"""

from __future__ import annotations

import json
from typing import Callable, Mapping, Sequence

from .coset_enum import MAX_COSETS, EnumResult, TrivialityCertificate, certify_trivial
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
    commutation_normal_form,
    commuting_pairs,
    homology_invariants,
    prune_redundant,
    solve_relator,
    unique_occurrence,
)
from .records import Record, setfields
from .tietze import TIETZE_BUDGET, DerivationTrace, tietze_simplify
from .words import (
    Alphabet,
    Word,
    WordError,
    are_conjugate,
    commutator,
    conjugate,
    cyclic_core,
    same_relator,
    substitute,
)


class ComplementData(Record):
    """Torus triples and relations of the two-torus complement over some alphabet."""

    __slots__ = ("alphabet", "t1", "t2", "universal_relators", "closure_relators")

    def __init__(self, alphabet: Alphabet, t1: LagrangianTorusMark, t2: LagrangianTorusMark,
                 universal_relators: tuple[Word, ...], closure_relators: tuple[Word, ...]):
        setfields(self, alphabet, t1, t2, universal_relators, closure_relators)


def complement_data(
    images: Mapping[str, Word] | None = None,
    closures: Sequence[tuple[str, str]] = (("x", "y"), ("a", "b")),
) -> ComplementData:
    """The complement data evaluated at an invertible assignment of x, y, a, b.

    Every image must be a single signed generator and the images must hit
    distinct generators of one alphabet, so the assignment is invertible and
    relations pull back faithfully.  A free-group homomorphism preserves
    products, so the data written over the images is the base data pushed
    through the assignment.  Each closed factor in ``closures`` adds the
    commutator of its (positive) image generators in declaration order;
    commutation of two elements is insensitive to inversion and swap, so
    this is the same relation.  Without ``images`` the data is over x, y, a, b.
    """
    if images is None:
        base = Alphabet(("x", "y", "a", "b"))
        images = {n: base.gen(n) for n in base.names}
    alphabet: Alphabet | None = None
    bases: dict[str, str] = {}
    for name in "xyab":
        if name not in images:
            raise WordError(f"no image for generator {name!r}")
        image = images[name]
        letter = image.as_letter()
        if letter is None:
            raise WordError(f"image of {name!r} is not a single signed generator: {image}")
        if alphabet is None:
            alphabet = image.alphabet
        elif image.alphabet is not alphabet and image.alphabet != alphabet:
            raise WordError("images span different alphabets")
        bases[name] = letter[0]
    if len(set(bases.values())) != len(bases):
        raise WordError("assignment is not invertible: images share a base generator")
    x, y, a, b = (images[n] for n in "xyab")

    def closure(g: str, h: str) -> Word:
        u, v = sorted((bases[g], bases[h]), key=alphabet.rank)
        return commutator(alphabet.gen(u), alphabet.gen(v))

    return ComplementData(
        alphabet=alphabet,
        t1=LagrangianTorusMark("T1", mu=commutator(~b, ~y), m=x, l=a),
        t2=LagrangianTorusMark("T2", mu=commutator(~x, b), m=y, l=b * a * ~b),
        universal_relators=(
            commutator(x, a),
            commutator(y, a),
            commutator(y, b * a * ~b),
            commutator(commutator(x, y), b),
            commutator(x, commutator(a, b)),
            commutator(y, commutator(a, b)),
        ),
        closure_relators=tuple(closure(g, h) for g, h in closures),
    )


# -- surgery blocks -----------------------------------------------------------

class SurgeryRecord(Record):
    """One surgery: coefficients, raw relator, and its isolated form.

    ``relator = conjugator * raw_relator * conjugator^-1`` is the cyclic
    rotation that puts the surgered direction's generator last, so the two
    words have the same normal closure; the rotation is proved, not assumed.
    """

    __slots__ = ("torus_id", "p", "q", "k", "raw_relator", "conjugator", "relator")

    def __init__(self, torus_id: str, p: int, q: int, k: int, raw_relator: Word, conjugator: Word, relator: Word):
        setfields(self, torus_id, p, q, k, raw_relator, conjugator, relator)


class BlockBuild(Record):
    """A built state with its surgeries and the blocks built on the way."""

    __slots__ = ("state", "surgeries", "blocks")

    def __init__(self, state: ManifoldState, surgeries: tuple[SurgeryRecord, ...], blocks: tuple[ManifoldState, ...] = ()):
        setfields(self, state, surgeries, blocks)


def isolate_direction(relator: Word, gen: str) -> tuple[Word, Word]:
    """Rotate the unique ``gen`` letter of a relator to the end.

    Returns ``(rotated, conjugator)`` with
    ``rotated == conjugator * relator * conjugator^-1``.
    """
    core, prefix = cyclic_core(relator)
    codes = core.codes()
    i = unique_occurrence(relator, gen, codes)
    rotated = Word(relator.alphabet, codes[i + 1 :] + codes[: i + 1])
    conjugator = Word(relator.alphabet, codes[i + 1 :]) * ~prefix
    if conjugate(relator, conjugator) != rotated or not are_conjugate(relator, rotated):
        raise PresentationError("rotation check failed")
    return rotated, conjugator


def _surgery_block(
    name: str,
    generators: tuple[str, ...],
    images: Sequence[tuple[str, int]],
    closed: tuple[tuple[str, str], ...],
    plan: Sequence[tuple[str, int, int, int]],
    marks: tuple[tuple[str, str, str], tuple[str, str, str]],
    closures_first: bool,
) -> BlockBuild:
    """Build one surgery block from its recipe.

    The complement data is evaluated at ``images``, the signed generators
    that x, y, a, b go to, with the factors in ``closed`` closed up.  The
    template presentation keeps the closure relations and the three mixed
    universal relations, pruned of restatements; it is a surjective bound
    for the block's fundamental group, and stays one after each surgery
    quotient of ``plan``.  The two ``marks`` ``(id, s, t)``, with directions
    s and t, are the torus factors, which meet once.  Each surgery relator
    is rotated so that the generator of its surgered direction comes last.
    The block's numbering is decided once, after the last surgery, and the
    assembled 20-relation numbering depends on it: ``closures_first`` gives
    closures, universal relations, then surgery relators (V); otherwise
    surgery relators, universal relations, then closures (P1, P2).
    """
    ab = Alphabet(generators)
    data = complement_data({n: ab.gen(g, e) for n, (g, e) in zip("xyab", images)}, closed)
    closures, core = data.closure_relators, data.universal_relators[:3]
    kept = tuple(prune_redundant(closures + core if closures_first else core + closures))
    state = ManifoldState(
        pi1=Presentation(ab, kept, Exactness.SURJECTIVE_BOUND),
        euler=0,
        signature=0,
        symplectic=True,
        parity=Parity.EVEN,
        surfaces=tuple(SurfaceMark(i, 1, 0, (ab.gen(s), ab.gen(t))) for i, s, t in marks),
        tori=(data.t1, data.t2),
        transverse_pairs=((marks[0][0], marks[1][0]),),
        two_torus_pattern=True,
    )
    records = []
    for torus_id, p, q, k in plan:
        mark = state.torus(torus_id)
        direction = mark.m if (abs(p), abs(q)) == (1, 0) else mark.l
        letter = cyclic_core(direction)[0].as_letter()
        if letter is None:
            raise PresentationError(f"direction {direction} is not a conjugated single generator")
        state = luttinger(state, torus_id, p, q, k)
        raw = state.pi1.relators[-1]
        rotated, conjugator = isolate_direction(raw, letter[0])
        records.append(SurgeryRecord(torus_id, p, q, k, raw, conjugator, rotated))
    surgeries = tuple(r.relator for r in records)
    relators = kept + surgeries if closures_first else surgeries + kept
    return BlockBuild(state.replace(pi1=state.pi1.replace(relators=relators), name=name), tuple(records))


def assemble_v() -> BlockBuild:
    """-1 surgery along m on T1 and -1 along l on T2 in the four-torus.

    The torus factors survive as once-meeting symplectic surface marks H
    (directions s1, t1) and K (directions s2, t2).
    """
    return _surgery_block(
        "V",
        ("s1", "t1", "s2", "t2"),
        images=(("s1", 1), ("t1", 1), ("s2", 1), ("t2", 1)),
        closed=(("x", "y"), ("a", "b")),
        plan=(("T1", 1, 0, -1), ("T2", 0, 1, -1)),
        marks=(("H", "s1", "t1"), ("K", "s2", "t2")),
        closures_first=True,
    )


def _closed_first_block(i: int, plan: Sequence[tuple[str, int, int, int]]) -> BlockBuild:
    """Block Pi: the first factor closed up, its torus the mark Hi, the second F.

    The quarter turn x -> yi^-1, y -> xi, a -> ti^-1, b -> si carries the
    complement data onto the block's generators xi, yi, si, ti.
    """
    x, y, s, t = (f"{g}{i}" for g in "xyst")
    return _surgery_block(
        f"P{i}",
        (x, y, s, t),
        images=((y, -1), (x, 1), (t, -1), (s, 1)),
        closed=(("x", "y"),),
        plan=plan,
        marks=((f"H{i}", x, y), ("F", s, t)),
        closures_first=False,
    )


def assemble_p1() -> BlockBuild:
    """+1 along m on T1 and +1 along l on T2, first factor closed."""
    return _closed_first_block(1, (("T1", 1, 0, 1), ("T2", 0, 1, 1)))


def assemble_p2() -> BlockBuild:
    """+1 along l on T1 and -1 along m on T2, first factor closed."""
    return _closed_first_block(2, (("T1", 0, 1, 1), ("T2", 1, 0, -1)))


def assemble_w() -> BlockBuild:
    """Resolve H and K in V to a genus 2 surface G, then blow up twice on it.

    G starts with self-intersection 2 (the smoothed intersection point);
    two blowups on it make the normal bundle trivial and kill its meridian.
    ``blow_up`` flags G as meeting every -1 sphere, because V is minimal.
    """
    built = assemble_v()
    state = resolve_intersection(built.state, "H", "K", new_id="G")
    state = blow_up(state, on_surface="G", count=2)
    return BlockBuild(state.replace(name="W"), built.surgeries, (built.state,))


def assemble_p() -> BlockBuild:
    """Sum the two closed surgery blocks along their torus marks.

    The pairing identifies x1 with x2 and y1 with y2; ``symplectic_sum``
    joins the F halves, each meeting its Hi once, to a genus 2 surface F
    carrying s1, t1, s2, t2.  [s1,t1][s2,t2] also holds on F but is not needed.
    """
    b1, b2 = assemble_p1(), assemble_p2()
    state = symplectic_sum(b1.state, "H1", b2.state, "H2", pairing=((0, 0), (1, 1)))
    return BlockBuild(state.replace(name="P"), b1.surgeries + b2.surgeries, (b1.state, b2.state))


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
        state.replace(name="X"),
        p.surgeries + w.surgeries,
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


class KillStep(Record):
    """Kill one generator, citing relation numbers.

    ``uses`` are applied in order as rewrites of the running word;
    ``commuting`` lists generator pairs (with the relations establishing
    them) that let the surviving mobile generator cancel out.
    """

    __slots__ = ("generator", "uses", "commuting")

    def __init__(self, generator: str, uses: tuple[int, ...],
                 commuting: tuple[tuple[tuple[str, str], tuple[int, ...]], ...] = ()):
        setfields(self, generator, uses, commuting)


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


class KillStepResult(Record):
    __slots__ = ("generator", "uses", "derivation")

    def __init__(self, generator: str, uses: tuple[int, ...], derivation: tuple[str, ...]):
        setfields(self, generator, uses, derivation)


class KillReplayReport(Record):
    __slots__ = ("steps",)

    def __init__(self, steps: tuple[KillStepResult, ...]):
        setfields(self, steps)

    @property
    def killed(self) -> tuple[str, ...]:
        return tuple(s.generator for s in self.steps)


def _shown_pairs(alphabet: Alphabet, cited: list[Word]) -> frozenset[frozenset[str]]:
    """Generator pairs the cited relations show commute: simple commutators
    among them, also after a cited identity ``g = h`` is substituted in."""
    identity = {n: alphabet.gen(n) for n in alphabet.names}
    words = list(cited)
    for ident in cited:
        for name in ident.generators():
            try:
                image = solve_relator(ident, name)
            except PresentationError:
                continue
            if image.as_letter() is not None:
                words += [substitute(w, {**identity, name: image}, alphabet) for w in cited]
    return commuting_pairs(words)


def replay_kill_order(p: Presentation, drop: tuple[int, ...] = ()) -> KillReplayReport:
    """Replay :data:`KILL_SCRIPT`'s generator elimination against numbered relations.

    Relations are numbered 1..n in presentation order; ``drop`` removes
    numbers for negative-control runs.  Each step derives the target
    generator's triviality in the quotient group using only its cited
    relations and the generators already killed; any gap raises
    :class:`ReplayError` at that step.  A step with commuting pairs needs
    its cited relations to show each pair commutes; the mobile generator
    they share then cancels by commutation rewriting.
    """
    alphabet = p.alphabet
    relations = {i + 1: r for i, r in enumerate(p.relators) if i + 1 not in drop}
    # each generator to itself, and each killed one to the identity
    images = {n: alphabet.gen(n) for n in alphabet.names}

    def sigma(w: Word) -> Word:
        return substitute(w, images, alphabet)

    results = []
    for step in KILL_SCRIPT:
        for idx in sorted(set(step.uses).union(*(cites for _, cites in step.commuting))):
            if idx not in relations:
                raise ReplayError(step.generator, f"cites relation {idx}, which is absent")

        word = alphabet.gen(step.generator)
        derivation = [str(word)]
        for idx in step.uses:
            rel = sigma(relations[idx])
            for name in sorted(word.generators(), key=alphabet.rank):
                try:
                    definition = solve_relator(rel, name)
                except PresentationError:
                    continue
                word = substitute(word, {**images, name: definition}, alphabet)
                derivation.append(f"{word}   [relation {idx}: {name} = {definition}]")
                break
            else:
                raise ReplayError(step.generator, f"relation {idx} rewrites no generator of {word}")

        if step.commuting:
            pairs = frozenset(frozenset(pair) for pair, _ in step.commuting)
            for pair, cites in step.commuting:
                if frozenset(pair) not in _shown_pairs(alphabet, [sigma(relations[c]) for c in cites]):
                    raise ReplayError(step.generator, f"cited relations do not show {pair[0]} and {pair[1]} commute")
            mobiles = frozenset.intersection(*pairs)
            if not mobiles:
                raise ReplayError(step.generator, "commuting pairs share no mobile generator")
            mobile = min(mobiles, key=alphabet.rank)
            stuck = word.generators() - frozenset.union(*pairs)
            if stuck:
                raise ReplayError(step.generator, f"{mobile} is not known to commute with {sorted(stuck)}")
            if word.exponent_sum(mobile) != 0:
                raise ReplayError(step.generator, f"{mobile} does not cancel")
            word = commutation_normal_form(word, pairs)
            partners = " and ".join(
                f"{b if a == mobile else a} (relation{'s' * (len(cites) > 1)} {', '.join(map(str, cites))})"
                for (a, b), cites in step.commuting)
            derivation.append(f"{word}   [{mobile} commutes with {partners}, and cancels]")

        word = sigma(word)
        if not word.is_identity:
            raise ReplayError(step.generator, f"derivation leaves {word}, not the identity")
        images[step.generator] = alphabet.identity()
        results.append(KillStepResult(step.generator, step.uses, tuple(derivation)))

    missing = set(alphabet.names) - {s.generator for s in results}
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
            proved = any(same_relator(word, r) for r in relators) or commutation_normal_form(word, pairs).is_identity
            out[(mark.id, label)] = "proved" if proved else "assumed (boundary three-torus)"
    return out


# -- checks, verdicts and reports shared by verify_main_theorem and scripts ----

VERDICT_EXIT = {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 2}


def _data_lines(data: dict, pad: str) -> list[str]:
    """``key: value`` lines; a list of strings or records goes one item per line below its key."""
    out = []
    for key, value in data.items():
        if isinstance(value, list) and value and isinstance(value[0], (str, dict)):
            out.append(f"{pad}{key}:")
            for item in value:
                out += _data_lines(item, pad + "  ") if isinstance(item, dict) else [f"{pad}  {item}"]
        else:
            out.append(f"{pad}{key}: {value}")
    return out


class StatementResult(Record):
    """One script statement or verification check, how it came out, and its evidence."""

    __slots__ = ("index", "text", "status", "detail", "data")  # status: ok | pass | fail | inconclusive | error

    def __init__(self, index: int, text: str, status: str, detail: str, data: dict | None = None):
        setfields(self, index, text, status, detail, {} if data is None else data)

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
        return out + (_data_lines(self.data, "      ") if trace else [])


def verdict_of(results: Sequence[StatementResult]) -> str:
    """FAIL if any check failed or errored, else INCONCLUSIVE if any is undecided, else PASS."""
    statuses = {r.status for r in results}
    if statuses & {"fail", "error"}:
        return "FAIL"
    return "INCONCLUSIVE" if "inconclusive" in statuses else "PASS"


class Report(Record):
    """The statements of a run and the budgets it ran under; its verdict is read off the statements."""

    __slots__ = ("statements", "budgets")

    def __init__(self, statements: tuple[StatementResult, ...], budgets: dict[str, int]):
        setfields(self, statements, budgets)

    @property
    def verdict(self) -> str:
        """PASS | FAIL | INCONCLUSIVE, by :func:`verdict_of`."""
        return verdict_of(self.statements)

    def to_dict(self) -> dict:
        return {
            "budgets": self.budgets,
            "statements": [s.to_dict() for s in self.statements],
            "verdict": self.verdict,
        }

    def notes(self) -> list[str]:
        """Text lines between the statements and the verdict."""
        return []

    def to_text(self, trace: bool = False) -> str:
        lines = [line for s in self.statements for line in s.lines(trace)]
        lines += self.notes() + [f"verdict: {self.verdict}"]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @property
    def exit_code(self) -> int:
        return VERDICT_EXIT[self.verdict]


def presentation_dict(p: Presentation) -> dict:
    return {"generators": list(p.alphabet.names), "relators": [str(r) for r in p.relators]}


class CheckRun:
    """One run's budgets, and each presentation's H1 and enumeration, computed at most once.
    The memos key a presentation by its id (hashing it hashes every relator)
    and keep it beside its value, so that no other object takes that id."""

    def __init__(self, max_cosets: int, tietze_budget: int = TIETZE_BUDGET):
        self.max_cosets, self.tietze_budget = max_cosets, tietze_budget
        self._h1: dict[int, tuple[Presentation, tuple[int, list[int]]]] = {}
        self._enumerations: dict[int, tuple[Presentation, TrivialityCertificate | EnumResult]] = {}

    # the engines are looked up when called, so wrapping them (bench/tracing.py does) reaches checks
    def h1(self, p: Presentation) -> tuple[int, list[int]]:
        hit = self._h1.get(id(p))
        if hit is None:
            hit = self._h1[id(p)] = p, homology_invariants(p)
        return hit[1]

    def enumeration(self, p: Presentation) -> TrivialityCertificate | EnumResult:
        hit = self._enumerations.get(id(p))
        if hit is None:
            hit = self._enumerations[id(p)] = p, certify_trivial(p, self.max_cosets)
        return hit[1]


def _expect(ok: bool, detail: str, data: dict | None = None) -> tuple:
    return "pass" if ok else "fail", detail, {} if data is None else data, None


def _invariants(run: CheckRun, state: ManifoldState, euler: int, signature: int) -> tuple:
    ok = (state.euler, state.signature) == (euler, signature)
    detail = f"(e, sigma) = ({state.euler}, {state.signature})" + ("" if ok else f", expected ({euler}, {signature})")
    return _expect(ok, detail, {"euler": state.euler, "signature": state.signature})


def _size(run: CheckRun, p: Presentation, ngens: int, nrels: int) -> tuple:
    ok = (p.ngens, p.nrels) == (ngens, nrels)
    return _expect(ok, f"{p.ngens} generators, {p.nrels} relators" + ("" if ok else f", expected ({ngens}, {nrels})"))


def _trivial(run: CheckRun, p: Presentation) -> tuple:
    """Triviality of ``p``; the outcome is the enumeration's.

    A nonzero H1 shows the presented group nontrivial without enumerating
    (the outcome is then ``None``), and so does a closed coset table of index
    above 1.  That refutes triviality only for an exact presentation: a
    surjective bound stays inconclusive, since a nontrivial group can surject
    onto a trivial one.  An exhausted coset budget is inconclusive.
    """
    exact = p.exactness is Exactness.EXACT
    refuted = "fail" if exact else "inconclusive"
    bound = "the presented group is nontrivial ({}), but it only bounds pi1 from above"
    rank, torsion = run.h1(p)
    if (rank, torsion) != (0, []):
        evidence = f"H1 has rank {rank} and torsion {torsion}"
        detail = f"refuted without enumeration: {evidence}" if exact else bound.format(evidence)
        return refuted, detail, {"h1_rank": rank, "h1_torsion": torsion, "enumeration": "skipped"}, None
    outcome = run.enumeration(p)
    if not isinstance(outcome, TrivialityCertificate):
        data = {"index": outcome.index, "cosets_defined": outcome.defined}
        if outcome.index is None:
            detail = f"coset budget of {run.max_cosets} exhausted ({outcome.defined} defined)"
            return "inconclusive", detail, data, outcome
        detail = f"refuted: the group has order {outcome.index}" if exact else bound.format(f"order {outcome.index}")
        return refuted, detail, data, outcome
    result = outcome.result
    data = {"index": 1, "cosets_defined": result.defined, "cosets_collapsed": result.collapsed}
    detail = f"trivial: index 1 with {result.defined} cosets defined, {result.collapsed} collapsed"
    return "pass", detail, data, outcome


def _classify(run: CheckRun, state: ManifoldState, expected: tuple[int, int] | None = None) -> tuple:
    """Classify ``state`` from the triviality of its group; the outcome is the homeomorphism type.

    Without a certificate the triviality check's status and detail stand: a
    refuted group fails; an undecided one, or a surjective bound shown
    nontrivial, is inconclusive.  An ``expected`` (b+, b-) needs an exotic note.
    """
    status, detail, _, outcome = _trivial(run, state.pi1)
    if not isinstance(outcome, TrivialityCertificate):
        return status, detail, {}, None
    try:
        homeo = classify(state, outcome)
    except ManifoldError as err:
        return "fail", str(err), {}, None
    note = f" ({homeo.exotic_note})" if homeo.exotic_note else ""
    detail = f"b+ = {homeo.b_plus}, b- = {homeo.b_minus}: {homeo.description}{note}"
    data = {key: getattr(homeo, key) for key in ("b_plus", "b_minus", "description", "exotic_note")}
    ok = expected is None or ((homeo.b_plus, homeo.b_minus) == expected and bool(homeo.exotic_note))
    return "pass" if ok else "fail", detail, data, homeo


def _h1(run: CheckRun, p: Presentation, rank: int) -> tuple:
    """H1 is free abelian of rank ``rank``."""
    h1 = run.h1(p)
    return _expect(h1 == (rank, []), f"H1 = (rank {h1[0]}, torsion {h1[1]}), expected {f'Z^{rank}' if rank else 0}")


def _simplify(run: CheckRun, p: Presentation) -> tuple:
    """Only the empty presentation passes: a stall, like an exhausted step budget,
    shows nothing about the group.  The outcome is the final presentation and its trace."""
    simplified, trace = tietze_simplify(p, run.tietze_budget)
    eliminated = trace.eliminated_generators()
    data = {
        "steps": len(trace.steps),
        "complete": trace.complete,
        "eliminated": eliminated,
        "final_generators": list(simplified.alphabet.names),
        "final_relators": [str(r) for r in simplified.relators],
    }
    detail = (f"reached {simplified} in {len(trace.steps)} steps, eliminating {', '.join(eliminated) or 'nothing'}"
              if trace.complete else f"budget of {run.tietze_budget} steps exhausted")
    return "pass" if trace.complete and simplified.is_empty() else "inconclusive", detail, data, (simplified, trace)


def _replay(run: CheckRun, p: Presentation) -> tuple:
    """The paper's kill order replays against ``p``'s numbered relations; the outcome is the replay."""
    try:
        report = replay_kill_order(p)
    except ReplayError as err:
        return "fail", str(err), {}, None
    kills = [{"generator": s.generator, "relations": list(s.uses), "derivation": list(s.derivation)}
             for s in report.steps]
    return "pass", " -> ".join(report.killed), {"steps": kills}, report


# The one check table of verify_main_theorem and scripts: each check's function
# and positional (name, kind) parameters.  A function takes the run and its
# arguments (a paper claim may add one scripts do not state), returns (status,
# detail, data, outcome), and alone turns its engine's outcome into a status.
CHECKS: dict[str, tuple[Callable[..., tuple], tuple[tuple[str, str], ...]]] = {
    "trivial": (_trivial, (("target", "group"),)),
    "invariants": (_invariants, (("target", "state"), ("e", "int"), ("sigma", "int"))),
    "classify": (_classify, (("target", "state"),)),
    "size": (_size, (("target", "group"), ("generators", "int"), ("relators", "int"))),
    "h1": (_h1, (("target", "group"), ("rank", "int"))),
    # minimal, and by exactly the given chain of rules (a paper-only argument)
    "minimality": (lambda run, s, rules=None: _expect(
                       s.minimality is Minimality.MINIMAL and rules in (None, s.minimality_rules),
                       f"{s.minimality.value} via {'->'.join(s.minimality_rules) or 'nothing'}"),
                   (("target", "state"),)),
    # an odd form, as classification needs
    "parity": (lambda run, s: _expect(s.parity is Parity.ODD, s.parity.value), (("target", "state"),)),
    "symplectic": (lambda run, s: _expect(s.symplectic, str(s.symplectic)), (("target", "state"),)),
    "simplify": (_simplify, (("target", "group"),)),
    "replay": (_replay, (("target", "group"),)),
}


class ConstructionReport(Report):
    """The paper's report: its checks plus the objects they certify.

    ``blocks`` holds V, W and P; the assembled X is ``state``.
    """

    __slots__ = ("blocks", "state", "surgeries", "certificate", "trace", "simplified", "replay", "homeo",
                 "assumptions")
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

    def __init__(self, statements: tuple[StatementResult, ...], budgets: dict[str, int],
                 blocks: tuple[ManifoldState, ...], state: ManifoldState, surgeries: tuple[SurgeryRecord, ...],
                 certificate: TrivialityCertificate | None, trace: DerivationTrace, simplified: Presentation,
                 replay: KillReplayReport | None, homeo: HomeoType | None, assumptions: tuple[str, ...]):
        setfields(self, statements, budgets, blocks, state, surgeries, certificate, trace, simplified,
                  replay, homeo, assumptions)

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
            **super().to_dict(),
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
            "assumptions": list(self.assumptions),
            "axioms": list(self.AXIOMS),
        }

    def notes(self) -> list[str]:
        return (
            ["", "assumptions:"]
            + [f"  {a}" for a in self.assumptions]
            + ["axioms:"]
            + [f"  {a}" for a in self.AXIOMS]
        )


# -- end-to-end verification ---------------------------------------------------

# The paper's claims: statement, check, block and the check's arguments; only
# the paper expects the chain R1 -> R2 -> R3 and (b+, b-) = (1, 3), noted exotic.
CLAIMS: tuple[tuple, ...] = (
    ("invariants V", "invariants", "V", 0, 0),
    ("invariants W", "invariants", "W", 2, -2),
    ("invariants P", "invariants", "P", 0, 0),
    ("invariants X", "invariants", "X", 6, -2),
    ("presentation size X", "size", "X", 8, 20),
    ("H1 V", "h1", "V", 2),
    ("H1 X", "h1", "X", 0),
    ("minimality X", "minimality", "X", ("R1", "R2", "R3")),
    ("parity X", "parity", "X"),
    ("symplectic X", "symplectic", "X"),
    ("coset enumeration", "trivial", "X"),
    ("simplification", "simplify", "X"),
    ("kill-order replay", "replay", "X"),
    ("classification", "classify", "X", (1, 3)),
)


def verify_main_theorem(
    max_cosets: int = MAX_COSETS, tietze_budget: int = TIETZE_BUDGET
) -> ConstructionReport:
    """Run the whole construction and verify every claim of :data:`CLAIMS` through :data:`CHECKS`.

    Triviality of the final group is certified two independent ways (coset
    enumeration and generic simplification) and cross-checked against the
    scripted kill-order.  The verdict follows :func:`verdict_of`: a failed check
    makes it FAIL; an exhausted budget or a stalled simplification, INCONCLUSIVE.
    """
    x = assemble_x()
    states = {s.name: s for s in x.blocks + (x.state,)}
    run = CheckRun(max_cosets, tietze_budget)
    statements, outcomes = [], {}
    for index, (text, name, block, *args) in enumerate(CLAIMS):
        function, params = CHECKS[name]
        target = states[block] if params[0][1] == "state" else states[block].pi1
        status, detail, data, outcomes[name] = function(run, target, *args)
        statements.append(StatementResult(index, text, status, detail, data))
    simplified, trace = outcomes["simplify"]
    commutations = commutation_status(complement_data())
    assumptions = tuple(
        f"torus {torus} triple ({label}): {status}"
        for (torus, label), status in sorted(commutations.items())
        if status != "proved"
    )
    return ConstructionReport(
        statements=tuple(statements),
        budgets={"max_cosets": max_cosets, "tietze_budget": tietze_budget},
        blocks=(states["V"], states["W"], states["P"]),
        state=x.state,
        surgeries=x.surgeries,
        certificate=outcomes["trivial"] if isinstance(outcomes["trivial"], TrivialityCertificate) else None,
        trace=trace,
        simplified=simplified,
        replay=outcomes["replay"],
        homeo=outcomes["classify"],
        assumptions=assumptions,
    )
