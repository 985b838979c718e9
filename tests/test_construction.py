import ast
import itertools
import json
from pathlib import Path

import pytest

from conftest import relator_class
from sgcalc import construction, words
from sgcalc.construction import (
    CHECKS,
    KILL_SCRIPT,
    KillStep,
    ReplayError,
    assemble_p,
    assemble_p1,
    assemble_p2,
    assemble_v,
    assemble_w,
    assemble_x,
    build_p,
    build_p1,
    build_p2,
    build_v,
    build_w,
    build_x,
    CheckRun,
    commutation_status,
    complement_data,
    isolate_direction,
    replay_kill_order,
    verify_main_theorem,
)
from sgcalc.coset_enum import MAX_COSETS, TrivialityCertificate, certify_trivial, todd_coxeter
from sgcalc.manifolds import Minimality, Parity
from sgcalc.presentations import Presentation, homology_invariants
from sgcalc.tietze import tietze_simplify
from sgcalc.words import (
    Alphabet,
    WordError,
    are_conjugate,
    commutator,
    conjugate,
    substitute,
)

GOLDEN = Path(__file__).parent / "golden"


def golden_lines(name):
    return (GOLDEN / name).read_text().splitlines()


# -- complement data -----------------------------------------------------------

def test_complement_data_torus_triples():
    data = complement_data(closures=())
    ab = data.alphabet
    x, y, a, b = (ab.gen(n) for n in "xyab")
    assert data.t1.mu == commutator(~b, ~y)
    assert data.t1.m == x and data.t1.l == a
    assert data.t2.mu == commutator(~x, b)
    assert data.t2.m == y and data.t2.l == b * a * ~b


def test_complement_data_universal_relators_exactly():
    data = complement_data(closures=())
    ab = data.alphabet
    x, y, a, b = (ab.gen(n) for n in "xyab")
    assert data.universal_relators == (
        commutator(x, a),
        commutator(y, a),
        commutator(y, b * a * ~b),
        commutator(commutator(x, y), b),
        commutator(x, commutator(a, b)),
        commutator(y, commutator(a, b)),
    )
    assert data.closure_relators == ()


def test_variant_closures():
    four = complement_data()
    ab = four.alphabet
    assert four.closure_relators == (
        commutator(ab.gen("x"), ab.gen("y")),
        commutator(ab.gen("a"), ab.gen("b")),
    )
    second = complement_data(closures=(("a", "b"),))
    assert second.closure_relators == (commutator(ab.gen("a"), ab.gen("b")),)
    first = complement_data(closures=(("x", "y"),))
    assert first.closure_relators == (commutator(ab.gen("x"), ab.gen("y")),)


def test_relabel_to_v_symbols():
    target = Alphabet(("s1", "t1", "s2", "t2"))
    images = {
        "x": target.gen("s1"),
        "y": target.gen("t1"),
        "a": target.gen("s2"),
        "b": target.gen("t2"),
    }
    data = complement_data(images)
    assert data.t1.mu == commutator(target.gen("t2", -1), target.gen("t1", -1))
    assert data.t1.m == target.gen("s1") and data.t1.l == target.gen("s2")


def test_relabel_through_quarter_turn():
    target = Alphabet(("x1", "y1", "s1", "t1"))
    images = {
        "x": target.gen("y1", -1),
        "y": target.gen("x1"),
        "a": target.gen("t1", -1),
        "b": target.gen("s1"),
    }
    data = complement_data(images, closures=(("x", "y"),))
    # l2 = b a b^-1 becomes s1 t1^-1 s1^-1
    assert data.t2.l == target.gen("s1") * target.gen("t1", -1) * target.gen("s1", -1)
    # the closure pair renders as the commutator of the positive generators
    assert data.closure_relators == (commutator(target.gen("x1"), target.gen("y1")),)


def test_relabel_identity_map_is_noop():
    data = complement_data()
    ab = data.alphabet
    same = complement_data({n: ab.gen(n) for n in ab.names})
    assert same == data


def test_relabel_rejects_non_invertible_maps():
    ab = complement_data().alphabet
    with pytest.raises(WordError):
        complement_data({n: ab.gen("x") for n in ab.names})
    with pytest.raises(WordError):
        complement_data({n: ab.gen(n) ** 2 for n in ab.names})
    with pytest.raises(WordError, match="no image for generator 'b'"):
        complement_data({n: ab.gen(n) for n in "xya"})
    other = Alphabet(("x", "y", "a", "b", "c"))
    with pytest.raises(WordError, match="images span different alphabets"):
        complement_data({"x": ab.gen("x"), "y": ab.gen("y"), "a": ab.gen("a"), "b": other.gen("b")})


@pytest.mark.parametrize("closures", [(), (("x", "y"),), (("a", "b"),), (("x", "y"), ("a", "b"))])
def test_complement_data_at_images_is_the_base_data_pushed_through(closures):
    """Evaluating at an assignment equals substituting it into the base data, for all
    384 signed assignments of x, y, a, b onto one 4-letter alphabet."""
    base = complement_data(closures=closures)
    target = Alphabet(("s1", "t1", "s2", "t2"))
    for order in itertools.permutations(target.names):
        for signs in itertools.product((1, -1), repeat=4):
            images = {n: target.gen(g, e) for n, g, e in zip("xyab", order, signs)}
            data = complement_data(images, closures)

            def push(w):
                return substitute(w, images, target)

            for mark, pushed in ((data.t1, base.t1), (data.t2, base.t2)):
                assert (mark.id, mark.mu, mark.m, mark.l) == (
                    pushed.id, push(pushed.mu), push(pushed.m), push(pushed.l),
                )
            assert data.universal_relators == tuple(map(push, base.universal_relators))
            assert [relator_class(r) for r in data.closure_relators] == [
                relator_class(push(r)) for r in base.closure_relators
            ]


def test_isolate_direction():
    ab = Alphabet(("s1", "s2", "t2"))
    raw = ab.gen("s1", -1) * ab.gen("t2") * ab.gen("s1") * ab.gen("s2", -1) * ab.gen("t2", -1)
    rotated, conj = isolate_direction(raw, "s2")
    assert rotated == commutator(ab.gen("t2", -1), ab.gen("s1", -1)) * ab.gen("s2", -1)
    assert conj == ab.gen("t2", -1)
    assert conjugate(raw, conj) == rotated


# -- golden relator files --------------------------------------------------------

def test_v_relators_match_golden():
    assert [str(r) for r in build_v().pi1.relators] == golden_lines("v_relators.txt")


def test_p1_relators_match_golden():
    assert [str(r) for r in build_p1().pi1.relators] == golden_lines("p1_relators.txt")


def test_p2_relators_match_golden():
    assert [str(r) for r in build_p2().pi1.relators] == golden_lines("p2_relators.txt")


def test_x_relators_match_golden():
    state = build_x()
    assert list(state.pi1.alphabet.names) == ["x1", "y1", "s1", "t1", "x2", "y2", "s2", "t2"]
    assert [str(r) for r in state.pi1.relators] == golden_lines("x_relators.txt")


def test_construction_matches_golden():
    """Every block's surface marks, torus triples, minimality rules, parity and relators,
    X's, the surgery records and the stated assumptions."""
    payload = verify_main_theorem().to_dict()
    golden = json.loads((GOLDEN / "construction.json").read_text())
    assert {key: payload[key] for key in golden} == golden
    assert set(golden) == {"blocks", "result", "surgeries", "assumptions"}


def test_surgery_normalization_records_are_proved_rotations():
    for build in (assemble_v, assemble_p1, assemble_p2):
        for record in build().surgeries:
            assert are_conjugate(record.raw_relator, record.relator)
            assert conjugate(record.raw_relator, record.conjugator) == record.relator


@pytest.mark.parametrize(
    "assemble,at",
    [(assemble_v, slice(4, 6)), (assemble_p1, slice(0, 2)), (assemble_p2, slice(0, 2))],
    ids=["V", "P1", "P2"],
)
def test_surgery_relators_are_placed_once(assemble, at):
    # V numbers its kept relators first, P1 and P2 their surgery relators first
    built = assemble()
    relators = built.state.pi1.relators
    surgeries = tuple(record.relator for record in built.surgeries)
    assert len(relators) == 6 and relators[at] == surgeries
    kept = relators[:at.start] + relators[at.stop:]
    assert len(set(relators)) == 6
    for record in built.surgeries:
        assert record.raw_relator == record.relator or record.raw_relator not in relators
        assert not any(are_conjugate(record.relator, r) for r in kept)


def test_v_second_surgery_is_the_documented_conjugation():
    record = assemble_v().surgeries[1]
    assert str(record.raw_relator) == "s1^-1 t2 s1 s2^-1 t2^-1"
    assert str(record.conjugator) == "t2^-1"
    assert str(record.relator) == "t2^-1 s1^-1 t2 s1 s2^-1"


def test_builders_set_no_geometric_fact_by_hand():
    # R3's flag comes from blow_up and F from symplectic_sum; the builders only mark the torus factors
    tree = ast.parse(Path(construction.__file__).read_text())
    flags = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.keyword) and node.arg == "no_minus_one_sphere_off_surface"]
    assert flags == []

    def marks(root):
        return {node.lineno for node in ast.walk(root)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SurfaceMark"}

    block = next(node for node in tree.body if getattr(node, "name", None) == "_surgery_block")
    assert marks(tree) == marks(block) != set()


# -- block invariants -------------------------------------------------------------

def test_v_invariants():
    v = build_v()
    assert (v.euler, v.signature) == (0, 0)
    assert v.symplectic
    assert v.minimality is Minimality.MINIMAL and v.minimality_rules == ("R1",)
    assert homology_invariants(v.pi1) == (2, [])
    assert {m.id for m in v.surfaces} == {"H", "K"}
    assert v.transverse_pairs == (("H", "K"),)


def test_w_invariants():
    w = build_w()
    assert (w.euler, w.signature) == (2, -2)
    g = w.surface("G")
    assert g.genus == 2
    assert g.self_intersection == 0
    assert g.meridian_killed
    assert g.no_minus_one_sphere_off_surface
    assert tuple(str(b) for b in g.boundary_generators) == ("s1", "t1", "s2", "t2")
    # blowups never change the group bound
    assert w.pi1.relators == build_v().pi1.relators
    assert w.minimality is Minimality.NOT_MINIMAL
    assert w.parity is Parity.ODD


def test_p_invariants():
    p = build_p()
    assert (p.euler, p.signature) == (0, 0)
    assert p.pi1.ngens == 8 and p.pi1.nrels == 14
    # only s1 and s2 survive abelianization of the 14 relations
    assert homology_invariants(p.pi1) == (2, [])
    assert str(p.pi1.relators[12]) == "x1 x2^-1"
    assert str(p.pi1.relators[13]) == "y1 y2^-1"
    assert p.minimality is Minimality.MINIMAL and p.minimality_rules == ("R1", "R2")
    f = p.surface("F")
    assert f.genus == 2 and f.self_intersection == 0
    assert tuple(str(b) for b in f.boundary_generators) == ("s1", "t1", "s2", "t2")


@pytest.mark.parametrize("i, build", [(1, build_p1), (2, build_p2)])
def test_pi_marks_both_torus_factors(i, build):
    block = build()
    assert [(m.id, tuple(map(str, m.boundary_generators))) for m in block.surfaces] == [
        (f"H{i}", (f"x{i}", f"y{i}")), ("F", (f"s{i}", f"t{i}"))]
    assert block.transverse_pairs == ((f"H{i}", "F"),)


def test_x_invariants():
    x = build_x()
    assert (x.euler, x.signature) == (6, -2)
    assert x.pi1.ngens == 8 and x.pi1.nrels == 20
    assert x.minimality is Minimality.MINIMAL
    assert x.minimality_rules == ("R1", "R2", "R3")
    assert x.parity is Parity.ODD
    assert x.symplectic
    assert homology_invariants(x.pi1) == (0, [])


def test_x_is_quotient_of_p_by_the_gluing_relators():
    p, x = build_p(), build_x()
    assert x.pi1.alphabet == p.pi1.alphabet
    assert x.pi1.relators[:14] == p.pi1.relators
    v = build_v()
    assert [str(r) for r in x.pi1.relators[14:]] == [str(r) for r in v.pi1.relators]


def test_blocks_are_rebuilt_identically():
    assert build_x().pi1 == build_x().pi1


def test_p2_block_relators_via_p_assembly():
    p = assemble_p()
    assert [str(r) for r in p.state.pi1.relators[6:12]] == golden_lines("p2_relators.txt")


# -- triviality of the assembled group --------------------------------------------

def test_x_group_certified_trivial():
    x = build_x()
    cert = certify_trivial(x.pi1)
    assert isinstance(cert, TrivialityCertificate)
    assert cert.result.index == 1
    assert cert.result.defined <= 100_000


def test_x_simplifies_to_empty_presentation():
    x = build_x()
    final, trace = tietze_simplify(x.pi1, 2000)
    assert trace.complete
    assert final.is_empty()
    assert sorted(trace.eliminated_generators()) == sorted(x.pi1.alphabet.names)


# -- scripted kill-order ------------------------------------------------------------

def test_kill_script_citations():
    assert tuple(s.generator for s in KILL_SCRIPT) == (
        "y1", "y2", "t1", "s1", "s2", "t2", "x1", "x2",
    )
    cited = set()
    for step in KILL_SCRIPT:
        cited.update(step.uses)
        for _, cites in step.commuting:
            cited.update(cites)
    assert cited == {1, 2, 4, 7, 8, 10, 13, 14, 19, 20}


def test_replay_kill_order_succeeds():
    report = replay_kill_order(build_x().pi1)
    assert report.killed == ("y1", "y2", "t1", "s1", "s2", "t2", "x1", "x2")
    first = report.steps[0]
    assert first.uses == (1, 19)
    assert len(first.derivation) >= 3


def test_replay_fails_without_relation_19():
    with pytest.raises(ReplayError) as info:
        replay_kill_order(build_x().pi1, drop=(19,))
    assert info.value.generator == "y1"
    assert "19" in info.value.reason


# Each cited relation in turn becomes the identity word, numbering kept; the
# replay must stop at the first step that needs it.  Relations 4, 10 and 13
# reach the commuting argument of y1's step.
IDENTITY_CONTROLS = [
    (1, "y1", "relation 1 rewrites no generator of y1"),
    (2, "t1", "relation 2 rewrites no generator of t1"),
    (4, "y1", "cited relations do not show x1 and t1 commute"),
    (7, "t2", "relation 7 rewrites no generator of t2"),
    (8, "x1", "relation 8 rewrites no generator of x2"),
    (10, "y1", "cited relations do not show x1 and t2 commute"),
    (13, "y1", "cited relations do not show x1 and t2 commute"),
    (14, "y2", "relation 14 rewrites no generator of y2"),
    (19, "y1", "relation 19 rewrites no generator of s1^-1 x1^-1 s1 x1"),
    (20, "s2", "relation 20 rewrites no generator of s2"),
]


@pytest.mark.parametrize("number, generator, reason", IDENTITY_CONTROLS)
def test_replay_fails_when_a_cited_relation_is_the_identity(number, generator, reason):
    p = build_x().pi1
    relators = list(p.relators)
    relators[number - 1] = p.alphabet.identity()
    with pytest.raises(ReplayError) as info:
        replay_kill_order(Presentation(p.alphabet, relators, p.exactness))
    assert (info.value.generator, info.value.reason) == (generator, reason)
    assert str(info.value) == f"kill step for {generator!r} failed: {reason}"


# Each replay refusal reached by one mutated kill script: (script, failing generator, reason)
Y1_USES = (1, 19)
SCRIPT_CONTROLS = {
    "no-mobile": ((KillStep("y1", Y1_USES, ((("x1", "t1"), (4,)), (("s2", "t2"), (16,)))),) + KILL_SCRIPT[1:],
                  "y1", "commuting pairs share no mobile generator"),
    "stuck": ((KillStep("y1", Y1_USES, ((("x1", "t1"), (4,)),)),) + KILL_SCRIPT[1:],
              "y1", "x1 is not known to commute with ['t2']"),
    "no-cancel": ((KillStep("x1", (13,), ((("x2", "t2"), (10,)),)),), "x1", "x2 does not cancel"),
    "not-identity": ((KillStep("y1", Y1_USES),) + KILL_SCRIPT[1:], "y1",
                     "derivation leaves t1^-1 t2^-1 t1 t2 x1^-1 t2^-1 t1^-1 t2 t1 x1, not the identity"),
    "never-killed": (KILL_SCRIPT[:-1], "x2", "never killed by the script"),
}


@pytest.mark.parametrize("name", SCRIPT_CONTROLS)
def test_replay_refuses_a_mutated_kill_script(monkeypatch, name):
    kill_script, generator, reason = SCRIPT_CONTROLS[name]
    monkeypatch.setattr(construction, "KILL_SCRIPT", kill_script)
    with pytest.raises(ReplayError) as info:
        replay_kill_order(build_x().pi1)
    assert (info.value.generator, info.value.reason) == (generator, reason)


def test_replay_fails_on_wrong_presentation():
    with pytest.raises(ReplayError):
        replay_kill_order(build_p().pi1)


# -- assumptions and the full verification -----------------------------------------

def test_commutation_status_of_torus_triples():
    status = commutation_status(complement_data())
    assert status[("T1", "m,l")] == "proved"
    assert status[("T2", "m,l")] == "proved"
    assert status[("T1", "mu,m")].startswith("assumed")
    assert status[("T2", "mu,m")].startswith("assumed")


def test_verify_main_theorem_passes():
    report = verify_main_theorem()
    assert report.verdict == "PASS"
    assert all(c.ok for c in report.statements)
    assert report.homeo is not None
    assert (report.homeo.b_plus, report.homeo.b_minus) == (1, 3)
    assert report.certificate is not None
    assert report.certificate.result.index == 1
    assert report.simplified is not None and report.simplified.is_empty()
    names = [c.text for c in report.statements]
    assert "kill-order replay" in names and "classification" in names


def _words_built(monkeypatch) -> list:
    """A list that gains an item for each ``Word`` built, counted at ``Word.__init__``."""
    built = []
    word_init = words.Word.__init__

    def counted_init(self, *args):
        built.append(1)
        word_init(self, *args)

    monkeypatch.setattr(words.Word, "__init__", counted_init)
    return built


def test_the_proof_path_builds_no_intermediate_words(monkeypatch):
    """Machine-independent work of the verdict: ``Word``s built.  A product,
    power, commutator or substitution that built intermediate words on the
    way to its result would pass the bounds."""
    built = _words_built(monkeypatch)
    assemble_x()
    for_x = len(built)
    assert verify_main_theorem().verdict == "PASS"
    verdict = len(built) - for_x
    assert for_x <= 235 and verdict <= 473, (for_x, verdict)


def test_enumerating_x_builds_no_word(monkeypatch):
    # the enumerator reads each relator's cyclic core straight from its codes
    x = build_x().pi1
    built = _words_built(monkeypatch)
    assert todd_coxeter(x).index == 1
    assert built == []


def test_verify_main_theorem_budget_exhaustion_is_inconclusive():
    report = verify_main_theorem(max_cosets=10)
    assert report.verdict == "INCONCLUSIVE"
    assert report.certificate is None


def test_verify_report_dict_is_serializable():
    import json

    report = verify_main_theorem()
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["verdict"] == "PASS"
    classification = next(s for s in payload["statements"] if s["statement"] == "classification")
    assert classification["data"]["description"] == "CP^2 # 3 CP^2bar"
    assert len(payload["result"]["relators"]) == 20


def test_classification_fails_for_a_trivial_group_without_an_odd_form():
    state, run = build_x().replace(parity=Parity.EVEN), CheckRun(MAX_COSETS)
    assert CHECKS["trivial"][0](run, state.pi1)[0] == "pass"
    assert CHECKS["classify"][0](run, state) == ("fail", "only odd intersection forms are classified here", {}, None)


def test_a_stalled_simplification_of_a_certified_trivial_group_is_inconclusive(monkeypatch):
    # The all-(+1) member of the surgery-sign family: HLT certifies X trivial
    # and the kill order replays, but Tietze stalls short of the empty
    # presentation.  A stall shows nothing about the group.
    v = construction._surgery_block(
        "V", ("s1", "t1", "s2", "t2"), images=(("s1", 1), ("t1", 1), ("s2", 1), ("t2", 1)),
        closed=(("x", "y"), ("a", "b")), plan=(("T1", 1, 0, 1), ("T2", 0, 1, 1)),
        marks=(("H", "s1", "t1"), ("K", "s2", "t2")), closures_first=True,
    )
    p2 = construction._closed_first_block(2, (("T1", 0, 1, 1), ("T2", 1, 0, 1)))
    monkeypatch.setattr(construction, "assemble_v", lambda: v)
    monkeypatch.setattr(construction, "assemble_p2", lambda: p2)
    report = verify_main_theorem()
    statuses = {s.text: s.status for s in report.statements}
    assert report.verdict == "INCONCLUSIVE"
    assert {text for text, status in statuses.items() if status != "pass"} == {"simplification"}
    assert statuses["simplification"] == "inconclusive"
    assert report.trace.complete and not report.simplified.is_empty()
    assert report.certificate is not None and report.replay is not None and report.homeo is not None
