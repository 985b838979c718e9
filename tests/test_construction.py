from pathlib import Path

import pytest

from sgcalc.construction import (
    KILL_SCRIPT,
    ReplayError,
    Variant,
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
    commutation_status,
    complement_data,
    isolate_direction,
    relabel,
    replay_kill_order,
    verify_main_theorem,
)
from sgcalc.coset_enum import TrivialityCertificate, certify_trivial
from sgcalc.manifolds import Minimality, Parity
from sgcalc.presentations import homology_invariants
from sgcalc.tietze import tietze_simplify
from sgcalc.words import Alphabet, WordError, are_conjugate, commutator, conjugate

GOLDEN = Path(__file__).parent / "golden"


def golden_lines(name):
    return (GOLDEN / name).read_text().splitlines()


# -- complement data -----------------------------------------------------------

def test_complement_data_torus_triples():
    data = complement_data(Variant.OPEN_OPEN)
    ab = data.alphabet
    x, y, a, b = (ab.gen(n) for n in "xyab")
    assert data.t1.mu == commutator(~b, ~y)
    assert data.t1.m == x and data.t1.l == a
    assert data.t2.mu == commutator(~x, b)
    assert data.t2.m == y and data.t2.l == b * a * ~b


def test_complement_data_universal_relators_exactly():
    data = complement_data(Variant.OPEN_OPEN)
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
    four = complement_data(Variant.FOUR_TORUS)
    ab = four.alphabet
    assert four.closure_relators == (
        commutator(ab.gen("x"), ab.gen("y")),
        commutator(ab.gen("a"), ab.gen("b")),
    )
    second = complement_data(Variant.CLOSED_SECOND)
    assert second.closure_relators == (commutator(ab.gen("a"), ab.gen("b")),)
    first = complement_data(Variant.CLOSED_FIRST)
    assert first.closure_relators == (commutator(ab.gen("x"), ab.gen("y")),)


def test_relabel_to_v_symbols():
    target = Alphabet(("s1", "t1", "s2", "t2"))
    images = {
        "x": target.gen("s1"),
        "y": target.gen("t1"),
        "a": target.gen("s2"),
        "b": target.gen("t2"),
    }
    data = relabel(complement_data(Variant.FOUR_TORUS), images)
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
    data = relabel(complement_data(Variant.CLOSED_FIRST), images)
    # l2 = b a b^-1 becomes s1 t1^-1 s1^-1
    assert data.t2.l == target.gen("s1") * target.gen("t1", -1) * target.gen("s1", -1)
    # the closure pair renders as the commutator of the positive generators
    assert data.closure_relators == (commutator(target.gen("x1"), target.gen("y1")),)


def test_relabel_identity_map_is_noop():
    data = complement_data(Variant.FOUR_TORUS)
    ab = data.alphabet
    same = relabel(data, {n: ab.gen(n) for n in ab.names})
    assert same == data


def test_relabel_rejects_non_invertible_maps():
    data = complement_data(Variant.FOUR_TORUS)
    ab = data.alphabet
    with pytest.raises(WordError):
        relabel(data, {n: ab.gen("x") for n in ab.names})
    with pytest.raises(WordError):
        relabel(data, {n: ab.gen(n) ** 2 for n in ab.names})


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


def test_surgery_normalization_records_are_proved_rotations():
    for build in (assemble_v, assemble_p1, assemble_p2):
        for record in build().surgeries:
            assert are_conjugate(record.raw_relator, record.relator)
            assert conjugate(record.raw_relator, record.conjugator) == record.relator


def test_v_second_surgery_is_the_documented_conjugation():
    record = assemble_v().surgeries[1]
    assert str(record.raw_relator) == "s1^-1 t2 s1 s2^-1 t2^-1"
    assert str(record.conjugator) == "t2^-1"
    assert str(record.relator) == "t2^-1 s1^-1 t2 s1 s2^-1"


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


def test_p_optional_wall_relation():
    p = assemble_p(include_wall_relation=True).state
    assert p.pi1.nrels == 15
    ab = p.pi1.alphabet
    wall = commutator(ab.gen("s1"), ab.gen("t1")) * commutator(ab.gen("s2"), ab.gen("t2"))
    assert p.pi1.relators[-1] == wall


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
    assert len(cert.witnesses) == 8


def test_x_simplifies_to_empty_presentation():
    x = build_x()
    final, trace = tietze_simplify(x.pi1, 2000)
    assert trace.complete
    assert final.is_empty()
    assert sorted(trace.eliminated_generators()) == sorted(x.pi1.alphabet.names)


def test_extra_relations_do_not_change_the_conclusions():
    """Optional relators (off by default) leave every certificate intact."""
    base = assemble_v().state
    extra = assemble_v(extra_relations=True).state
    assert extra.pi1.nrels == base.pi1.nrels + 7
    assert homology_invariants(extra.pi1) == homology_invariants(base.pi1)
    p1_extra = assemble_p1(extra_relations=True).state
    assert homology_invariants(p1_extra.pi1) == homology_invariants(build_p1().pi1)


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


def test_replay_fails_on_wrong_presentation():
    with pytest.raises(ReplayError):
        replay_kill_order(build_p().pi1)


# -- assumptions and the full verification -----------------------------------------

def test_commutation_status_of_torus_triples():
    status = commutation_status(complement_data(Variant.FOUR_TORUS))
    assert status[("T1", "m,l")] == "proved"
    assert status[("T2", "m,l")] == "proved"
    assert status[("T1", "mu,m")].startswith("assumed")
    assert status[("T2", "mu,m")].startswith("assumed")


def test_verify_main_theorem_passes():
    report = verify_main_theorem()
    assert report.verdict == "PASS"
    assert all(c.ok for c in report.checks)
    assert report.homeo is not None
    assert (report.homeo.b_plus, report.homeo.b_minus) == (1, 3)
    assert report.certificate is not None
    assert report.enum_stats.index == 1
    assert report.simplified is not None and report.simplified.is_empty()
    names = [c.text for c in report.checks]
    assert "kill-order replay" in names and "classification" in names


def test_verify_main_theorem_budget_exhaustion_is_inconclusive():
    report = verify_main_theorem(max_cosets=10)
    assert report.verdict == "INCONCLUSIVE"
    assert report.certificate is None


def test_verify_report_dict_is_serializable():
    import json

    report = verify_main_theorem()
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["verdict"] == "PASS"
    assert payload["classification"]["description"] == "CP^2 # 3 CP^2bar"
    assert len(payload["result"]["relators"]) == 20
