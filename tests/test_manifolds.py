import pytest

from sgcalc.construction import build_v
from sgcalc.coset_enum import TrivialityCertificate, certify_trivial
from sgcalc.manifolds import (
    LagrangianTorusMark,
    ManifoldError,
    ManifoldState,
    Minimality,
    Parity,
    SurfaceMark,
    blow_up,
    classify,
    luttinger,
    resolve_intersection,
    symplectic_sum,
)
from sgcalc.presentations import Exactness, Presentation
from sgcalc.words import Alphabet, commutator


def four_torus_block():
    """Surgery template matching the -1/-1 block: marked tori and surfaces."""
    ab = Alphabet(("s1", "t1", "s2", "t2"))
    s1, t1, s2, t2 = (ab.gen(n) for n in ab.names)
    pres = Presentation(
        ab,
        (
            commutator(s1, t1),
            commutator(s2, t2),
            commutator(s1, s2),
            commutator(t1, s2),
        ),
        Exactness.SURJECTIVE_BOUND,
    )
    return ManifoldState(
        pi1=pres,
        euler=0,
        signature=0,
        symplectic=True,
        parity=Parity.EVEN,
        surfaces=(
            SurfaceMark("H", 1, 0, (s1, t1)),
            SurfaceMark("K", 1, 0, (s2, t2)),
        ),
        tori=(
            LagrangianTorusMark("T1", commutator(~t2, ~t1), s1, s2),
            LagrangianTorusMark("T2", commutator(~s1, t2), t1, t2 * s2 * ~t2),
        ),
        transverse_pairs=(("H", "K"),),
        two_torus_pattern=True,
    )


def trivial_odd_state(euler, signature, minimality_rules=()):
    p = Presentation(Alphabet(()), (), Exactness.SURJECTIVE_BOUND)
    return ManifoldState(
        pi1=p,
        euler=euler,
        signature=signature,
        symplectic=True,
        minimality_rules=minimality_rules,
        parity=Parity.ODD,
    )


# -- surface mark invariants ---------------------------------------------------

def test_genus_two_surface_needs_four_boundary_generators():
    ab = Alphabet(("s1", "t1", "s2", "t2"))
    with pytest.raises(ManifoldError):
        SurfaceMark("G", 2, 0, (ab.gen("s1"), ab.gen("t1")))


def test_a_meridian_is_killed_exactly_when_a_reason_is_recorded():
    ab = Alphabet(("s1", "t1"))
    boundary = (ab.gen("s1"), ab.gen("t1"))
    assert SurfaceMark("G", 1, 0, boundary, meridian_killed_reason="r").meridian_killed
    assert not SurfaceMark("G", 1, 0, boundary).meridian_killed
    assert "meridian_killed" not in SurfaceMark._fields


def test_state_refuses_inconsistent_marks():
    state = four_torus_block()
    h, k = state.surfaces
    t1 = state.tori[0]
    with pytest.raises(ManifoldError, match=r"two surface marks share an id: \['H'\]"):
        state.replace(surfaces=(h, k, h.replace(self_intersection=1)))
    with pytest.raises(ManifoldError, match=r"two torus marks share an id: \['T1'\]"):
        state.replace(tori=state.tori + (t1,))
    with pytest.raises(ManifoldError, match="names a surface the state lacks"):
        state.replace(transverse_pairs=(("H", "K"), ("H", "Q")))


# -- Luttinger surgery ----------------------------------------------------------

def test_luttinger_adds_surgery_relator():
    state = four_torus_block()
    ab = state.pi1.alphabet
    out = luttinger(state, "T1", 1, 0, -1)
    expected = commutator(ab.gen("t2", -1), ab.gen("t1", -1)) * ab.gen("s1", -1)
    assert out.pi1.relators[-1] == expected
    assert (out.euler, out.signature) == (0, 0)
    assert out.symplectic
    assert all(t.id != "T1" for t in out.tori)


def test_luttinger_second_torus_relator_is_conjugate_of_isolated_form():
    from sgcalc.words import are_conjugate

    state = four_torus_block()
    ab = state.pi1.alphabet
    out = luttinger(state, "T2", 0, 1, -1)
    raw = out.pi1.relators[-1]
    isolated = commutator(ab.gen("t2", -1), ab.gen("s1", -1)) * ab.gen("s2", -1)
    assert are_conjugate(raw, isolated)


def test_luttinger_rejects_bad_input():
    state = four_torus_block()
    with pytest.raises(ManifoldError):
        luttinger(state, "T1", 1, 0, 0)
    with pytest.raises(ManifoldError):
        luttinger(state, "T1", 2, 4, 1)
    with pytest.raises(ManifoldError):
        luttinger(state, "T9", 1, 0, 1)


def test_unknown_torus_names_the_tori_the_state_has():
    state = four_torus_block()
    with pytest.raises(ManifoldError, match=r"this state has tori \['T1', 'T2'\]"):
        luttinger(state, "T9", 1, 0, 1)
    with pytest.raises(ManifoldError, match="this state has no Lagrangian torus marks"):
        luttinger(state.replace(tori=()), "T1", 1, 0, 1)


def test_luttinger_minimality_rule_r1():
    state = four_torus_block()
    once = luttinger(state, "T1", 1, 0, -1)
    assert once.minimality is Minimality.UNKNOWN
    twice = luttinger(once, "T2", 0, 1, -1)
    assert twice.minimality is Minimality.MINIMAL
    assert twice.minimality_rules == ("R1",)


def test_luttinger_mixed_direction_breaks_r1():
    state = four_torus_block()
    once = luttinger(state, "T1", 1, 1, -1)
    twice = luttinger(once, "T2", 0, 1, -1)
    assert twice.minimality is Minimality.UNKNOWN


# -- blowups --------------------------------------------------------------------

def test_blow_up_arithmetic():
    state = four_torus_block()
    out = blow_up(state)
    assert (out.euler, out.signature) == (1, -1)
    assert out.parity is Parity.ODD
    assert out.minimality is Minimality.NOT_MINIMAL
    assert out.minimality_rules == ("R4",)
    assert out.pi1 == state.pi1


def test_blow_up_on_surface_kills_meridian_and_fixes_normal_bundle():
    state = four_torus_block()
    state = resolve_intersection(state, "H", "K", new_id="G")
    g = state.surface("G")
    assert g.genus == 2 and g.self_intersection == 2
    out = blow_up(state, on_surface="G", count=2)
    g = out.surface("G")
    assert g.meridian_killed and g.meridian_killed_reason
    assert g.self_intersection == 0 and g.normal_bundle == "trivial"
    assert (out.euler, out.signature) == (2, -2)


def test_blow_up_unknown_surface():
    with pytest.raises(ManifoldError):
        blow_up(four_torus_block(), on_surface="Q")


def _minimal_block():
    out = luttinger(luttinger(four_torus_block(), "T1", 1, 0, -1), "T2", 0, 1, -1)
    assert out.minimality is Minimality.MINIMAL
    return out


def _flags(state):
    return {m.id: m.no_minus_one_sphere_off_surface for m in state.surfaces}


def test_blow_up_on_g_of_a_minimal_state_flags_g():
    g_state = resolve_intersection(_minimal_block(), "H", "K", new_id="G")
    w = blow_up(g_state, on_surface="G", count=2)
    assert _flags(w) == {"G": True}
    # every exceptional sphere still meets G after one more blowup on it
    assert _flags(blow_up(w, on_surface="G")) == {"G": True}
    # a blowup off every surface adds a -1 sphere that misses G
    assert _flags(blow_up(w)) == {"G": False}


def test_sum_keeps_a_kept_surfaces_flag_only_across_a_minimal_side():
    """A -1 sphere of a side that is not minimal survives the sum and misses the other side's surfaces."""
    flagged = blow_up(_minimal_block(), on_surface="H")
    minimal = _torus_block_pair()[1]
    assert minimal.minimality is Minimality.MINIMAL
    assert _flags(symplectic_sum(flagged, "K", blow_up(minimal), "B", ((0, 0), (1, 1)))) == {"H": False}
    assert _flags(symplectic_sum(flagged, "K", minimal, "B", ((0, 0), (1, 1)))) == {"H": True}
    assert _flags(symplectic_sum(minimal, "B", flagged, "K", ((0, 0), (1, 1)))) == {"H": True}


def test_blow_up_flags_only_the_surface_of_a_minimal_state():
    assert _flags(blow_up(_minimal_block(), on_surface="H")) == {"H": True, "K": False}
    assert _flags(blow_up(_minimal_block())) == {"H": False, "K": False}
    # an unflagged surface of a state not known to be minimal gets no flag
    not_minimal = blow_up(_minimal_block())
    assert not_minimal.minimality is Minimality.NOT_MINIMAL
    assert _flags(blow_up(not_minimal, on_surface="H")) == {"H": False, "K": False}
    assert _flags(blow_up(four_torus_block(), on_surface="H")) == {"H": False, "K": False}


# -- intersection resolution -----------------------------------------------------

def test_resolve_intersection_merges_marks():
    state = four_torus_block()
    out = resolve_intersection(state, "H", "K", new_id="G")
    g = out.surface("G")
    assert g.genus == 2
    assert tuple(str(w) for w in g.boundary_generators) == ("s1", "t1", "s2", "t2")
    assert (out.euler, out.signature) == (state.euler, state.signature)
    assert out.pi1 == state.pi1
    assert out.transverse_pairs == ()


def test_resolve_intersection_keeps_a_killed_meridian_and_r3s_flag():
    """The exceptional sphere that met H once meets the merged surface once,
    whichever side H is on, so the merged surface keeps both facts."""
    v = build_v()
    assert v.minimality is Minimality.MINIMAL
    for first, second in (("H", "K"), ("K", "H")):
        merged = resolve_intersection(blow_up(v, "H"), first, second).surface(f"{first}+{second}")
        assert merged.meridian_killed_reason == "meets an exceptional sphere transversally once"
        assert merged.no_minus_one_sphere_off_surface
    plain = resolve_intersection(v, "H", "K").surface("H+K")
    assert not plain.meridian_killed and not plain.no_minus_one_sphere_off_surface


def test_resolve_intersection_genus_arithmetic():
    ab = Alphabet(("u", "v"))
    sphere = SurfaceMark("S", 0, 0, ())
    torus = SurfaceMark("T", 1, 0, (ab.gen("u"), ab.gen("v")))
    state = ManifoldState(
        pi1=Presentation(ab, (), Exactness.SURJECTIVE_BOUND),
        euler=4,
        signature=0,
        symplectic=True,
        surfaces=(sphere, torus),
        transverse_pairs=(("S", "T"),),
    )
    out = resolve_intersection(state, "S", "T")
    assert out.surface("S+T").genus == 1


def test_resolve_requires_recorded_intersection():
    state = four_torus_block()
    state = resolve_intersection(state, "H", "K")
    with pytest.raises(ManifoldError):
        resolve_intersection(state, "H", "K")


def _three_surface_state():
    ab = Alphabet(("a", "b", "c", "d", "e", "f"))
    g = ab.gen
    return ManifoldState(
        pi1=Presentation(ab, (), Exactness.SURJECTIVE_BOUND),
        euler=0,
        signature=0,
        symplectic=True,
        surfaces=(SurfaceMark("H", 1, 0, (g("a"), g("b"))), SurfaceMark("K", 1, 0, (g("c"), g("d"))),
                  SurfaceMark("L", 1, 0, (g("e"), g("f")))),
        transverse_pairs=(("H", "K"), ("H", "L")),
    )


def test_resolve_refuses_a_taken_id():
    with pytest.raises(ManifoldError, match=r"share an id: \['L'\]"):
        resolve_intersection(_three_surface_state(), "H", "K", new_id="L")


def test_resolve_drops_every_pair_naming_a_merged_surface():
    out = resolve_intersection(_three_surface_state(), "H", "K", new_id="G")
    assert [m.id for m in out.surfaces] == ["L", "G"]
    assert out.transverse_pairs == ()


# -- symplectic sums --------------------------------------------------------------

def _torus_block_pair():
    ab1 = Alphabet(("u1", "v1"))
    ab2 = Alphabet(("u2", "v2"))
    s1 = ManifoldState(
        pi1=Presentation(ab1, (), Exactness.SURJECTIVE_BOUND),
        euler=0,
        signature=0,
        symplectic=True,
        minimality_rules=("R1",),
        surfaces=(SurfaceMark("A", 1, 0, (ab1.gen("u1"), ab1.gen("v1"))),),
    )
    s2 = ManifoldState(
        pi1=Presentation(ab2, (), Exactness.SURJECTIVE_BOUND),
        euler=0,
        signature=0,
        symplectic=True,
        minimality_rules=("R1",),
        surfaces=(SurfaceMark("B", 1, 0, (ab2.gen("u2"), ab2.gen("v2"))),),
    )
    return s1, s2


def test_genus_one_sum():
    s1, s2 = _torus_block_pair()
    out = symplectic_sum(s1, "A", s2, "B", ((0, 0), (1, 1)))
    assert (out.euler, out.signature) == (0, 0)
    assert out.pi1.alphabet.names == ("u1", "v1", "u2", "v2")
    assert [str(r) for r in out.pi1.relators] == ["u1 u2^-1", "v1 v2^-1"]
    assert out.pi1.exactness is Exactness.SURJECTIVE_BOUND
    assert out.minimality is Minimality.MINIMAL
    assert out.minimality_rules == ("R1", "R2")


def test_genus_two_sum_euler_gains_four():
    ab1 = Alphabet(tuple(f"a{i}" for i in range(4)))
    ab2 = Alphabet(tuple(f"b{i}" for i in range(4)))
    mk = lambda ab, name, e, sig: ManifoldState(
        pi1=Presentation(ab, (), Exactness.SURJECTIVE_BOUND),
        euler=e,
        signature=sig,
        symplectic=True,
        surfaces=(SurfaceMark(name, 2, 0, tuple(ab.gen(n) for n in ab.names)),),
    )
    out = symplectic_sum(mk(ab1, "F", 3, 1), "F", mk(ab2, "G", 2, -2), "G", tuple((i, i) for i in range(4)))
    assert out.euler == 3 + 2 + 4
    assert out.signature == -1


def test_a_sum_along_spheres_concludes_no_minimality():
    # Usher's theorem (R2, R3) holds for sums along surfaces of positive genus only
    s1, s2 = _torus_block_pair()
    sphere = (SurfaceMark("S", 0, 0, ()),)
    out = symplectic_sum(s1.replace(surfaces=sphere), "S", s2.replace(surfaces=sphere), "S", ())
    assert (out.minimality, out.minimality_rules) == (Minimality.UNKNOWN, ())
    flagged = (SurfaceMark("S", 0, 0, (), meridian_killed_reason="test", no_minus_one_sphere_off_surface=True),)
    donor = ManifoldState(Presentation(Alphabet(), (), Exactness.SURJECTIVE_BOUND), 1, -1, True, ("R4",),
                          surfaces=flagged)
    out = symplectic_sum(s1.replace(surfaces=sphere), "S", donor, "S", ())
    assert (out.minimality, out.minimality_rules) == (Minimality.UNKNOWN, ())


def test_sum_genus_mismatch_and_normal_bundle_errors():
    s1, s2 = _torus_block_pair()
    bad = ManifoldState(
        pi1=s2.pi1,
        euler=0,
        signature=0,
        symplectic=True,
        surfaces=(SurfaceMark("B", 1, 2, (s2.pi1.alphabet.gen("u2"), s2.pi1.alphabet.gen("v2"))),),
    )
    with pytest.raises(ManifoldError):
        symplectic_sum(s1, "A", bad, "B", ((0, 0), (1, 1)))
    sphere_side = ManifoldState(
        pi1=Presentation(Alphabet(("z",)), (), Exactness.SURJECTIVE_BOUND),
        euler=0,
        signature=0,
        symplectic=True,
        surfaces=(SurfaceMark("S", 0, 0, ()),),
    )
    with pytest.raises(ManifoldError):
        symplectic_sum(s1, "A", sphere_side, "S", ())


def test_killed_meridian_sum_transports_relators():
    host, donor = _torus_block_pair()
    ab2 = donor.pi1.alphabet
    relator = commutator(ab2.gen("u2"), ab2.gen("v2"))
    donor_mark = SurfaceMark(
        "B",
        1,
        0,
        (ab2.gen("u2"), ab2.gen("v2")),
        meridian_killed_reason="meets an exceptional sphere transversally once",
        no_minus_one_sphere_off_surface=True,
    )
    donor = ManifoldState(
        pi1=Presentation(ab2, (relator,), Exactness.SURJECTIVE_BOUND),
        euler=2,
        signature=-2,
        symplectic=True,
        minimality_rules=("R4",),
        surfaces=(donor_mark,),
    )
    out = symplectic_sum(host, "A", donor, "B", ((0, 0), (1, 1)))
    assert out.pi1.alphabet == host.pi1.alphabet
    assert [str(r) for r in out.pi1.relators] == ["u1 v1 u1^-1 v1^-1"]
    assert (out.euler, out.signature) == (2, -2)
    assert out.parity is Parity.ODD
    assert out.minimality is Minimality.MINIMAL
    assert out.minimality_rules == ("R1", "R3")
    # the killed side may come first: the sum orients itself
    assert symplectic_sum(donor, "B", host, "A", ((0, 0), (1, 1))) == out


def test_minimality_never_upgrades_not_minimal_without_r3():
    s1, s2 = _torus_block_pair()
    blown = blow_up(s1)
    out = symplectic_sum(blown, "A", s2, "B", ((0, 0), (1, 1)))
    assert out.minimality is Minimality.UNKNOWN


def _killed(state, surface_id, flagged=False):
    surfaces = tuple(
        m.replace(meridian_killed_reason="test", no_minus_one_sphere_off_surface=flagged)
        if m.id == surface_id else m
        for m in state.surfaces
    )
    return state.replace(surfaces=surfaces)


def test_r3_reads_the_side_across_from_the_flagged_surface():
    s1, s2 = _torus_block_pair()
    first = _killed(s1, "A", flagged=True)
    second = _killed(s2, "B").replace(minimality_rules=("R4",))
    out = symplectic_sum(first, "A", second, "B", ((0, 0), (1, 1)))
    assert (out.minimality, out.minimality_rules) == (Minimality.UNKNOWN, ())
    # flagged second side, minimal first side: R3 on the first side's rules
    out = symplectic_sum(second.replace(minimality_rules=("R1",)), "B",
                         _killed(s1, "A", flagged=True), "A", ((0, 0), (1, 1)))
    assert (out.minimality, out.minimality_rules) == (Minimality.MINIMAL, ("R1", "R3"))


def test_unkilled_sum_keeps_a_surface_sharing_the_other_glued_id():
    s1, s2 = _torus_block_pair()
    ab = Alphabet(("u1", "v1", "w1", "x1"))
    s1 = s1.replace(
        pi1=Presentation(ab, (), Exactness.SURJECTIVE_BOUND),
        surfaces=(SurfaceMark("A", 1, 0, (ab.gen("u1"), ab.gen("v1"))),
                  SurfaceMark("B", 1, 0, (ab.gen("w1"), ab.gen("x1")))),
    )
    out = symplectic_sum(s1, "A", s2, "B", ((0, 0), (1, 1)))
    assert [m.id for m in out.surfaces] == ["B"]
    assert [str(w) for w in out.surface("B").boundary_generators] == ["w1", "x1"]


def test_killed_sum_refuses_a_donor_generator_off_the_surface():
    ab = Alphabet(("u2", "v2", "z"))
    donor = ManifoldState(
        pi1=Presentation(ab, (commutator(ab.gen("u2"), ab.gen("z")),), Exactness.SURJECTIVE_BOUND),
        euler=0,
        signature=0,
        symplectic=True,
        surfaces=(SurfaceMark("B", 1, 1, (ab.gen("u2"), ab.gen("v2"))),),
    )
    donor = blow_up(donor, on_surface="B")
    host, _ = _torus_block_pair()
    u1, v1 = (host.pi1.alphabet.gen(n) for n in ("u1", "v1"))
    host = host.replace(pi1=Presentation(host.pi1.alphabet, (commutator(u1, v1),), Exactness.SURJECTIVE_BOUND))
    for args in ((host, "A", donor, "B"), (donor, "B", host, "A")):
        with pytest.raises(ManifoldError, match=r"off the glued surface: \['z'\]"):
            symplectic_sum(*args, ((0, 0), (1, 1)))


def _crossing_block(prefix, glued, crossing, extra=None):
    """A minimal (R1) state of tori: glued mark (x, y), a mark (s, t) meeting it once, optionally a mark (u, v)."""
    names = tuple(f"{g}{prefix}" for g in ("xystuv" if extra else "xyst"))
    ab = Alphabet(names)
    g = [ab.gen(n) for n in names]
    marks = (SurfaceMark(glued, 1, 0, (g[0], g[1])), SurfaceMark(crossing, 1, 0, (g[2], g[3])))
    pairs = ((glued, crossing),)
    if extra:
        marks += (SurfaceMark(extra, 1, 0, (g[4], g[5])),)
    return ManifoldState(pi1=Presentation(ab, (), Exactness.SURJECTIVE_BOUND), euler=0, signature=0,
                         symplectic=True, minimality_rules=("R1",), surfaces=marks, transverse_pairs=pairs)


def test_sum_joins_the_halves_meeting_the_glued_surfaces():
    out = symplectic_sum(_crossing_block(1, "H1", "F"), "H1", _crossing_block(2, "H2", "F"), "H2", ((0, 0), (1, 1)))
    ab = out.pi1.alphabet
    assert out.surfaces == (SurfaceMark("F", 2, 0, tuple(ab.gen(n) for n in ("s1", "t1", "s2", "t2"))),)
    assert out.transverse_pairs == ()
    assert out.minimality_rules == ("R1", "R2")


def test_joined_halves_with_two_ids_take_both_and_keep_their_pairs():
    first = _crossing_block(1, "H1", "F1", extra="Z")
    first = first.replace(surfaces=(first.surfaces[0], first.surfaces[1].replace(self_intersection=1),
                                    first.surfaces[2]),
                          transverse_pairs=(("H1", "F1"), ("F1", "Z")))
    out = symplectic_sum(first, "H1", _crossing_block(2, "H2", "F2"), "H2", ((0, 0), (1, 1)))
    assert [(m.id, m.genus, m.self_intersection) for m in out.surfaces] == [("F1#F2", 2, 1), ("Z", 1, 0)]
    assert out.transverse_pairs == (("F1#F2", "Z"),)


def test_no_join_unless_each_side_has_exactly_one_half():
    first = _crossing_block(1, "H1", "F1", extra="Z")
    first = first.replace(transverse_pairs=(("H1", "F1"), ("Z", "H1")))
    out = symplectic_sum(first, "H1", _crossing_block(2, "H2", "F2"), "H2", ((0, 0), (1, 1)))
    assert [m.id for m in out.surfaces] == ["F1", "Z", "F2"]


def test_joined_half_of_a_killed_side_moves_through_its_images():
    ab = Alphabet(("u", "v"))
    u, v = ab.gen("u"), ab.gen("v")
    donor = ManifoldState(pi1=Presentation(ab, (), Exactness.SURJECTIVE_BOUND), euler=0, signature=0,
                          symplectic=True, surfaces=(SurfaceMark("B", 1, 1, (u, v)), SurfaceMark("C", 1, 0, (v, u))),
                          transverse_pairs=(("B", "C"),))
    donor = blow_up(donor, on_surface="B")
    out = symplectic_sum(donor, "B", _crossing_block(1, "H1", "F"), "H1", ((0, 0), (1, 1)))
    assert [m.id for m in out.surfaces] == ["F#C"]
    assert [str(w) for w in out.surface("F#C").boundary_generators] == ["s1", "t1", "y1", "x1"]


# -- classification ----------------------------------------------------------------

def _certified(state):
    cert = certify_trivial(state.pi1)
    assert isinstance(cert, TrivialityCertificate)
    return cert


@pytest.mark.parametrize("rules, minimality", [
    ((), Minimality.UNKNOWN),
    (("R1",), Minimality.MINIMAL),
    (("R1", "R2"), Minimality.MINIMAL),
    (("R1", "R2", "R3"), Minimality.MINIMAL),
    (("R4",), Minimality.NOT_MINIMAL),
])
def test_minimality_is_what_the_last_rule_concludes(rules, minimality):
    assert trivial_odd_state(6, -2, rules).minimality is minimality


def test_minimality_cannot_be_set():
    state = trivial_odd_state(6, -2)
    with pytest.raises(TypeError):
        state.replace(minimality=Minimality.MINIMAL)
    with pytest.raises(TypeError):
        ManifoldState(pi1=state.pi1, euler=6, signature=-2, symplectic=True, minimality=Minimality.MINIMAL)
    assert "minimality" not in ManifoldState._fields


def test_classify_headline_values():
    state = trivial_odd_state(6, -2, ("R1", "R2", "R3"))
    homeo = classify(state, _certified(state))
    assert (homeo.b_plus, homeo.b_minus) == (1, 3)
    assert homeo.description == "CP^2 # 3 CP^2bar"
    assert "Taubes" in homeo.exotic_note
    assert homeo.b_plus + homeo.b_minus == state.euler - 2
    assert homeo.b_plus - homeo.b_minus == state.signature


def test_classify_small_case():
    state = trivial_odd_state(4, 0)
    homeo = classify(state, _certified(state))
    assert (homeo.b_plus, homeo.b_minus) == (1, 1)
    assert homeo.exotic_note == ""


def test_classify_rejects_bad_parity_and_arithmetic():
    state = trivial_odd_state(6, -3)
    with pytest.raises(ManifoldError):
        classify(state, _certified(state))
    even = ManifoldState(
        pi1=Presentation(Alphabet(()), (), Exactness.SURJECTIVE_BOUND),
        euler=4,
        signature=0,
        symplectic=True,
        parity=Parity.EVEN,
    )
    with pytest.raises(ManifoldError):
        classify(even, _certified(even))


def test_classify_requires_matching_certificate():
    state = trivial_odd_state(6, -2)
    other = Presentation(Alphabet(("x",)), (Alphabet(("x",)).gen("x"),))
    cert = certify_trivial(other)
    assert isinstance(cert, TrivialityCertificate)
    with pytest.raises(ManifoldError):
        classify(state, cert)
