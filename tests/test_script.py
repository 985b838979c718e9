import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from sgcalc import construction, script
from sgcalc.cli import main
from sgcalc.construction import verify_main_theorem
from sgcalc.coset_enum import MAX_COSETS, MAX_COSETS_CEILING, EnumerationError
from sgcalc.presentations import Exactness, Presentation
from sgcalc.script import (
    Budgets,
    Check,
    Let,
    MAX_PRESENTATION_SIZE,
    MAX_WORD_LETTERS,
    ParseError,
    Ref,
    Script,
    TABLE,
    execute,
    format_presentation_document,
    parse,
    parse_presentation_document,
    parse_word,
    print_script,
)
from sgcalc.words import Alphabet, Word, commutator

FAST = Budgets(max_cosets=20_000)


# -- parsing -------------------------------------------------------------------

def test_parse_zero_arg_call():
    script = parse("let v = build_V()")
    assert script.statements == (Let("v", "build_V", (), 1),)


def test_parse_five_arg_call():
    text = (
        'let x = symplectic_sum(a=p, surf_a="F", b=w, surf_b="G", '
        'pairing=["s1:s1", "t1:t1", "s2:s2", "t2:t2"])'
    )
    (stmt,) = parse(text).statements
    assert isinstance(stmt, Let)
    assert stmt.op == "symplectic_sum"
    assert len(stmt.args) == 5
    keys = [k for k, _ in stmt.args]
    assert keys == ["a", "surf_a", "b", "surf_b", "pairing"]
    assert stmt.args[1][1] == "F"
    assert stmt.args[4][1] == ("s1:s1", "t1:t1", "s2:s2", "t2:t2")


def test_parse_check_invariants():
    (stmt,) = parse("check invariants(x, 6, -2)").statements
    assert stmt == Check("invariants", (Ref("x"), 6, -2), 1)


def test_parse_error_position():
    with pytest.raises(ParseError) as info:
        parse("let = foo(")
    assert info.value.line == 1 and info.value.col == 5


def test_parse_empty_script():
    assert parse("").statements == ()
    assert parse("# only a comment\n").statements == ()


def test_parse_unknown_check():
    with pytest.raises(ParseError):
        parse("check bogus(x)")


def test_print_parse_round_trip():
    text = "\n".join(
        [
            "let p = build_P()",
            "let w = build_W()",
            'let x = symplectic_sum(a=p, surf_a="F", b=w, surf_b="G", '
            'pairing=["s1:s1", "t1:t1", "s2:s2", "t2:t2"])',
            "check invariants(x, 6, -2)",
            "check trivial(x)",
            "check classify(x)",
        ]
    )
    script = parse(text)
    assert parse(print_script(script)) == script


# -- word syntax ----------------------------------------------------------------

def test_parse_word_syntax():
    ab = Alphabet(("x", "y", "a", "b"))
    assert parse_word("b a b^-1", ab) == ab.gen("b") * ab.gen("a") * ab.gen("b", -1)
    assert parse_word("[b^-1, y^-1]", ab) == commutator(ab.gen("b", -1), ab.gen("y", -1))
    assert parse_word("[[x, y], b]", ab) == commutator(
        commutator(ab.gen("x"), ab.gen("y")), ab.gen("b")
    )
    assert parse_word("1", ab).is_identity
    assert parse_word("x^3", ab) == ab.gen("x", 3)
    assert parse_word("", ab).is_identity


def test_parse_word_errors():
    ab = Alphabet(("x",))
    with pytest.raises(ParseError):
        parse_word("z", ab)
    with pytest.raises(ParseError):
        parse_word("x^y", ab)
    with pytest.raises(ParseError):
        parse_word("[x", ab)


def test_parse_word_bounds_length_before_building():
    ab = Alphabet(("x", "y"))
    assert len(parse_word(f"x^{MAX_WORD_LETTERS}", ab)) == MAX_WORD_LETTERS
    for text in (
        "x^1000000000",  # refused before a single multiplication
        f"[x, y]^{MAX_WORD_LETTERS // 4 + 1}",
        f"x^{MAX_WORD_LETTERS} y",
        "[[[[[[[[[[[[[[[[x^9, y], y], y], y], y], y], y], y], y], y], y], y], y], y], y], y]",
    ):
        with pytest.raises(ParseError, match="longer than"):
            parse_word(text, ab)


def test_word_print_parse_round_trip():
    import random

    from conftest import random_word

    ab = Alphabet(("x", "y", "a", "b"))
    rng = random.Random(99)
    for _ in range(200):
        w = random_word(rng, ab)
        assert parse_word(str(w), ab) == w


# -- presentation documents -------------------------------------------------------

def test_presentation_document_round_trip():
    ab = Alphabet(("s1", "t1"))
    p = Presentation(
        ab, (commutator(ab.gen("s1"), ab.gen("t1")),), Exactness.SURJECTIVE_BOUND
    )
    text = format_presentation_document(p)
    assert parse_presentation_document(text) == p


def test_presentation_document_parsing():
    p = parse_presentation_document(
        """
        # a cyclic group
        generators: x
        relator: x^6
        """
    )
    assert p.alphabet.names == ("x",) and len(p.relators) == 1
    with pytest.raises(ParseError):
        parse_presentation_document("relator: x\n")
    with pytest.raises(ParseError):
        parse_presentation_document("generators: x\nrelator: y\n")


# -- execution ----------------------------------------------------------------------

def test_execute_full_construction_script():
    script = parse(
        "\n".join(
            [
                "let x = build_X()",
                "check trivial(x)",
                "check invariants(x, 6, -2)",
                "check classify(x)",
            ]
        )
    )
    report = execute(script, FAST)
    assert report.verdict == "PASS"
    assert report.exit_code == 0
    classify_line = report.statements[-1]
    assert "b+ = 1, b- = 3" in classify_line.detail
    assert "CP^2 # 3 CP^2bar" in classify_line.detail


def test_execute_refutes_v_without_enumeration():
    # V's group is a surjective bound: a nonzero H1 refutes nothing about pi1, and classify follows
    report = execute(parse("let v = build_V()\ncheck trivial(v)\ncheck classify(v)"), FAST)
    assert (report.verdict, report.exit_code) == ("INCONCLUSIVE", 2)
    trivial, classify = report.statements[1:]
    assert "(H1 has rank 2 and torsion []), but it only bounds pi1" in trivial.detail
    assert trivial.data["enumeration"] == "skipped"
    assert (classify.status, classify.detail) == ("inconclusive", trivial.detail)
    # an exact presentation with a nonzero H1 is refuted
    text = 'let g = presentation(generators=["x", "y"], relators=["[x, y]"])\ncheck trivial(g)'
    report = execute(parse(text), FAST)
    assert (report.verdict, report.exit_code) == ("FAIL", 1)
    assert report.statements[-1].detail == "refuted without enumeration: H1 has rank 2 and torsion []"


# Groups that a nonzero H1 (Z/2) or a closed coset table of index 60 (A5) shows
# nontrivial: (generators, relators, index, the exact FAIL's detail, the bound's evidence)
NONTRIVIAL = {
    "Z2": ('["x"]', '["x^2"]', None,
           "refuted without enumeration: H1 has rank 0 and torsion [2]", "H1 has rank 0 and torsion [2]"),
    "A5": ('["a", "b"]', '["a^2", "b^3", "a b a b a b a b a b"]', 60,
           "refuted: the group has order 60", "order 60"),
}


@pytest.mark.parametrize("name", NONTRIVIAL)
def test_cli_run_refutes_an_exact_group_but_not_its_bound(tmp_path, capsys, name):
    generators, relators, index, refuted, evidence = NONTRIVIAL[name]
    bound = f"the presented group is nontrivial ({evidence}), but it only bounds pi1 from above"
    path = tmp_path / "g.sgc"
    for exactness, code, status, detail in (("exact", 1, "fail", refuted),
                                            ("surjective-bound", 2, "inconclusive", bound)):
        path.write_text(
            f'let g = presentation(generators={generators}, relators={relators}, exactness="{exactness}")\n'
            "check trivial(g)\n"
        )
        assert main(["run", str(path), "--emit", "json"]) == code
        statement = json.loads(capsys.readouterr().out)["statements"][-1]
        assert (statement["status"], statement["detail"]) == (status, detail)
        assert statement["data"].get("index") == index


@pytest.mark.parametrize(
    "statement,message",
    [
        ('let l = luttinger(s=v, torus="T1", p=1, q=0, k=1)',
         "unknown torus 'T1': this state has no Lagrangian torus marks"),
        ('let g = presentation(generators=["x", "x"])', "duplicate generator name 'x'"),
        ('let x = symplectic_sum(a=v, surf_a="H", b=v, surf_b="K", pairing=["s1:q"])',
         "surface 'K' has no boundary generator 'q'"),
        ('let x = symplectic_sum(a=v, surf_a="H", b=v, surf_b="K", pairing=["s1"])',
         "pairing entry 's1' is not 'left:right'"),
        ('let q = quotient(p=v, relators=["s1 ("])', "bad relator: line 1, column 4: unexpected '(' in word"),
        ('let r = resolve_intersection(s=v, a="H", b="H")', "surfaces 'H' and 'H' are not marked as meeting once"),
        ("let b = blow_up(s=v, count=0)", "blowup count must be positive"),
        ('let x = symplectic_sum(a=v, surf_a="H", b=v, surf_b="K", pairing=["s1:s2"])',
         "pairing must match up all boundary generators of both surfaces"),
    ],
    ids=["luttinger", "duplicate-generator", "no-boundary-generator", "pairing-entry", "bad-relator",
         "resolve-not-transverse", "blowup-count", "pairing-incomplete"],
)
def test_operation_errors_are_error_statements(statement, message):
    report = execute(parse(f"let v = build_V()\n{statement}"), FAST)
    assert report.verdict == "FAIL"
    assert (report.statements[-1].status, report.statements[-1].detail) == ("error", message)


def test_comment_sign_in_a_relator_is_an_error_not_a_truncation():
    # read as a comment, "x # y" was the relator x, and the group < x, y | x, y > passed as trivial
    report = execute(parse('let g = presentation(generators=["x", "y"], relators=["x # y", "y"])\ncheck trivial(g)'))
    assert report.verdict == "FAIL"
    assert (report.statements[0].status, report.statements[0].detail) == (
        "error", "bad relator: line 1, column 3: unexpected character '#'"
    )


def test_execute_empty_script_passes():
    report = execute(parse(""))
    assert report.verdict == "PASS" and report.statements == ()


def test_execute_is_deterministic():
    script = parse("let x = build_X()\ncheck trivial(x)")
    assert execute(script, FAST).to_dict() == execute(script, FAST).to_dict()


def test_execute_inconclusive_on_tiny_budget():
    script = parse("let x = build_X()\ncheck trivial(x)")
    report = execute(script, Budgets(max_cosets=10))
    assert report.verdict == "INCONCLUSIVE"
    assert report.exit_code == 2


def test_a_failed_size_check_names_the_expected_counts():
    report = execute(parse("let v = build_V()\ncheck size(v, 4, 6)\ncheck size(v, 4, 5)"), FAST)
    assert [(s.status, s.detail) for s in report.statements[1:]] == [
        ("pass", "4 generators, 6 relators"),
        ("fail", "4 generators, 6 relators, expected (4, 5)"),
    ]


def test_a_group_checked_twice_is_enumerated_and_abelianized_once(monkeypatch):
    # the engines are looked up in construction when a check calls them
    calls = []
    for name in ("certify_trivial", "homology_invariants"):
        engine = getattr(construction, name)
        monkeypatch.setattr(construction, name, lambda *args, engine=engine, name=name: (
            calls.append(name), engine(*args))[1])
    report = execute(parse("let x = build_X()\ncheck trivial(x)\ncheck classify(x)"), FAST)
    assert report.verdict == "PASS"
    assert sorted(calls) == ["certify_trivial", "homology_invariants"]


def test_a_drop_verdict_hashes_no_word(monkeypatch):
    # X less relation 1 has H1 = Z; hashing a presentation would hash every relator
    x = construction.build_x().pi1
    gens = ", ".join(f'"{g}"' for g in x.alphabet.names)
    rels = ", ".join(f'"{r}"' for r in x.relators[1:])
    drop = parse(f"let g = presentation(generators=[{gens}], relators=[{rels}])\ncheck h1(g, 1)\ncheck trivial(g)")
    calls = []
    word_hash = Word.__hash__
    monkeypatch.setattr(Word, "__hash__", lambda w: calls.append(w) or word_hash(w))
    report = execute(drop, FAST)
    assert [s.status for s in report.statements] == ["ok", "pass", "fail"]
    assert calls == []


def test_execute_stops_at_first_failed_check():
    script = parse(
        "let v = build_V()\ncheck invariants(v, 1, 1)\ncheck invariants(v, 0, 0)"
    )
    report = execute(script, FAST)
    assert report.verdict == "FAIL"
    assert len(report.statements) == 2  # the second check never ran


def test_a_stalled_simplification_is_inconclusive_not_a_refutation(tmp_path):
    # AK(3) is trivial (HLT certifies it) but Tietze moves stall on it
    path = tmp_path / "ak3.sgc"
    path.write_text(
        'let g = presentation(generators=["x", "y"], relators=["x^3 y^-4", "x y x y^-1 x^-1 y^-1"])\n'
        "check trivial(g)\ncheck simplify(g)\n",
        encoding="utf-8",
    )
    report = execute(parse(path.read_text(encoding="utf-8")), FAST)
    assert [s.status for s in report.statements[1:]] == ["pass", "inconclusive"]
    assert report.statements[2].data["complete"] and report.statements[2].data["final_generators"]
    assert main(["run", str(path)]) == 2


def test_a_script_runs_every_check_the_paper_runs():
    assert TABLE["check"] is construction.CHECKS
    assert {name for _, name, *_ in construction.CLAIMS} <= set(TABLE["check"])
    lines = [f"let {block} = build_{block}()" for block in ("V", "W", "P", "X")]
    for _, name, block, *args in construction.CLAIMS:
        given = args[: len(TABLE["check"][name][1]) - 1]  # the paper's own expectations are not script arguments
        lines.append(f"check {name}({', '.join([block, *map(str, given)])})")
    scripted = execute(parse("\n".join(lines))).statements[4:]
    paper = verify_main_theorem().statements
    assert len(scripted) == len(paper) == len(construction.CLAIMS)
    for s, p in zip(scripted, paper):
        assert (s.status, s.detail, s.data) == (p.status, p.detail, p.data), p.text


def test_execute_runtime_errors_carry_statement_index():
    report = execute(parse("let v = build_V()\nlet v = build_V()"), FAST)
    assert report.verdict == "FAIL"
    assert report.statements[-1].index == 1
    assert report.statements[-1].status == "error"

    report = execute(parse("check trivial(nope)"), FAST)
    assert report.statements[0].status == "error"
    assert "undefined" in report.statements[0].detail

    report = execute(parse("let q = warp()"), FAST)
    assert "unknown operation" in report.statements[0].detail


@pytest.mark.parametrize("block", ["V", "W", "P1", "P2", "P", "X"])
def test_each_block_answers_to_one_script_name(block):
    assert f"build_{block}" in TABLE["let"] and block not in TABLE["let"]
    report = execute(parse(f"let b = {block}()"), FAST)
    assert (report.verdict, report.exit_code) == ("FAIL", 1)
    assert (report.statements[0].status, report.statements[0].detail) == ("error", f"unknown operation {block!r}")


def test_execute_unknown_exactness_is_an_error_statement():
    report = execute(parse('let p = presentation(generators=["x"], exactness="bogus")'), FAST)
    assert report.verdict == "FAIL"
    assert report.statements[0].status == "error"
    assert "'exact', 'surjective-bound'" in report.statements[0].detail


def test_execute_manifold_ops_and_presentation_ops():
    script = parse(
        "\n".join(
            [
                'let p = presentation(generators=["x"], relators=["x^2", "x^3"])',
                "check trivial(p)",
                'let q = presentation(generators=["x", "y"], relators=["[x, y]"])',
                'let r = quotient(p=q, relators=["x y^-1", "x^6"])',
                "check trivial(r)",
            ]
        )
    )
    report = execute(script, FAST)
    assert report.verdict == "FAIL"  # r is Z/6: refuted by abelianization
    assert report.statements[1].status == "pass"
    assert "torsion [6]" in report.statements[-1].detail


def test_execute_symplectic_sum_script_matches_library():
    script = parse(
        "\n".join(
            [
                "let p = build_P()",
                "let w = build_W()",
                'let x = symplectic_sum(a=p, surf_a="F", b=w, surf_b="G", '
                'pairing=["s1:s1", "t1:t1", "s2:s2", "t2:t2"])',
                "check invariants(x, 6, -2)",
            ]
        )
    )
    report = execute(script, FAST)
    assert report.verdict == "PASS"


def test_blowing_w_up_off_g_voids_the_exotic_claim():
    # W blown up once more, off G: a -1 sphere now misses G, so R3 no longer applies to the sum
    script = parse(
        "\n".join(
            [
                "let p = build_P()",
                "let w = build_W()",
                "let w2 = blow_up(s=w)",
                'let x = symplectic_sum(a=p, surf_a="F", b=w2, surf_b="G", '
                'pairing=["s1:s1", "t1:t1", "s2:s2", "t2:t2"])',
                "check classify(x)",
            ]
        )
    )
    report = execute(script, FAST)
    assert report.statements[3].data["minimality"] == "unknown"
    assert "minimality unknown" in report.statements[3].detail
    classify = report.statements[4]
    assert classify.data["description"] == "CP^2 # 4 CP^2bar"
    assert classify.data["exotic_note"] == ""
    assert classify.detail == "b+ = 1, b- = 4: CP^2 # 4 CP^2bar"


# -- CLI ----------------------------------------------------------------------------

def test_cli_run_pass_and_json(tmp_path, capsys):
    path = tmp_path / "ok.sgc"
    path.write_text("let x = build_X()\ncheck invariants(x, 6, -2)\n")
    code = main(["run", str(path), "--emit", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"


def test_cli_run_fail_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.sgc"
    path.write_text("let v = build_V()\ncheck trivial(v)\n")
    assert main(["run", str(path)]) == 2  # V's group only bounds pi1
    path.write_text('let g = presentation(generators=["x"], relators=["x^2"])\ncheck trivial(g)\n')
    assert main(["run", str(path)]) == 1
    capsys.readouterr()


def test_cli_run_parse_error_exit_64(tmp_path, capsys):
    path = tmp_path / "broken.sgc"
    path.write_text("let = foo(\n")
    assert main(["run", str(path)]) == 64
    err = capsys.readouterr().err
    assert "column 5" in err


def test_cli_huge_power_exit_64(tmp_path, capsys):
    path = tmp_path / "huge.sgc"
    path.write_text('# huge\nlet p = presentation(generators=["x"], relators=["x^1000000000"])\n')
    assert main(["run", str(path)]) == 64
    assert "line 2" in capsys.readouterr().err
    doc = tmp_path / "huge.txt"
    doc.write_text("generators: x\nrelator: x^1000000000\n")
    assert main(["simplify", str(doc)]) == 64
    capsys.readouterr()


def _size_script(gens: int, rels: int, extra: int = 0) -> str:
    names = [f"g{i}" for i in range(gens)]
    quoted = ", ".join(f'"{n}"' for n in names)
    relators = ", ".join(f'"{names[i % gens]}^2"' for i in range(rels))
    text = f"let g = presentation(generators=[{quoted}], relators=[{relators}])\n"
    if extra:
        added = ", ".join(['"g0"'] * extra)
        text += f"let q = quotient(p=g, relators=[{added}])\n"
    return text + "check h1(g, 0)\n"


def test_presentation_size_bound_exits_64_before_any_engine(tmp_path, capsys):
    n = MAX_PRESENTATION_SIZE
    path = tmp_path / "size.sgc"
    path.write_text(_size_script(n, n))
    assert main(["run", str(path)]) == 1  # parses and runs at the bound: H1 is (Z/2)^n, not 0
    capsys.readouterr()
    for gens, rels, extra, what in ((n + 1, 0, 0, "generators"), (1, n + 1, 0, "relators"), (2, n, 1, "relators")):
        path.write_text(_size_script(gens, rels, extra))
        assert main(["run", str(path)]) == 64
        out, err = capsys.readouterr()
        assert out == "" and f"presentation of {n + 1} {what} is over the bound of {n}" in err
        assert "in a word" not in err and f"line {2 if extra else 1}," in err

    doc = tmp_path / "size.txt"
    names = " ".join(f"g{i}" for i in range(n))
    doc.write_text(f"generators: {names}\n" + "relator: g0\n" * n)
    assert parse_presentation_document(doc.read_text()).nrels == n
    doc.write_text(f"generators: {names}\n" + "relator: g0\n" * (n + 1))
    assert main(["simplify", str(doc)]) == 64
    assert f"line {n + 2}, column 1: presentation of {n + 1} relators is over the bound of {n}" in capsys.readouterr().err
    doc.write_text(f"generators: {names} h\n")
    assert main(["simplify", str(doc)]) == 64
    assert f"line 1, column 1: presentation of {n + 1} generators" in capsys.readouterr().err


NINES = "9" * 5000  # over Python's default limit of 4300 digits for int()


def test_cli_run_huge_integer_literal_exit_64(tmp_path, capsys):
    path = tmp_path / "huge.sgc"
    path.write_text(f"let v = build_V()\ncheck invariants(v, {NINES}, 0)\n")
    assert main(["run", str(path)]) == 64
    assert "line 2" in capsys.readouterr().err
    path.write_text(f"let v = build_V()\nlet s = luttinger(s=v, torus=\"T1\", p=1, q=0, k={NINES})\n")
    assert main(["run", str(path)]) == 64
    assert "integer literal of 5000 characters is too long" in capsys.readouterr().err


def test_cli_simplify_huge_exponent_exit_64(tmp_path, capsys):
    doc = tmp_path / "huge.txt"
    doc.write_text(f"generators: x\nrelator: x^{NINES}\n")
    assert main(["simplify", str(doc)]) == 64
    assert "too long" in capsys.readouterr().err


def test_cli_run_huge_integer_in_relator_exit_64(tmp_path, capsys):
    path = tmp_path / "huge.sgc"
    path.write_text(f'let p = presentation(generators=["x"], relators=["x^{NINES}"])\n')
    assert main(["run", str(path)]) == 64
    err = capsys.readouterr().err
    assert "integer literal of 5000 characters is too long" in err
    assert len(err) < 300 and "99999" not in err


LONG = "x" * 200_000


@pytest.mark.parametrize(
    "command, text, echo",
    [
        ("simplify", LONG, "unknown line (200000 characters)"),
        ("simplify", f"generators: x\nexactness: {LONG}\n", "unknown exactness (200000 characters)"),
        ("run", f'check trivial("{LONG}")\n', "expected identifier, found (200000 characters)"),
        ("run", f"check {LONG}(g)\n", "unknown check (200000 characters)"),
        ("run", f'"{LONG}"\n', "expected 'let' or 'check', found (200000 characters)"),
    ],
    ids=["line-key", "exactness", "expected-token", "check-kind", "statement"],
)
def test_cli_parse_errors_name_a_long_echo_by_its_length(tmp_path, capsys, command, text, echo):
    path = tmp_path / "long.txt"
    path.write_text(text)
    assert main([command, str(path)]) == 64
    err = capsys.readouterr().err
    assert echo in err and len(err) < 300


@pytest.mark.parametrize(
    "text, echo",
    [
        (f"let g = presentation({LONG}=1, {LONG}=1)", "duplicate argument (200000 characters)"),
        (f"let g = presentation(generators=[], {LONG}=1, y=1)", "unexpected arguments: (200000 characters), y"),
        (f"check trivial({LONG})", "undefined identifier (200000 characters)"),
        (f"let {LONG} = build_V()\nlet {LONG} = build_V()", "identifier (200000 characters) already bound"),
        (f"let g = {LONG}()", "unknown operation (200000 characters)"),
        (None, "unknown check (200000 characters)"),
        (f'let g = presentation(generators=[], exactness="{LONG}")', "unknown exactness (200000 characters) (allowed:"),
        (f'let v = build_V()\nlet x = symplectic_sum(a=v, surf_a="H", b=v, surf_b="K", pairing=["{LONG}"])',
         "pairing entry (200000 characters) is not 'left:right'"),
        (f'let v = build_V()\nlet x = symplectic_sum(a=v, surf_a="H", b=v, surf_b="K", pairing=["s1:{LONG}"])',
         "surface 'K' has no boundary generator (200000 characters)"),
        (f'let v = build_V()\nlet b = blow_up(s=v, on="{LONG}")', "unknown surface (200000 characters)"),
        (f'let v = build_V()\nlet l = luttinger(s=v, torus="{LONG}", p=1, q=0, k=1)',
         "unknown torus (200000 characters): this state has no Lagrangian torus marks"),
        (f'let v = build_V()\nlet r = resolve_intersection(s=v, a="H", b="K", id="{LONG}")\n'
         f'let t = resolve_intersection(s=r, a="{LONG}", b="{LONG}")',
         "surfaces (200000 characters) and (200000 characters) are not marked as meeting once"),
    ],
    ids=["duplicate-argument", "unexpected-arguments", "undefined-identifier", "already-bound", "unknown-operation",
         "unknown-check", "unknown-exactness", "pairing-entry", "no-boundary-generator", "unknown-surface",
         "unknown-torus", "not-meeting-once"],
)
def test_runtime_errors_name_a_long_echo_by_its_length(text, echo):
    # the parser refuses an unknown check kind, so that statement is built directly
    parsed = Script((Check(LONG, (), 1),)) if text is None else parse(text)
    error = execute(parsed, FAST).statements[-1]
    assert error.status == "error"
    assert error.detail.startswith(echo) and len(error.detail) < 200


def test_one_default_per_budget(capsys):
    import inspect

    from sgcalc import construction, coset_enum, tietze
    from sgcalc.coset_enum import MAX_COSETS
    from sgcalc.tietze import TIETZE_BUDGET

    def default(f, name):
        return inspect.signature(f).parameters[name].default

    assert default(tietze.tietze_simplify, "budget") == TIETZE_BUDGET == construction.TIETZE_BUDGET
    assert default(construction.verify_main_theorem, "tietze_budget") == TIETZE_BUDGET
    for f in (coset_enum.todd_coxeter, coset_enum.certify_trivial, construction.verify_main_theorem):
        assert default(f, "max_cosets") == MAX_COSETS
    assert Budgets().max_cosets == MAX_COSETS
    for command in ("run", "verify-paper", "simplify"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        if command != "simplify":
            assert f"enumerations (default {MAX_COSETS})" in text
        if command != "run":
            assert f"simplification (default {TIETZE_BUDGET})" in text


def test_cli_unknown_exactness_exit_1(tmp_path, capsys):
    path = tmp_path / "bogus.sgc"
    path.write_text('let p = presentation(generators=["x"], exactness="bogus")\n')
    assert main(["run", str(path), "--emit", "text"]) == 1
    assert "ERROR: unknown exactness 'bogus'" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "verify-paper"])
@pytest.mark.parametrize("value", ["0", "-3", "many"])
def test_cli_max_cosets_must_be_positive(tmp_path, capsys, command, value):
    path = tmp_path / "ok.sgc"
    path.write_text("let v = build_V()\n")
    argv = [command] + ([str(path)] if command == "run" else []) + ["--max-cosets", value]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 64
    assert "--max-cosets" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "verify-paper"])
def test_cli_max_cosets_ceiling_exits_64_before_any_work(tmp_path, capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(construction, "verify_main_theorem", no_work)
    monkeypatch.setattr(script, "execute", no_work)
    path = tmp_path / "ok.sgc"
    path.write_text("let v = build_V()\n")
    argv = [command] + ([str(path)] if command == "run" else [])
    with pytest.raises(SystemExit) as info:
        main(argv + ["--max-cosets", str(MAX_COSETS_CEILING + 1)])
    assert info.value.code == 64
    assert f"--max-cosets: must be at most {MAX_COSETS_CEILING}" in capsys.readouterr().err


def test_cli_max_cosets_ceiling_itself_is_accepted(tmp_path):
    path = tmp_path / "ok.sgc"
    path.write_text("let v = build_V()\n")  # no enumeration runs
    assert main(["run", str(path), "--max-cosets", str(MAX_COSETS_CEILING), "--out", str(tmp_path / "r")]) == 0


@pytest.mark.parametrize("command", ["verify-paper", "simplify"])
def test_cli_tietze_budget_must_be_positive(tmp_path, capsys, command):
    doc = tmp_path / "pres.txt"
    doc.write_text("generators: x\nrelator: x\n")
    argv = [command] + ([str(doc)] if command == "simplify" else []) + ["--tietze-budget", "-5"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 64
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("flag, digits", [
    ("--max-cosets", "9" * 5000),  # past Python's int digit limit
    ("--tietze-budget", "9" * 5000),
    ("--max-cosets", "-" + "9" * 4000),
    ("--tietze-budget", "-" + "9" * 4000),
    ("--max-cosets", "9" * 4000),  # over the coset ceiling
], ids=["cosets-5000", "tietze-5000", "cosets-minus-4000", "tietze-minus-4000", "cosets-4000"])
def test_cli_long_budget_argument_is_not_echoed(capsys, flag, digits):
    with pytest.raises(SystemExit) as info:
        main(["verify-paper", flag, digits])
    assert info.value.code == 64
    err = capsys.readouterr().err
    assert flag in err and len(err.encode()) < 300
    assert str(len(digits)) in err


def test_cli_short_bad_budget_argument_is_echoed(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify-paper", "--max-cosets", "abc"])
    assert info.value.code == 64
    assert "--max-cosets: invalid integer 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, 0, -3, 10**7, 2.5])
def test_budgets_refuse_a_bad_coset_budget_when_built(value):
    with pytest.raises(EnumerationError, match="max_cosets must be an int"):
        Budgets(max_cosets=value)
    with pytest.raises(EnumerationError):
        Budgets(10_000).replace(max_cosets=value)


def test_budgets_keep_good_coset_budgets():
    assert Budgets().max_cosets == MAX_COSETS
    assert Budgets(10_000).max_cosets == 10_000
    assert Budgets(10_000).replace(max_cosets=MAX_COSETS_CEILING).max_cosets == MAX_COSETS_CEILING


def test_cli_missing_file_exit_64(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "/nonexistent/script.sgc"])
    assert info.value.code == 64
    capsys.readouterr()


def test_cli_usage_error_exit_64():
    with pytest.raises(SystemExit) as info:
        main(["run"])
    assert info.value.code == 64


def test_cli_inconclusive_exit_code(tmp_path, capsys):
    path = tmp_path / "tiny.sgc"
    path.write_text("let x = build_X()\ncheck trivial(x)\n")
    assert main(["run", str(path), "--max-cosets", "10"]) == 2
    capsys.readouterr()


def test_cli_out_file(tmp_path, capsys):
    path = tmp_path / "ok.sgc"
    path.write_text("let v = build_V()\ncheck invariants(v, 0, 0)\n")
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["verdict"] == "PASS"


def test_cli_simplify(tmp_path, capsys):
    doc = tmp_path / "pres.txt"
    doc.write_text("generators: x y\nrelator: [x, y]\nrelator: x y^-1\n")
    assert main(["simplify", str(doc), "--emit", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["final"]["generators"] == ["x"]
    assert payload["final"]["relators"] == []
    assert payload["complete"] is True


def test_cli_verify_paper_json(capsys):
    assert main(["verify-paper"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "PASS"
    classification = next(s for s in payload["statements"] if s["statement"] == "classification")
    assert classification["data"] == {
        "b_plus": 1,
        "b_minus": 3,
        "description": "CP^2 # 3 CP^2bar",
        "exotic_note": classification["data"]["exotic_note"],
    }
    assert classification["data"]["exotic_note"]
    assert len(payload["result"]["relators"]) == 20


def test_cli_verify_paper_inconclusive(capsys):
    assert main(["verify-paper", "--max-cosets", "10"]) == 2
    capsys.readouterr()


def test_example_script_in_repo(capsys):
    from pathlib import Path

    script = Path(__file__).resolve().parents[1] / "scripts" / "exotic_cp2_3.sgc"
    assert main(["run", str(script), "--emit", "text"]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out


# -- arguments: every operation and check of script.TABLE -------------------------

NOUNS = {"state": "a manifold state", "int": "an integer", "string": "a string", "list": "a list"}
GOOD = {"state": Ref("v"), "group": Ref("g"), "int": 1, "string": "H", "list": ()}
BAD = {"state": Ref("g"), "group": 1, "int": "x", "string": 1, "list": "x"}
PRELUDE = parse('let v = build_V()\nlet g = presentation(generators=["x"])').statements


def _kind_error(kind: str, what: str) -> str:
    return "expected a manifold state or a presentation" if kind == "group" else f"{what} must be {NOUNS[kind]}"


def _operation_cases():
    for op, (_, params) in TABLE["let"].items():
        good = [(key, GOOD[kind]) for key, kind, *_ in params]
        first = good[0] if good else ("a", 1)
        yield pytest.param(op, good + [("bogus", 1)], "unexpected arguments: bogus", id=f"{op}-bogus")
        yield pytest.param(op, [first, *good[1:], first], f"duplicate argument {first[0]!r}", id=f"{op}-duplicate")
        for i, (key, kind, *default) in enumerate(params):
            wrong = good[:i] + [(key, BAD[kind])] + good[i + 1:]
            yield pytest.param(op, wrong, _kind_error(kind, key), id=f"{op}-{key}-kind")
            if not default:
                yield pytest.param(op, good[:i] + good[i + 1:], f"missing argument {key!r}", id=f"{op}-{key}-missing")


def _check_cases():
    for check, (_, params) in TABLE["check"].items():
        good, n = [GOOD[kind] for _, kind in params], len(params)
        arity = f"check {check} takes {n} argument(s), got"
        yield pytest.param(check, good + [1], f"{arity} {n + 1}", id=f"{check}-extra")
        yield pytest.param(check, good[:-1], f"{arity} {n - 1}", id=f"{check}-missing")
        for i, (name, kind) in enumerate(params):
            what = f"{check} target" if name == "target" else name
            wrong = good[:i] + [BAD[kind]] + good[i + 1:]
            yield pytest.param(check, wrong, _kind_error(kind, what), id=f"{check}-{name}-kind")


def _error_of(statement, calls: list) -> tuple[str, int]:
    """The error ``statement`` reports after PRELUDE, and the spied calls it made."""
    execute(Script(PRELUDE), FAST)
    prelude = len(calls)
    calls.clear()
    last = execute(Script(PRELUDE + (statement,)), FAST).statements[-1]
    assert last.status == "error", last
    return last.detail, len(calls) - prelude


@pytest.mark.parametrize("op,args,message", list(_operation_cases()))
def test_operation_argument_errors_are_reported_before_the_call(monkeypatch, op, args, message):
    function, params = TABLE["let"][op]
    calls = []
    monkeypatch.setitem(TABLE["let"], op, (lambda *a: calls.append(a) or function(*a), params))
    assert _error_of(Let("r", op, tuple(args), 3), calls) == (message, 0)


@pytest.mark.parametrize("check,args,message", list(_check_cases()))
def test_check_argument_errors_are_reported_before_the_check(monkeypatch, check, args, message):
    calls = []
    for name, (function, params) in TABLE["check"].items():
        monkeypatch.setitem(TABLE["check"], name, (lambda *a, _f=function: calls.append(a) or _f(*a), params))
    assert _error_of(Check(check, tuple(args), 3), calls) == (message, 0)


def test_unexpected_keyword_builds_nothing(monkeypatch):
    calls, original = [], construction.assemble_x
    monkeypatch.setattr(construction, "assemble_x", lambda: calls.append(1) or original())
    report = execute(parse("let x = build_X(foo=1)"), FAST)
    assert report.statements[0].detail == "unexpected arguments: foo"
    assert calls == []


def test_operations_look_up_their_functions_when_called(monkeypatch):
    state, calls = construction.build_v(), []
    for module, attr in ((script, "_luttinger"), (script, "blow_up"), (script, "_resolve"), (script, "_sum")):
        monkeypatch.setattr(module, attr, lambda *a, _n=attr: calls.append(_n) or state)
    monkeypatch.setattr(construction, "assemble_w", lambda: calls.append("assemble_w") or SimpleNamespace(state=state))
    text = "\n".join([
        "let v = build_V()",
        'let a = luttinger(s=v, torus="T", p=1, q=0, k=1)',
        "let b = blow_up(s=v)",
        'let c = resolve_intersection(s=v, a="H", b="K")',
        'let d = symplectic_sum(a=v, surf_a="H", b=v, surf_b="K", pairing=[])',
        "let w = build_W()",
    ])
    assert execute(parse(text), FAST).verdict == "PASS"
    assert calls == ["_luttinger", "blow_up", "_resolve", "_sum", "assemble_w"]


def test_execute_prints_every_statement_before_running_one(monkeypatch):
    calls = []
    original = construction.assemble_v
    monkeypatch.setattr(construction, "assemble_v", lambda: calls.append(1) or original())
    bad = Script((Let("v", "build_V", (), 1), Let("w", "build_V", (("a", "x\ny"),), 2)))
    with pytest.raises(ValueError, match="holds a newline"):
        execute(bad, FAST)
    assert calls == []


def test_readme_script_example_is_the_example_script():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = re.search(r"`\.sgc` scripts bind construction states and run checks:\n\n```\n(.*?)```", readme, re.S)
    assert block, "README has no script example"
    example = (root / "scripts" / "exotic_cp2_3.sgc").read_text(encoding="utf-8")
    assert print_script(parse(block.group(1))) == print_script(parse(example))


def _reference_line(name: str, params: tuple, check: bool) -> str:
    def param(key, kind, *default):
        shown = "" if not default else " = " + ("none" if default[0] is None else json.dumps(default[0]))
        return f"{key}: {kind}{shown}"

    return ("check " if check else "") + f"{name}({', '.join(param(*p) for p in params)})"


def test_readme_reference_names_exactly_the_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"as `script.TABLE` declares them.*?```\n(.*?)```", readme, re.S)
    assert block, "README has no reference block for script.TABLE"
    documented = {}
    for line in block.group(1).splitlines():
        m = re.fullmatch(r"(check )?(\w+)\((.*)\)", line)
        assert m, f"not a reference line: {line!r}"
        documented[(bool(m.group(1)), m.group(2))] = line
    declared = {(False, op): _reference_line(op, params, False) for op, (_, params) in TABLE["let"].items()}
    declared.update({(True, c): _reference_line(c, params, True) for c, (_, params) in TABLE["check"].items()})
    assert sorted(documented) == sorted(declared)
    assert documented == declared
