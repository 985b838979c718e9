import json

import pytest

from sgcalc.cli import main
from sgcalc.presentations import Exactness, Presentation
from sgcalc.script import (
    Budgets,
    Call,
    Check,
    IntVal,
    Let,
    ListVal,
    ParseError,
    Ref,
    StrVal,
    execute,
    format_presentation_document,
    parse,
    parse_presentation_document,
    parse_word,
    print_script,
)
from sgcalc.words import Alphabet, commutator

FAST = Budgets(max_cosets=20_000)


# -- parsing -------------------------------------------------------------------

def test_parse_zero_arg_call():
    script = parse("let v = build_V()")
    assert script.statements == (Let("v", Call("build_V", ()), 1),)


def test_parse_five_arg_call():
    text = (
        'let x = symplectic_sum(a=p, surf_a="F", b=w, surf_b="G", '
        'pairing=["s1:s1", "t1:t1", "s2:s2", "t2:t2"])'
    )
    (stmt,) = parse(text).statements
    assert isinstance(stmt, Let)
    assert stmt.call.op == "symplectic_sum"
    assert len(stmt.call.args) == 5
    keys = [k for k, _ in stmt.call.args]
    assert keys == ["a", "surf_a", "b", "surf_b", "pairing"]
    assert stmt.call.args[1][1] == StrVal("F")
    assert stmt.call.args[4][1] == ListVal(
        (StrVal("s1:s1"), StrVal("t1:t1"), StrVal("s2:s2"), StrVal("t2:t2"))
    )


def test_parse_check_invariants():
    (stmt,) = parse("check invariants(x, 6, -2)").statements
    assert stmt == Check("invariants", (Ref("x"), IntVal(6), IntVal(-2)), 1)


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
    script = parse("let v = build_V()\ncheck trivial(v)")
    report = execute(script, FAST)
    assert report.verdict == "FAIL"
    assert report.exit_code == 1
    assert "H1 has rank 2" in report.statements[-1].detail


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


def test_execute_stops_at_first_failed_check():
    script = parse(
        "let v = build_V()\ncheck invariants(v, 1, 1)\ncheck invariants(v, 0, 0)"
    )
    report = execute(script, FAST)
    assert report.verdict == "FAIL"
    assert len(report.statements) == 2  # the second check never ran


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
    assert main(["run", str(path)]) == 1
    capsys.readouterr()


def test_cli_run_parse_error_exit_64(tmp_path, capsys):
    path = tmp_path / "broken.sgc"
    path.write_text("let = foo(\n")
    assert main(["run", str(path)]) == 64
    err = capsys.readouterr().err
    assert "column 5" in err


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
    assert payload["classification"] == {
        "b_plus": 1,
        "b_minus": 3,
        "description": "CP^2 # 3 CP^2bar",
        "exotic_note": payload["classification"]["exotic_note"],
    }
    assert payload["classification"]["exotic_note"]
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
