"""One report type and verdict rule, each fact reported once, and no block built or
group enumerated twice in one run."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sgcalc
from sgcalc import construction, coset_enum
from sgcalc.cli import main
from sgcalc.construction import (
    KILL_SCRIPT,
    ConstructionReport,
    Report,
    ReplayError,
    build_x,
    replay_kill_order,
    verify_main_theorem,
)
from sgcalc.script import execute, parse

EXAMPLE = Path(__file__).resolve().parents[1] / "scripts" / "exotic_cp2_3.sgc"
FAILING = "let v = build_V()\ncheck invariants(v, 1, 0)\n"
# A5 = < x, y | x^2, y^3, (xy)^5 > needs 60 cosets, more than a budget of 10
UNDECIDED = (
    'let g = presentation(generators=["x", "y"], relators=["x^2", "y^3", "x y x y x y x y x y"])\n'
    "check trivial(g)\n"
)


def _counted(monkeypatch, module, name: str) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _failing_replay(p, *args, **kwargs):
    raise ReplayError("y1", "forced failure")


def test_classification_fails_without_exotic_note(monkeypatch):
    classify = construction.classify
    monkeypatch.setattr(
        construction, "classify", lambda *args: classify(*args).replace(exotic_note="")
    )
    report = verify_main_theorem()
    status = {c.text: c.status for c in report.statements}
    assert status["classification"] == "fail"
    assert "exotic note" not in status
    assert report.verdict == "FAIL"


def test_verdict_rule():
    from sgcalc.construction import StatementResult, verdict_of

    def results(*statuses):
        return [StatementResult(i, f"check {i}", s, "") for i, s in enumerate(statuses)]

    assert verdict_of(results()) == "PASS"
    assert verdict_of(results("ok", "pass")) == "PASS"
    assert verdict_of(results("pass", "inconclusive")) == "INCONCLUSIVE"
    assert verdict_of(results("inconclusive", "fail")) == "FAIL"
    assert verdict_of(results("inconclusive", "error")) == "FAIL"


def test_failed_check_is_not_hidden_by_an_exhausted_budget(monkeypatch):
    monkeypatch.setattr(construction, "replay_kill_order", _failing_replay)
    report = verify_main_theorem(max_cosets=10)
    assert report.verdict == "FAIL"
    assert report.exit_code == 1
    assert [c.text for c in report.statements if c.status == "fail"] == ["kill-order replay"]


def test_exhausted_budget_alone_is_inconclusive():
    report = verify_main_theorem(max_cosets=10)
    assert report.verdict == "INCONCLUSIVE"
    status = {c.text: c.status for c in report.statements}
    assert status["coset enumeration"] == "inconclusive"
    assert status["classification"] == "inconclusive"
    assert not [c for c in report.statements if c.status == "fail"]


def test_cli_verify_paper_inconclusive_prints_no_fail_line(capsys):
    assert main(["verify-paper", "--emit", "text", "--max-cosets", "10"]) == 2
    out = capsys.readouterr().out
    assert not [line for line in out.splitlines() if "FAIL" in line]
    assert out.endswith("verdict: INCONCLUSIVE\n")


def test_example_script_enumerates_once(monkeypatch):
    calls = _counted(monkeypatch, coset_enum, "todd_coxeter")
    report = execute(parse(EXAMPLE.read_text(encoding="utf-8")))
    assert [s.status for s in report.statements if s.text.startswith("check ")] == ["pass"] * 3
    assert len(calls) == 1


def test_verify_main_theorem_builds_v_and_w_once(monkeypatch):
    v = _counted(monkeypatch, construction, "assemble_v")
    w = _counted(monkeypatch, construction, "assemble_w")
    assert verify_main_theorem().verdict == "PASS"
    assert (len(v), len(w)) == (1, 1)


def test_closed_table_check_survives_python_O():
    code = (
        "from sgcalc.coset_enum import EnumerationError, _Table, _verify_closed\n"
        "assert False, 'asserts are on'\n"
        "table = _Table(2, 10)\n"
        "table.cols[0][0] = 0\n"
        "try:\n"
        "    _verify_closed(table, [[0]], [])\n"
        "except EnumerationError as err:\n"
        "    print('raised:', err)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sgcalc.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: incomplete coset table after closure\n"


def test_one_report_type():
    assert issubclass(ConstructionReport, Report)
    assert type(execute(parse("let v = build_V()"))) is Report
    assert not hasattr(construction, "VerdictReport")


def test_a_report_states_no_verdict_its_statements_do_not_give():
    report = execute(parse(FAILING))
    assert report.verdict == "FAIL"
    assert report.replace(statements=report.statements[:1]).verdict == "PASS"
    assert Report._fields == ("statements", "budgets")
    assert not {"verdict", "axioms"} & set(ConstructionReport._fields)


@pytest.mark.parametrize(
    "script, budget, verdict",
    [
        (None, [], "PASS"),
        (EXAMPLE.read_text(encoding="utf-8"), [], "PASS"),
        (FAILING, [], "FAIL"),
        (UNDECIDED, ["--max-cosets", "10"], "INCONCLUSIVE"),
    ],
    ids=["verify-paper", "run-pass", "run-fail", "run-inconclusive"],
)
def test_the_json_alone_gives_back_the_verdict(tmp_path, capsys, script, budget, verdict):
    command = ["verify-paper"]
    if script is not None:
        (tmp_path / "s.sgc").write_text(script, encoding="utf-8")
        command = ["run", str(tmp_path / "s.sgc")]
    code = main([*command, *budget, "--emit", "json"])
    payload = json.loads(capsys.readouterr().out)
    # README's rule: FAIL if any check failed or raised an error, else
    # INCONCLUSIVE if any check is undecided, else PASS
    statuses = [s["status"] for s in payload["statements"]]
    recomputed = (
        "FAIL" if "fail" in statuses or "error" in statuses else "INCONCLUSIVE" if "inconclusive" in statuses else "PASS"
    )
    assert recomputed == payload["verdict"] == verdict
    assert code == {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 2}[verdict]


def test_verify_paper_json_states_each_fact_once(capsys):
    assert main(["verify-paper", "--max-cosets", "50000", "--tietze-budget", "500"]) == 0
    text = capsys.readouterr().out
    payload = json.loads(text)
    assert list(payload) == [
        "budgets", "statements", "verdict", "blocks", "result", "surgeries", "assumptions", "axioms"
    ]
    assert payload["budgets"] == {"max_cosets": 50000, "tietze_budget": 500}
    assert [b["name"] for b in payload["blocks"]] == ["V", "W", "P"]
    assert payload["result"]["name"] == "X"
    data = {s["statement"]: s["data"] for s in payload["statements"]}
    assert data["coset enumeration"] == {"index": 1, "cosets_defined": 1075, "cosets_collapsed": 1074}
    assert set(data["classification"]) == {"b_plus", "b_minus", "description", "exotic_note"}
    assert data["simplification"]["complete"] and data["simplification"]["final_relators"] == []
    kills = data["kill-order replay"]["steps"]
    assert [k["generator"] for k in kills] == [step.generator for step in KILL_SCRIPT]
    assert "witnesses" not in text


def test_verify_paper_json_names_every_relation_the_kill_order_reads(capsys):
    """An outside checker redoes each kill step from the JSON alone, so every
    relation the script cites, the commuting pairs' included, is named there."""
    cited = {i for step in KILL_SCRIPT for cites in (step.uses, *(c for _, c in step.commuting)) for i in cites}
    assert cited == {1, 2, 4, 7, 8, 10, 13, 14, 19, 20}
    assert main(["verify-paper"]) == 0
    data = {s["statement"]: s["data"] for s in json.loads(capsys.readouterr().out)["statements"]}
    named = set()
    for kill in data["kill-order replay"]["steps"]:
        named.update(kill["relations"])
        for line in kill["derivation"]:
            for numbers in re.findall(r"relations? ([\d, ]*\d)", line):
                named.update(int(n) for n in numbers.split(", "))
    assert cited <= named, cited - named


def test_run_json_budgets_unchanged(capsys):
    assert main(["run", str(EXAMPLE), "--max-cosets", "50000"]) == 0
    assert json.loads(capsys.readouterr().out)["budgets"] == {"max_cosets": 50000}


def test_text_trace_prints_each_kill_derivation_line_once_in_kill_order(capsys):
    assert main(["verify-paper", "--emit", "text", "--trace"]) == 0
    block = capsys.readouterr().out.split("] kill-order replay\n", 1)[1].split("\n[", 1)[0]
    expected = [line for step in replay_kill_order(build_x().pi1).steps for line in step.derivation]
    assert expected[:4] == [
        "y1",
        "s1^-1 x1^-1 s1 x1   [relation 1: y1 = s1^-1 x1^-1 s1 x1]",
        "t1^-1 t2^-1 t1 t2 x1^-1 t2^-1 t1^-1 t2 t1 x1   [relation 19: s1 = t2^-1 t1^-1 t2 t1]",
        "1   [x1 commutes with t1 (relation 4) and t2 (relations 10, 13), and cancels]",
    ]
    lines = [line.strip() for line in block.splitlines()]
    assert [line for line in lines if line in expected] == expected
    assert [line for line in lines if line.startswith("generator: ")] == [
        f"generator: {g}" for g in ("y1", "y2", "t1", "s1", "s2", "t2", "x1", "x2")
    ]


def test_verify_paper_text_trace_matches_golden(capsys):
    # recorded before the kill-order replay's commuting argument was rewritten:
    # every kill derivation is pinned as text, not against the replay itself
    assert main(["verify-paper", "--emit", "text", "--trace"]) == 0
    golden = Path(__file__).parent / "golden" / "verify_paper.txt"
    assert capsys.readouterr().out == golden.read_text()
