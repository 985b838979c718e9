"""One verdict rule, and no block built or group enumerated twice in one run."""

import os
import subprocess
import sys
from pathlib import Path

import sgcalc
from sgcalc import construction, coset_enum
from sgcalc.cli import main
from sgcalc.construction import ReplayError, verify_main_theorem
from sgcalc.script import execute, parse

EXAMPLE = Path(__file__).resolve().parents[1] / "scripts" / "exotic_cp2_3.sgc"


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
    assert [c.text for c in report.checks if c.status == "fail"] == ["kill-order replay"]


def test_exhausted_budget_alone_is_inconclusive():
    report = verify_main_theorem(max_cosets=10)
    assert report.verdict == "INCONCLUSIVE"
    status = {c.text: c.status for c in report.checks}
    assert status["coset enumeration"] == "inconclusive"
    assert status["classification"] == "inconclusive"
    assert not [c for c in report.checks if c.status == "fail"]


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
        "table.rows[0] = [0, None]\n"
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
