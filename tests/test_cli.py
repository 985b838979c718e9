"""``--out`` writes exactly what standard output would show, and an
unwritable path, like an unreadable or malformed input, is a usage error,
never a verdict."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgcalc
from sgcalc.cli import main
from sgcalc.script import MAX_LIST_DEPTH

EXAMPLE = Path(__file__).resolve().parents[1] / "scripts" / "exotic_cp2_3.sgc"
DOCUMENT = "generators: x y z\nrelator: [x, y]\nrelator: x z\nrelator: y^2 x y\n"


def _commands(tmp_path: Path) -> dict[str, list[str]]:
    document = tmp_path / "doc.txt"
    document.write_text(DOCUMENT, encoding="utf-8")
    return {
        "run": ["run", str(EXAMPLE)],
        "verify-paper": ["verify-paper"],
        "simplify": ["simplify", str(document)],
    }


@pytest.mark.parametrize("command", ["run", "verify-paper", "simplify"])
@pytest.mark.parametrize("emit", ["json", "text"])
def test_out_writes_the_bytes_of_standard_output(tmp_path, capsys, command, emit):
    args = _commands(tmp_path)[command] + ["--emit", emit]
    code = main(args)
    shown = capsys.readouterr().out
    out = tmp_path / "report"
    assert main(args + ["--out", str(out)]) == code == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == shown.encode("utf-8")
    assert shown.endswith("\n")


@pytest.mark.parametrize("command", ["run", "verify-paper", "simplify"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as info:
        main(_commands(tmp_path)[command] + ["--out", str(out)])
    assert info.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"sgcalc: cannot write {out}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["run", "verify-paper", "simplify"])
def test_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, command):
    from sgcalc import construction, script

    def never(*args, **kwargs):
        pytest.fail("the command ran before --out was found unwritable")

    monkeypatch.setattr(construction, "verify_main_theorem", never)
    monkeypatch.setattr(script, "execute", never)
    monkeypatch.setattr("sgcalc.cli.tietze_simplify", never)
    out = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as info:
        main(_commands(tmp_path)[command] + ["--out", str(out)])
    assert info.value.code == 64
    assert capsys.readouterr().err.startswith(f"sgcalc: cannot write {out}: ")


def test_out_may_name_the_input_document(tmp_path, capsys):
    document = tmp_path / "doc.txt"
    document.write_text(DOCUMENT, encoding="utf-8")
    assert main(["simplify", str(document), "--emit", "text"]) == 0
    shown = capsys.readouterr().out
    assert main(["simplify", str(document), "--emit", "text", "--out", str(document)]) == 0
    assert document.read_text(encoding="utf-8") == shown


def test_simplify_text_trace_lists_each_step(tmp_path, capsys):
    document = tmp_path / "doc.txt"
    document.write_text("generators: x y\nrelator: [x, y]\nrelator: x y^-1\n", encoding="utf-8")
    assert main(["simplify", str(document), "--emit", "text", "--trace"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "generators: x",
        "exactness: exact",
        "steps: 2",
        "eliminated: y",
        "complete: True",
        "  Eliminate(gen='y', relator_index=1, definition=<Word x>)",
        "  RemoveTrivial(relator_index=0)",
    ]


DEEP = MAX_LIST_DEPTH + 1
MALFORMED = {
    "non-utf8": b"\xff\xfe",
    "nul-byte": b"let v = build_V()\x00\n",
    "nested-past-bound": f"let p = presentation(generators={'[' * DEEP}{']' * DEEP})\n".encode(),
    "directory": None,
    "missing": None,
}


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("command", ["run", "simplify"])
def test_malformed_input_is_a_usage_error_without_a_traceback(tmp_path, command, case):
    path = tmp_path / case
    if case == "directory":
        path.mkdir()
    elif MALFORMED[case] is not None:
        path.write_bytes(MALFORMED[case])
    env = dict(os.environ, PYTHONPATH=str(Path(sgcalc.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "sgcalc", command, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 64, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stderr.startswith("sgcalc: ")


@pytest.mark.parametrize(
    "text, echo",
    [
        ("generators: x\nrelator: " + "y" * 200_000 + "\n", "unknown generator (200000 characters)"),
        ("generators: x\nrelator: x " + "9" * 200_000 + "\n", "unexpected (200000 characters) in word"),
        ("generators: " + "@" * 200_000 + "\n", "invalid generator name (200000 characters)"),
        ("generators: " + " ".join(["x" * 200_000] * 2) + "\n", "duplicate generator name (200000 characters)"),
    ],
    ids=["unknown-generator", "unexpected-token", "invalid-name", "duplicate-name"],
)
def test_a_long_bad_token_gives_a_short_error(tmp_path, text, echo):
    path = tmp_path / "doc.txt"
    path.write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(sgcalc.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "sgcalc", "simplify", str(path)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 64, proc.stderr[:300]
    assert echo.encode() in proc.stderr and len(proc.stderr) < 200, proc.stderr[:300]
