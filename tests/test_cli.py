"""``--out`` writes exactly what standard output would show, and an
unwritable path is a usage error, never a verdict."""

from pathlib import Path

import pytest

from sgcalc.cli import main

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
