"""What a command loads: no ``dataclasses`` anywhere in the package, no
submodule on ``import sgcalc``, no script front end for ``verify-paper``, and
the package's exports unchanged."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import sgcalc

SRC = Path(sgcalc.__file__).resolve().parent
EXAMPLE = SRC.parents[1] / "scripts" / "exotic_cp2_3.sgc"

EXPORTS = [
    "Alphabet", "Budgets", "ComplementData", "ConstructionReport", "DerivationTrace", "EnumResult",
    "EnumerationError", "Exactness", "HomeoType", "KILL_SCRIPT", "LagrangianTorusMark", "ManifoldError",
    "ManifoldState", "Minimality", "Parity", "ParseError", "Presentation", "PresentationError", "ReplayError",
    "Report", "Script", "SurfaceMark", "TrivialityCertificate", "Word", "WordError", "abelianize",
    "are_conjugate", "blow_up", "build_p", "build_p1", "build_p2", "build_v", "build_w", "build_x",
    "certify_trivial", "classify", "commutator", "complement_data", "conjugate", "construction", "coset_enum",
    "cyclic_core", "execute", "homology_invariants", "invert", "luttinger", "manifolds", "parse", "parse_word",
    "presentations", "quotient_by", "reduce", "replay", "replay_kill_order", "resolve_intersection", "script",
    "smith_normal_form", "substitute", "symplectic_sum", "tietze", "tietze_simplify", "todd_coxeter",
    "verify_main_theorem", "words",
]
SUBMODULES = {"construction", "coset_enum", "manifolds", "presentations", "script", "tietze", "words"}

# Runs ``python -m sgcalc ARGS`` in this child and prints the modules it loaded.
CHILD = """
import io, json, runpy, sys
before = set(sys.modules)
sys.argv = ["sgcalc", *json.loads(sys.argv[1])]
sys.stdout, code = io.StringIO(), None
try:
    runpy.run_module("sgcalc", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    code = exit.code
sys.stdout = sys.__stdout__
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before)}))
"""


def _loaded(code: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(args)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(n.split(".")[0] == "dataclasses" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_verify_paper_loads_neither_dataclasses_nor_the_script_front_end():
    child = _loaded(CHILD, "verify-paper", "--emit", "json")
    assert child["code"] == 0
    assert "sgcalc.construction" in child["loaded"]
    assert "dataclasses" not in child["loaded"]
    assert "sgcalc.script" not in child["loaded"]


def test_run_does_not_load_dataclasses():
    child = _loaded(CHILD, "run", str(EXAMPLE), "--emit", "json")
    assert child["code"] == 0
    assert "sgcalc.script" in child["loaded"]
    assert "dataclasses" not in child["loaded"]


def test_import_sgcalc_loads_no_submodule():
    child = _loaded("import json, sys\nimport sgcalc\nprint(json.dumps({'loaded': sorted(sys.modules)}))")
    assert [m for m in child["loaded"] if m.startswith("sgcalc.")] == []


def test_exports_are_unchanged_and_resolve():
    assert sorted(sgcalc.__all__) == EXPORTS
    for name in EXPORTS:
        value = getattr(sgcalc, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"sgcalc.{name}"]
        else:
            assert any(vars(getattr(sgcalc, m)).get(name) is value for m in SUBMODULES), name
    namespace: dict = {}
    exec("from sgcalc import *", namespace)
    assert [n for n in EXPORTS if namespace.get(n) is not getattr(sgcalc, n)] == []


def test_unknown_attribute_is_an_attribute_error():
    assert not hasattr(sgcalc, "no_such_name")
