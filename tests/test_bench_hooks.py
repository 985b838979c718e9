"""bench/tracing.py wraps sgcalc functions by module attribute: every name it wraps must exist."""

import importlib.util
from pathlib import Path

from sgcalc import construction, coset_enum, script, tietze, words

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = (construction, coset_enum, script, tietze, words)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_restores():
    tracing = _load_tracing()
    before = [dict(vars(m)) for m in MODULES]
    word_init = words.Word.__init__
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert construction.certify_trivial is not before[0]["certify_trivial"]
        report = script.execute(script.parse("let v = build_V()\ncheck invariants(v, 0, 0)"))
        assert report.verdict == "PASS"
        assert "construction.assemble_v" in {span[0] for span in tracer.spans}
    finally:
        restore()
    assert words.Word.__init__ is word_init
    for module, saved in zip(MODULES, before):
        changed = [k for k, v in saved.items() if vars(module).get(k) is not v]
        assert not changed, f"{module.__name__}: {changed} not restored"
