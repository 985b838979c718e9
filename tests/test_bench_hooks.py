"""bench/tracing.py wraps sgcalc functions by module attribute: every name it wraps must exist."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

from sgcalc import construction, coset_enum, script, tietze, words
from sgcalc.construction import assemble_x

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
X_RELATORS = Path(__file__).resolve().parent / "golden" / "x_relators.txt"
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


def test_certify_trivial_x_goes_through_the_traced_enumerator():
    """The per-layer ``coset_enum.*`` numbers read the ``coset_enum.todd_coxeter`` span."""
    tracing = _load_tracing()
    x = assemble_x().state.pi1
    tracer = tracing.Tracer()
    tracer.counting = True
    restore = tracing.install(tracer)
    try:
        outcome = construction.certify_trivial(x)
    finally:
        restore()
    assert isinstance(outcome, coset_enum.TrivialityCertificate)
    assert [span[0] for span in tracer.spans].count("coset_enum.todd_coxeter") == 1
    assert tracer.counts["coset_enum.enumerations"] == 1
    assert tracer.counts["coset_enum.cosets_defined"] == 125
    assert tracer.counts["coset_enum.cosets_collapsed"] == 124


def test_traced_assemble_x_records_both_symplectic_sums():
    """The per-layer ``manifolds.*`` numbers read one span per sum: P1 with P2, then P with W."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        construction.assemble_x()
    finally:
        restore()
    assert [span[0] for span in tracer.spans].count("manifolds.symplectic_sum") == 2


# Word objects built by one traced run, counted as the bench counts ``words.word_objects``.
# Upper bounds: a change may lower them, and must not raise them.
ASSEMBLE_X_WORDS = 193
SCRIPT_VERDICT_WORDS = 193
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "exotic_cp2_3.sgc"


def _word_objects(run) -> int:
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.counting = True
    restore = tracing.install(tracer)
    try:
        run()
    finally:
        restore()
    return tracer.counts["words.word_objects"]


def test_one_assemble_x_builds_at_most_its_pinned_word_count():
    assert _word_objects(assemble_x) <= ASSEMBLE_X_WORDS


def test_one_script_verdict_builds_at_most_its_pinned_word_count():
    text = SCRIPT.read_text(encoding="utf-8")
    assert _word_objects(lambda: script.execute(script.parse(text))) <= SCRIPT_VERDICT_WORDS


def test_traced_presentation_script_reads_one_word_per_relator():
    """``script.parse_ms`` times each relator's ``script.parse_word`` span; each relator builds one ``Word``."""
    tracing = _load_tracing()
    text = 'let g = presentation(generators=["x", "y"], relators=["x^2", "[x, y]", "y^3 x"])\ncheck trivial(g)'
    parsed = script.parse(text)
    tracer = tracing.Tracer()
    tracer.counting = True
    restore = tracing.install(tracer)
    try:
        report = script.execute(parsed)
    finally:
        restore()
    assert report.verdict == "FAIL"
    assert [span[0] for span in tracer.spans].count("script.parse_word") == 3
    assert tracer.counts["words.word_objects"] == 3


def _drop_script() -> tuple[str, list[str]]:
    """The corpus median's ``drop`` shape, X less relation 1, as script text, and its relators."""
    relators = X_RELATORS.read_text(encoding="utf-8").splitlines()[1:]
    generators = ("x1", "y1", "s1", "t1", "x2", "y2", "s2", "t2")

    def listed(items):
        return ", ".join(f'"{item}"' for item in items)

    text = f"let g = presentation(generators=[{listed(generators)}], relators=[{listed(relators)}])\ncheck trivial(g)\n"
    return text, relators


def test_traced_drop_script_records_the_work_of_its_text():
    """The ``drop`` shape: per-layer counters measure one parse, one H1 and one word per relator,
    whatever the reader does inside."""
    tracing = _load_tracing()
    text, relators = _drop_script()
    tracer = tracing.Tracer()
    tracer.counting = True
    restore = tracing.install(tracer)
    try:
        report = script.execute(script.parse(text))
    finally:
        restore()
    assert report.verdict == "FAIL"
    assert report.statements[-1].data["h1_rank"] == 1
    spans = Counter(span[0] for span in tracer.spans)
    assert (spans["script.parse"], spans["presentations.h1"]) == (1, 1)
    assert spans["script.parse_word"] == len(relators) == 19
    assert tracer.counts["words.word_objects"] == 19


def test_drop_script_and_its_json_render_no_relator(monkeypatch):
    """The ``drop`` shape's relators are read in printed form and keep that text, so neither the ``let``'s
    summary nor the JSON report renders a word back: ``Word.__str__`` never runs its rendering loop."""
    rendered = []
    render = words.Word.__str__

    def counted(self):
        if not hasattr(self, "_text"):  # no text kept yet: this call renders
            rendered.append(self)
        return render(self)

    monkeypatch.setattr(words.Word, "__str__", counted)
    text, relators = _drop_script()
    report = script.execute(script.parse(text))
    payload = json.loads(report.to_json())
    assert payload["verdict"] == "FAIL"
    assert payload["statements"][0]["data"]["relators"] == relators
    assert rendered == []
