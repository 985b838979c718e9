"""Outside-in tracing of sgcalc's layers for the traced benchmark run.

Public functions are wrapped at the module attributes their callers look
up (``construction.tietze_simplify``, ``tietze.rotations``,
``script.certify_trivial``, ...), so nothing under ``src/`` changes and the
wrapping is undone afterwards.  Each call becomes a span ``[name, start,
end, parent, verdict]``; the benchmark opens one root span per verdict and
every span below it carries that verdict's id.  Spans stay in memory and
are written out when the run ends.  Counters are read off the values the
wrapped functions return, at the same boundaries.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.verdict: int | None = None
        self.counting = False

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.verdict])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        if self.counting:
            self.counts[name] += n


def _enum_counts(tracer: Tracer, result) -> None:
    tracer.count("coset_enum.enumerations")
    tracer.count("coset_enum.cosets_defined", result.defined)
    tracer.count("coset_enum.cosets_collapsed", result.collapsed)
    if result.index is None:
        tracer.count("coset_enum.budget_exhausted")
    else:
        tracer.count("coset_enum.closed_index", result.index)


def _tietze_counts(tracer: Tracer, result) -> None:
    _, trace = result
    tracer.count("tietze.steps", len(trace.steps))
    for step in trace.steps:
        tracer.count(f"tietze.steps.{type(step).__name__}")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap sgcalc's layer boundaries; returns a function that unwraps them."""
    from sgcalc import coset_enum, construction, script, tietze, words

    undo: list[Callable[[], None]] = []

    def wrap(module, attr: str, span: str, on_result=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.begin(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_result is not None and tracer.counting:
                on_result(tracer, result)
            return result

        setattr(module, attr, traced)
        undo.append(lambda: setattr(module, attr, original))

    # words: rotations feeds Tietze's duplicate test and are_conjugate
    wrap(tietze, "rotations", "words.rotations")
    wrap(words, "rotations", "words.rotations")
    word_init = words.Word.__init__

    def counted_init(self, *args, **kwargs):
        tracer.count("words.word_objects")
        word_init(self, *args, **kwargs)

    words.Word.__init__ = counted_init
    undo.append(lambda: setattr(words.Word, "__init__", word_init))

    wrap(construction, "tietze_simplify", "tietze.simplify", _tietze_counts)
    wrap(tietze, "replay", "tietze.replay")
    wrap(coset_enum, "todd_coxeter", "coset_enum.todd_coxeter", _enum_counts)
    for module in (construction, script):
        wrap(module, "certify_trivial", "coset_enum.certify_trivial")
        wrap(module, "homology_invariants", "presentations.h1")
        wrap(module, "classify", "manifolds.classify")
        wrap(module, "blow_up", "manifolds.blow_up")
    wrap(construction, "prune_redundant", "presentations.prune")
    for attr in ("luttinger", "resolve_intersection", "symplectic_sum"):
        wrap(construction, attr, f"manifolds.{attr}")
    for attr, span in (("_luttinger", "luttinger"), ("_resolve", "resolve_intersection"), ("_sum", "symplectic_sum")):
        wrap(script, attr, f"manifolds.{span}")
    for block in ("v", "w", "p1", "p2", "p", "x"):
        wrap(construction, f"assemble_{block}", f"construction.assemble_{block}")
    wrap(construction, "replay_kill_order", "construction.replay_kill_order")
    wrap(construction, "verify_main_theorem", "construction.verify_main_theorem")
    wrap(script, "parse", "script.parse")
    wrap(script, "parse_word", "script.parse_word")
    wrap(script, "execute", "script.execute")

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own
