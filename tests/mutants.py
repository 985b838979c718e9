"""Mutation runner for the coset enumerator, Tietze simplification, free-group
words, the word readers and the verdict rule: do the tests notice a broken
kernel, a misread word or a wrong verdict?

Each entry of :data:`MUTANTS` names one source file, an exact snippet that
occurs once in it, the snippet's replacement, and the test node ids expected
to fail on the mutated code.  The runner copies the repository's ``src`` and
``tests`` into a temporary directory and checks that the named tests pass
there unmutated.  Then it applies one mutant at a time (the working tree is
never touched), runs only that mutant's tests in one child ``pytest`` at a
time, allowed :data:`TIME_LIMIT_S` seconds, restores the file, and writes
JSON to standard output, one record per mutant: ``killed`` (a test failed),
``survived`` (all passed), ``timed out`` or ``error`` (pytest could not run
the tests), with the seconds it took.  It exits 1 unless every mutant was
killed.  A survivor means a gap in the tests; mend it with a test, never by
deleting the mutant.

The file is not named ``test_*``, so the suite does not collect it;
``tests/test_mutants.py`` checks that every snippet still occurs exactly once
and every named test exists, so a mutant whose code has moved fails loudly
instead of rotting.
Run it from the repository root::

    python tests/mutants.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
ENUM = "src/sgcalc/coset_enum.py"
ENUM_TESTS = "tests/test_coset_enum.py"
SCRIPT = "src/sgcalc/script.py"
GOLDEN_WORDS = "tests/test_word_reader.py::test_word_reader_matches_golden"
TIETZE = "src/sgcalc/tietze.py"
TIETZE_TESTS = "tests/test_tietze.py"
WORDS_TESTS = "tests/test_words.py"
# Seconds allowed for one mutant's tests.  Below the suite's per-test limit
# (tests/conftest.py, TEST_TIME_LIMIT_S), so a mutant that makes a test loop
# is reported as timed out rather than as killed by that limit.
TIME_LIMIT_S = 60


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "coincidence-keeps-back-pointer",  # the lost-deduction bug: d.x^-1 = dead is left in place
        ENUM,
        "            if icol[d] == dead:\n                icol[d] = None\n",
        "",
        (
            f"{ENUM_TESTS}::test_coincidence_keeps_its_deductions",
            f"{ENUM_TESTS}::test_coincidence_keeps_its_deductions_on_three_generators",
        ),
    ),
    Mutant(
        "define-forward-only",  # DEFINE f.x = d without d.x^-1 = f
        ENUM,
        "                    bw[i][d] = f\n",
        "",
        (f"{ENUM_TESTS}::test_cyclic_three_enumeration_trace", f"{ENUM_TESTS}::test_index_matches_brute_force_order"),
    ),
    Mutant(
        "closure-check-without-relator-pass",
        ENUM,
        '(relators, live, "relator scan does not close")',
        '((), live, "relator scan does not close")',
        (f"{ENUM_TESTS}::test_closed_table_check_rejects_a_consistent_table_that_breaks_a_word",),
    ),
    Mutant(
        "closure-check-without-subgroup-pass",
        ENUM,
        '(subgens, [0], "subgroup generator leaves coset 1")',
        '((), [0], "subgroup generator leaves coset 1")',
        (
            f"{ENUM_TESTS}::test_closed_table_check_rejects_a_consistent_table_that_breaks_a_word",
            f"{ENUM_TESTS}::test_subgroup_check_survives_python_O",
        ),
    ),
    Mutant(
        "merge-keeps-greater-coset",
        ENUM,
        "                if u > v:\n",
        "                if u < v:\n",
        (f"{ENUM_TESTS}::test_enumeration_paths_match_golden",),
    ),
    Mutant(
        "budget-off-by-one",  # the columns take one entry more, so max_cosets + 1 cosets are defined
        ENUM,
        "        if n >= self.max_cosets:\n"
        "            raise _Budget\n"
        "        self.capacity = min(2 * n, self.max_cosets)\n",
        "        if n > self.max_cosets:\n"
        "            raise _Budget\n"
        "        self.capacity = min(2 * n, self.max_cosets + 1)\n",
        (f"{ENUM_TESTS}::test_budget_exhaustion_is_a_value", f"{ENUM_TESTS}::test_columns_grow_within_the_budget"),
    ),
    Mutant(
        "columns-grow-past-budget",
        ENUM,
        "        self.capacity = min(2 * n, self.max_cosets)\n",
        "        self.capacity = 2 * n\n",
        (f"{ENUM_TESTS}::test_columns_grow_within_the_budget",),
    ),
    Mutant(
        "fast-path-splits-any-whitespace",  # "x\xa0y" and the like read as words, not refused
        SCRIPT,
        '    chunks = text.split(" ")\n',
        "    chunks = text.split()\n",
        (GOLDEN_WORDS, "tests/test_word_reader_properties.py::test_both_paths_give_the_full_readers_word_or_error"),
    ),
    Mutant(
        "fast-path-without-six-digit-cap",  # a 5,000-digit exponent reaches int() and escapes as ValueError
        SCRIPT,
        "if not digits.isdecimal() or len(digits) > 6:",
        "if not digits.isdecimal():",
        (GOLDEN_WORDS, "tests/test_script.py::test_cli_simplify_huge_exponent_exit_64"),
    ),
    Mutant(
        "commutator-right-side-not-inverted",
        SCRIPT,
        "*inverse_codes(left), *inverse_codes(right)]",
        "*inverse_codes(left), *right]",
        ("tests/test_script.py::test_parse_word_syntax", GOLDEN_WORDS),
    ),
    Mutant(
        "comment-sign-read-as-a-comment",  # "x # y" read as x
        SCRIPT,
        "    if at >= 0:\n",
        "    if False:\n",
        (
            "tests/test_word_reader.py::test_comment_sign_in_a_word_is_an_unexpected_character",
            "tests/test_script_parser.py::test_word_error_messages",
            "tests/test_script.py::test_comment_sign_in_a_relator_is_an_error_not_a_truncation",
        ),
    ),
    Mutant(
        "power-bound-inclusive",  # "[x, y]^25000", exactly at the bound, refused
        SCRIPT,
        "if abs(k) * len(atom) > MAX_WORD_LETTERS:",
        "if abs(k) * len(atom) >= MAX_WORD_LETTERS:",
        (GOLDEN_WORDS,),
    ),
    Mutant(
        "commutator-error-at-its-close",  # "word longer" placed at ']' instead of '['
        SCRIPT,
        "(out, left, tok), right = stack.pop(), out",
        "(out, left, _), right = stack.pop(), out",
        (GOLDEN_WORDS,),
    ),
    Mutant(
        "eliminate-skips-a-relator",  # the last relator keeps the eliminated generator's letter
        TIETZE,
        "            for i, r in enumerate(relators):\n",
        "            for i, r in enumerate(relators[:-1]):\n",
        (f"{TIETZE_TESTS}::test_x_trace_matches_golden", f"{TIETZE_TESTS}::test_trace_replays_to_final"),
    ),
    Mutant(
        "shorten-without-match-check",  # a replayed shortening cuts letters that are not the other relator's
        TIETZE,
        "            if t[at : at + overlap] != src[:overlap]:\n",
        "            if False:\n",
        (f"{TIETZE_TESTS}::test_mutated_x_trace_never_changes_h1",),
    ),
    Mutant(
        "is-rotation-without-length-test",  # a proper subword of the doubled text read as a rotation
        "src/sgcalc/words.py",
        "    return 2 * len(text) == len(twice) and text in twice\n",
        "    return text in twice\n",
        (
            f"{WORDS_TESTS}::test_are_conjugate_is_rotation_of_cyclic_cores",
            f"{WORDS_TESTS}::test_same_relator_is_conjugacy_up_to_inversion",
            f"{WORDS_TESTS}::test_rotation_tests_on_edge_cases",
        ),
    ),
    Mutant(
        "inconclusive-read-as-pass",  # an exhausted budget reported as a proof
        "src/sgcalc/construction.py",
        '    return "INCONCLUSIVE" if "inconclusive" in statuses else "PASS"\n',
        '    return "PASS"\n',
        ("tests/test_report.py::test_verdict_rule", "tests/test_script.py::test_execute_inconclusive_on_tiny_budget"),
    ),
)


def run_tests(tree: Path, tests: tuple[str, ...]) -> str:
    """``passed``, ``failed``, ``timed out`` or ``error (...)`` for one child ``pytest`` on ``tests`` in ``tree``."""
    # no bytecode cache: a mutant of the same size and mtime must never run the original's
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIME_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        return "timed out"
    # pytest exits 1 when a test failed; anything else is a run that went wrong
    return {0: "passed", 1: "failed"}.get(proc.returncode, f"error (pytest exit {proc.returncode})")


def run_mutant(tree: Path, mutant: Mutant) -> dict:
    """Apply ``mutant`` in ``tree``, run its tests in one child, restore the file."""
    target = tree / mutant.path
    original = target.read_text(encoding="utf-8")
    if original.count(mutant.snippet) != 1:
        raise SystemExit(f"{mutant.name}: snippet does not occur exactly once in {mutant.path}")
    target.write_text(original.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    start = time.perf_counter()
    try:
        outcome = run_tests(tree, mutant.tests)
    finally:
        target.write_text(original, encoding="utf-8")
    status = {"passed": "survived", "failed": "killed"}.get(outcome, outcome)
    return {"name": mutant.name, "path": mutant.path, "status": status,
            "seconds": round(time.perf_counter() - start, 2), "tests": list(mutant.tests)}


def main() -> int:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.pyc")
    with tempfile.TemporaryDirectory(prefix="sgcalc-mutants-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        # the control: unmutated, every named test passes, so a failure below is the mutant's
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        control = run_tests(tree, tests)
        if control != "passed":
            raise SystemExit(f"on the unmutated tree the mutants' tests gave {control!r}; no mutant was run")
        results = [run_mutant(tree, m) for m in MUTANTS]
    killed = sum(r["status"] == "killed" for r in results)
    report = {"score": f"{killed}/{len(results)} killed", "mutants": results}
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
