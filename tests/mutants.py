"""Mutation runner for the coset enumerator, Tietze simplification, free-group
words, the word readers, Smith normal form, the minimality rules, the block
builders' relabelling and commutation rewriting, the kill-order replay, the
record constructor and ``replace``, and the verdict rule: do the tests notice
a broken kernel, a misread word, a wrongly kept word text, a wrongly bound
field or a wrong verdict?

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
KEPT_TEXT = "tests/test_word_reader_properties.py::test_a_read_word_prints_compares_and_hashes_as_the_word_of_its_codes"
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
        "deductions-never-drained",  # plain HLT: every index stays right, only the path and its counters move
        ENUM,
        "                        _process_deductions(table, cycles, [(f, letters[i])])\n",
        "",
        (
            f"{ENUM_TESTS}::test_enumeration_paths_match_golden",
            f"{ENUM_TESTS}::test_x_closes_in_125_cosets",
        ),
    ),
    Mutant(
        "deduction-forward-only",  # a deduction scan fills e.x = g without g.x^-1 = e
        ENUM,
        "                hw[k][g] = e\n",
        "",
        (
            f"{ENUM_TESTS}::test_index_matches_brute_force_order",
            f"{ENUM_TESTS}::test_coincidence_keeps_its_deductions_on_three_generators",
        ),
    ),
    Mutant(
        "drain-scans-on-after-its-coset-died",  # a dead coset's cleared row is read as c.x
        ENUM,
        "                    if parent[c] != c:\n                        break\n",
        "",
        (f"{ENUM_TESTS}::test_index_matches_brute_force_order", f"{ENUM_TESTS}::test_x_closes_in_125_cosets"),
    ),
    Mutant(
        "shared-cycles-not-merged",  # a deduction on c.x1 scans only x1's cycles, not also x2's
        ENUM,
        "    cycles = [shared[x] for x in table.classes]\n",
        "    cycles = [[] for _ in table.classes]\n",
        (f"{ENUM_TESTS}::test_enumeration_paths_match_golden", f"{ENUM_TESTS}::test_x_closes_in_125_cosets"),
    ),
    Mutant(
        "shared-column-grown-twice",  # a list shared by two letters is extended once for each
        ENUM,
        "        for col, _ in self.pairs:\n            col.extend(",
        "        for col in self.cols:\n            col.extend(",
        (f"{ENUM_TESTS}::test_columns_grow_within_the_budget", f"{ENUM_TESTS}::test_two_letter_relators_share_columns"),
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
        "kept-text-ignores-adjacent-repeat",  # "x x" kept as the text of x^2
        SCRIPT,
        "            printed = False\n            if out[-1] == code:\n",
        "            printed = printed and out[-1] != code\n            if out[-1] == code:\n",
        (KEPT_TEXT, "tests/test_word_reader_properties.py::test_spaced_syllables_are_read_without_the_full_reader"),
    ),
    Mutant(
        "letter-table-inverse-as-forward",  # "g^-1" looked up as g's code
        "src/sgcalc/words.py",
        '                letters[name + "^-1"] = 2 * rank + 1\n',
        '                letters[name + "^-1"] = 2 * rank\n',
        (GOLDEN_WORDS, f"{WORDS_TESTS}::test_letter_codes_name_each_letter_and_its_inverse"),
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
        "snf-pivot-ignores-sign",  # a negative pivot's quotient taken against |p|: rows are not cleared
        "src/sgcalc/presentations.py",
        "                q = row[j] // p\n",
        "                q = row[j] // abs(p)\n",
        (
            "tests/test_presentations.py::test_snf_matches_minor_gcd_oracle_randomized",
            "tests/test_presentations_properties.py::test_unit_and_least_pivots_agree_with_sympy_and_the_minor_gcd_oracle",
            "tests/test_presentations_properties.py::test_sparse_wide_matrices_agree_with_sympy",
        ),
    ),
    Mutant(
        "r3-reads-the-wrong-side",  # R3 asks the flagged surface's own side, not the one across, to be minimal
        "src/sgcalc/manifolds.py",
        "((mark2, s1), (mark1, s2))",
        "((mark2, s2), (mark1, s1))",
        ("tests/test_manifolds.py::test_r3_reads_the_side_across_from_the_flagged_surface",),
    ),
    Mutant(
        "blow-up-keeps-r3-flag-off-the-surface",  # a -1 sphere off every surface leaves their flags standing
        "src/sgcalc/manifolds.py",
        "    surfaces = tuple(m.replace(no_minus_one_sphere_off_surface=False) for m in s.surfaces)\n",
        "    surfaces = s.surfaces\n",
        ("tests/test_manifolds.py::test_blow_up_on_g_of_a_minimal_state_flags_g",),
    ),
    Mutant(
        "kill-replay-skips-cancellation-check",  # a mobile generator with nonzero exponent sum is commuted away
        "src/sgcalc/construction.py",
        "            if word.exponent_sum(mobile) != 0:\n",
        "            if False:\n",
        ("tests/test_construction.py::test_replay_refuses_a_mutated_kill_script[no-cancel]",),
    ),
    Mutant(
        "record-binds-keywords-by-position",  # Shorten(other=2, target=1) read as target=2
        "src/sgcalc/records.py",
        "named.pop(name) for name in fields[len(values):]",
        "named.pop(next(iter(named))) for name in fields[len(values):]",
        ("tests/test_records.py::test_the_constructor_binds_by_position_then_by_name",),
    ),
    Mutant(
        "replace-accepts-an-unknown-field",  # r.replace(nme="V2") returns r unchanged
        "src/sgcalc/records.py",
        "        if changes:\n",
        "        if False:\n",
        ("tests/test_records.py::test_replace_refuses_an_unknown_field_and_binds_the_rest_by_position",),
    ),
    Mutant(
        "relabel-ignores-an-image-sign",  # x -> t^-1 read as x -> t
        "src/sgcalc/construction.py",
        "        letter += (code, code ^ 1)\n",
        "        letter += (code & ~1, code | 1)\n",
        (
            "tests/test_construction.py::test_relabel_through_quarter_turn",
            "tests/test_construction_properties.py::test_the_relabelled_template_is_the_word_arithmetic",
        ),
    ),
    Mutant(
        "normal-form-skips-the-reduction-after-a-swap",  # x x^-1 left standing in a word built as reduced
        "src/sgcalc/presentations.py",
        "codes, i, swapped = free_reduce(codes), 0, True",
        "codes, i, swapped = codes, 0, True",
        (
            "tests/test_presentations.py::test_commutation_rewriting",
            "tests/test_presentations.py::test_commutation_normal_form_matches_the_word_by_word_reference",
        ),
    ),
    Mutant(
        "prune-rewrites-a-relator-with-its-own-pair",  # every simple commutator rewrites itself away
        "src/sgcalc/presentations.py",
        "if pair and kept[j] and j != i}",
        "if pair and kept[j]}",
        (
            "tests/test_presentations.py::test_prune_redundant_rewrites_a_relator_with_the_other_relators_pairs_only",
            "tests/test_construction.py::test_v_relators_match_golden",
        ),
    ),
    Mutant(
        "substitute-skips-free-reduce",  # b a b^-1 with a -> 1 left as b b^-1
        "src/sgcalc/words.py",
        "        free_reduce(pieces[c], out)\n",
        "        out += pieces[c]\n",
        (
            f"{WORDS_TESTS}::test_substitute_kills_conjugate_of_identity",
            f"{WORDS_TESTS}::test_substitute_reduces_as_the_constructor_would",
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
