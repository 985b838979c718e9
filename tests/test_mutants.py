"""The mutant table of ``tests/mutants.py`` stays applicable as the code moves."""

import re

import pytest

from conftest import TEST_TIME_LIMIT_S
from mutants import MUTANTS, ROOT, TIME_LIMIT_S


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_applies_once_and_names_existing_tests(mutant):
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.tests
    for node in mutant.tests:
        path, name = node.split("::")
        assert re.search(rf"^def {re.escape(name)}\(", (ROOT / path).read_text(encoding="utf-8"), re.M), node


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


def test_a_looping_mutant_times_out_before_the_suite_limit_fails_it():
    assert TIME_LIMIT_S < TEST_TIME_LIMIT_S
