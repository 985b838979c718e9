"""The benchmark corpus is reproducible and its expected answers are right.

The answers are cross-checked with sympy, independently of sgcalc:
``coset_enumeration_r`` for the finite orders and for index 1 on a few
``aut`` items, ``smith_normal_form`` for the H1 rank of the ``drop`` items.
(``FpGroup.order()`` is avoided: it did not finish within 200 s on X.)
Enumeration runs on the undisguised problems, which sympy closes in seconds
rather than minutes; the disguise is shown separately to keep every
relator's cyclic core, so it keeps the group.
"""

from pathlib import Path

import pytest

import corpus

ROOT = Path(__file__).resolve().parent.parent


def test_same_seed_gives_byte_identical_items():
    first = [(i.name, i.text) for i in corpus.generate(7, ROOT)]
    again = [(i.name, i.text) for i in corpus.generate(7, ROOT)]
    assert first == again
    other = [(i.name, i.text) for i in corpus.generate(8, ROOT)]
    assert sorted(n for n, _ in other) == sorted(n for n, _ in first)
    assert not set(t for _, t in first) & set(t for _, t in other)


def test_families_and_answers_are_fixed():
    items = corpus.generate(7, ROOT)
    assert sorted(i.name for i in items) == sorted(p.name for p in corpus.problems(ROOT))
    families = {f: [i for i in items if i.family == f] for f in ("aut", "finite", "drop")}
    assert len(families["aut"]) == corpus.AUT_ITEMS
    assert len(families["finite"]) == 2 * len(corpus.FINITE_GROUPS)
    assert sorted(int(i.name.split("-")[1]) for i in families["drop"]) == sorted(corpus.DROPPABLE * 2)
    assert all(1 <= len(i.moves) <= 2 for i in families["aut"])


def test_disguise_keeps_the_cyclically_reduced_relators():
    def core(letters):
        letters = list(letters)
        while len(letters) > 1 and letters[0] == (letters[-1][0], -letters[-1][1]):
            letters = letters[1:-1]
        return tuple(letters)

    problems = {p.name: p for p in corpus.problems(ROOT)}
    for item in corpus.generate(3, ROOT):
        problem = problems[item.name]
        back = dict(zip(item.generators, problem.generators))
        restored = [core(tuple((back[n], e) for n, e in r)) for r in item.relators]
        assert restored == [core(r) for r in problem.relators]


def _sympy_group(item):
    pytest.importorskip("sympy")
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    free, *gens = free_group(",".join(item.generators))
    by_name = dict(zip(item.generators, gens))
    relators = []
    for r in item.relators:
        word = free.identity
        for name, exp in r:
            word = word * by_name[name] ** exp
        relators.append(word)
    return FpGroup(free, relators)


def _sympy_index(item) -> int:
    group = _sympy_group(item)
    from sympy.combinatorics.fp_groups import coset_enumeration_r

    table = coset_enumeration_r(group, [])
    table.compress()
    return len(table.table)


@pytest.mark.parametrize("name", [f"finite-{g[0]}-{k}" for k in (0, 1) for g in corpus.FINITE_GROUPS])
def test_finite_orders_match_sympy(name):
    problem = next(p for p in corpus.problems(ROOT) if p.name == name)
    assert _sympy_index(problem) == problem.value


@pytest.mark.parametrize("name", ["aut-1", "aut-4"])
def test_aut_items_are_trivial_by_sympy(name):
    problem = next(p for p in corpus.problems(ROOT) if p.name == name)
    assert _sympy_index(problem) == 1


def test_drop_items_have_h1_rank_one_by_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import smith_normal_form

    for item in corpus.generate(7, ROOT):
        if item.family != "drop":
            continue
        rows = [[sympy.ZZ(sum(e for n, e in r if n == g)) for g in item.generators] for r in item.relators]
        snf = smith_normal_form(DomainMatrix(rows, (len(rows), len(item.generators)), sympy.ZZ)).to_Matrix()
        nonzero = sum(1 for k in range(min(snf.shape)) if snf[k, k] != 0)
        assert len(item.generators) - nonzero == item.value
