"""Enumeration tests against brute-force multiplication-table oracles.

Each corpus presentation comes with a concrete model group (residues,
pairs, permutations).  The model's order is computed by closing the
generator set under multiplication - no group theory shortcuts - and the
relators are checked to hold in the model, so the expected index is
verified independently of the enumerator.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from conftest import random_word
from sgcalc import coset_enum
from sgcalc.construction import assemble_x
from sgcalc.coset_enum import (
    MAX_COSETS_CEILING,
    EnumResult,
    EnumerationError,
    TrivialityCertificate,
    _Table,
    _verify_closed,
    certify_trivial,
    todd_coxeter,
)
from sgcalc.presentations import Presentation, abelianize, homology_invariants, smith_normal_form
from sgcalc.words import Alphabet, commutator


def closure_order(gens, mul, identity):
    """Brute-force multiplication table of the generated group."""
    elements = {identity}
    frontier = [identity]
    table = {}
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                prod = mul(e, g)
                table[(e, g)] = prod
                if prod not in elements:
                    elements.add(prod)
                    nxt.append(prod)
        frontier = nxt
    # complete the table over all pairs (finite closure)
    for e in list(elements):
        for f in list(elements):
            prod = mul(e, f)
            table[(e, f)] = prod
            assert prod in elements
    return len(elements), table


def model_eval(word, assignment, mul, identity, inverse):
    out = identity
    for name, exp in word.letters():
        g = assignment[name] if exp > 0 else inverse(assignment[name])
        out = mul(out, g)
    return out


def residue_model(n, assignment):
    """Generators acting as residues modulo ``n`` under addition."""
    return dict(
        gens=sorted(set(assignment.values())),
        assignment=assignment,
        mul=lambda u, v: (u + v) % n,
        identity=0,
        inverse=lambda u: (-u) % n,
    )


def permutation_model(assignment):
    """Generators acting as permutations, given as tuples of images of 0..n-1."""
    n = len(next(iter(assignment.values())))

    def inverse(u):
        out = [0] * n
        for i, ui in enumerate(u):
            out[ui] = i
        return tuple(out)

    return dict(
        gens=sorted(set(assignment.values())),
        assignment=assignment,
        mul=lambda u, v: tuple(u[v[i]] for i in range(n)),
        identity=tuple(range(n)),
        inverse=inverse,
    )


def cyclic_case(n):
    ab = Alphabet(("x",))
    p = Presentation(ab, (ab.gen("x", n),))
    return p, residue_model(n, {"x": 1 % n}), n


def klein_case():
    ab = Alphabet(("a", "b"))
    a, b = ab.gen("a"), ab.gen("b")
    p = Presentation(ab, (a ** 2, b ** 2, (a * b) ** 2))
    model = dict(
        gens=[(1, 0), (0, 1)],
        assignment={"a": (1, 0), "b": (0, 1)},
        mul=lambda u, v: ((u[0] + v[0]) % 2, (u[1] + v[1]) % 2),
        identity=(0, 0),
        inverse=lambda u: u,
    )
    return p, model, 4


def sym3_case():
    ab = Alphabet(("a", "b"))
    a, b = ab.gen("a"), ab.gen("b")
    p = Presentation(ab, (a ** 2, b ** 2, (a * b) ** 3))
    return p, permutation_model({"a": (1, 0, 2), "b": (0, 2, 1)}), 6


def dihedral5_case():
    """Two reflections of the pentagon, i -> -i and i -> 1 - i, whose product turns it by one."""
    ab = Alphabet(("a", "b"))
    a, b = ab.gen("a"), ab.gen("b")
    p = Presentation(ab, (a ** 2, b ** 2, (a * b) ** 5))
    reflections = {"a": tuple(-i % 5 for i in range(5)), "b": tuple((1 - i) % 5 for i in range(5))}
    return p, permutation_model(reflections), 10


def sym4_case():
    """S4 on four points: a transposition and a 3-cycle whose product is a 4-cycle."""
    ab = Alphabet(("a", "b"))
    a, b = ab.gen("a"), ab.gen("b")
    p = Presentation(ab, (a ** 2, b ** 3, (a * b) ** 4))
    return p, permutation_model({"a": (1, 0, 2, 3), "b": (0, 2, 3, 1)}), 24


def chain_case():
    """< a, b, c | a b^-1, b c^-1, c^7 >: three letters identified, one column pair in all."""
    ab = Alphabet(("a", "b", "c"))
    a, b, c = ab.gen("a"), ab.gen("b"), ab.gen("c")
    p = Presentation(ab, (a * ~b, b * ~c, c ** 7))
    return p, residue_model(7, {"a": 1, "b": 1, "c": 1}), 7


def involution_identified_case():
    """< a, b | a^2, a b >: a is an involution and b = a^-1, so a, a^-1, b, b^-1 share one column."""
    ab = Alphabet(("a", "b"))
    a, b = ab.gen("a"), ab.gen("b")
    p = Presentation(ab, (a ** 2, a * b))
    return p, residue_model(2, {"a": 1, "b": 1}), 2


CORPUS = [
    cyclic_case(2), cyclic_case(3), cyclic_case(5), cyclic_case(12), klein_case(), sym3_case(),
    dihedral5_case(), sym4_case(), chain_case(), involution_identified_case(),
]


@pytest.mark.parametrize("p, model, expected", CORPUS)
def test_index_matches_brute_force_order(p, model, expected):
    order, _ = closure_order(model["gens"], model["mul"], model["identity"])
    assert order == expected
    for r in p.relators:
        assert (
            model_eval(r, model["assignment"], model["mul"], model["identity"], model["inverse"])
            == model["identity"]
        )
    result = todd_coxeter(p, max_cosets=10_000)
    assert result.index == order


def test_cyclic_three_enumeration_trace():
    ab = Alphabet(("x",))
    p = Presentation(ab, (ab.gen("x", 3),))
    result = todd_coxeter(p, (), 100)
    assert result == EnumResult(index=3, defined=3, collapsed=0)


def test_x_closes_in_125_cosets():
    """HLT's row order alone defines 1,075 cosets on X; scanning the cycles through each deduction, 141;
    with x1, x2 and y1, y2 sharing columns through X's relators x1 x2^-1 and y1 y2^-1, 125."""
    assert todd_coxeter(assemble_x().state.pi1) == EnumResult(index=1, defined=125, collapsed=124)


def test_subgroup_index():
    ab = Alphabet(("x",))
    p = Presentation(ab, (ab.gen("x", 12),))
    assert todd_coxeter(p, (ab.gen("x", 4),)).index == 4
    assert todd_coxeter(p, (ab.gen("x"),)).index == 1


def test_empty_alphabet_and_identity_words_scan_as_no_ops():
    empty = Alphabet(())
    assert todd_coxeter(Presentation(empty, (empty.identity(),)), (), 1) == EnumResult(1, 1, 0)
    ab = Alphabet(("x",))
    p = Presentation(ab, (ab.identity(), ab.gen("x", 3)))
    assert todd_coxeter(p, (ab.identity(),), 10) == EnumResult(3, 3, 0)
    assert todd_coxeter(p, (), 1) == EnumResult(None, 1, 0)


def test_budget_exhaustion_is_a_value():
    ab = Alphabet(("x", "y"))
    free = Presentation(ab)  # free of rank 2: enumeration cannot close
    result = todd_coxeter(free, max_cosets=50)
    assert result.index is None
    assert result.defined == 50


def test_larger_budget_reproduces_index():
    p, _, _ = sym3_case()
    small = todd_coxeter(p, max_cosets=10_000)
    assert small.found
    again = todd_coxeter(p, max_cosets=100_000)
    assert again.index == small.index


def test_determinism():
    p, _, _ = sym3_case()
    assert todd_coxeter(p) == todd_coxeter(p)


def test_index_agrees_with_snf_on_abelian_presentations():
    ab = Alphabet(("x", "y"))
    x, y = ab.gen("x"), ab.gen("y")
    for relators in [
        (x ** 2, y ** 3, commutator(x, y)),
        (x ** 4, y ** 6, commutator(x, y)),
        (x ** 2 * y ** 2, x * ~y, commutator(x, y)),
    ]:
        p = Presentation(ab, relators)
        rank, _ = homology_invariants(p)
        assert rank == 0
        order = 1
        for d in smith_normal_form(abelianize(p)):
            order *= d
        assert todd_coxeter(p, max_cosets=10_000).index == order


def test_certify_trivial_examples():
    empty = Presentation(Alphabet(()))
    cert = certify_trivial(empty)
    assert isinstance(cert, TrivialityCertificate)
    assert cert.result.index == 1

    ab = Alphabet(("x",))
    # x^2 = x^3 = 1 forces x = 1 since gcd(2, 3) = 1
    p = Presentation(ab, (ab.gen("x", 2), ab.gen("x", 3)))
    cert = certify_trivial(p)
    assert isinstance(cert, TrivialityCertificate)

    nontrivial = Presentation(ab, (ab.gen("x", 3),))
    out = certify_trivial(nontrivial)
    assert isinstance(out, EnumResult) and out.index == 3

    free = Presentation(Alphabet(("x", "y")))
    out = certify_trivial(free, max_cosets=30)
    assert isinstance(out, EnumResult) and out.index is None


def test_certify_matches_enumeration():
    for p, _, expected in CORPUS:
        outcome = certify_trivial(p, max_cosets=10_000)
        if expected == 1:
            assert isinstance(outcome, TrivialityCertificate)
        else:
            assert isinstance(outcome, EnumResult) and outcome.index == expected


def test_input_validation():
    ab = Alphabet(("x",))
    p = Presentation(ab, (ab.gen("x", 3),))
    for bad in (0, True, 2.0, MAX_COSETS_CEILING + 1):
        with pytest.raises(EnumerationError):
            todd_coxeter(p, max_cosets=bad)
    with pytest.raises(EnumerationError, match="from 1 to"):
        certify_trivial(p, 10**9)  # rejected before any coset is defined
    other = Alphabet(("y",))
    with pytest.raises(EnumerationError):
        todd_coxeter(p, (other.gen("y"),))


def lost_deduction_cases():
    """Order-2 groups whose coincidences once dropped a deduction.

    A coincidence left the back-pointer ``d.x^-1 = dead`` in place, so the
    transfer of ``dead.x = d`` merged a coset with itself and the table
    failed its closing check at every budget.
    """
    ab = Alphabet(("x", "y"))
    x, y = ab.gen("x"), ab.gen("y")
    two = Presentation(ab, (y ** 3 * x * ~y * x, x ** -3 * y ** -3 * x ** 3 * y, y ** 3))
    ab = Alphabet(("x", "y", "z"))
    x, y, z = ab.gen("x"), ab.gen("y"), ab.gen("z")
    three = Presentation(ab, (~y * ~x * z, y * x * y * ~z, ~y * z ** -2))
    return two, three


@pytest.mark.parametrize("max_cosets", [50, 500, 5_000])
def test_coincidence_keeps_its_deductions(max_cosets):
    two, _ = lost_deduction_cases()
    assert todd_coxeter(two, (), max_cosets).index == 2
    assert todd_coxeter(two, two.relators[:1], max_cosets).index == 2


def test_coincidence_keeps_its_deductions_on_three_generators():
    _, three = lost_deduction_cases()
    assert todd_coxeter(three).index == 2


def _recorded_run(p, max_cosets, subgroup=()):
    """One enumeration's result, its final table, and each column capacity the table took."""
    tables, capacities = [], []

    class RecordingTable(coset_enum._Table):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)
            capacities.append(self.capacity)

        def grow(self):
            capacities.append(super().grow())
            return capacities[-1]

    with mock.patch.object(coset_enum, "_Table", RecordingTable):
        result = todd_coxeter(p, subgroup, max_cosets)
    (table,) = tables
    return result, table, capacities


def a6_case():
    """A6 = < a, b | a^2, b^4, (ab)^5, (ab^2)^5 >, of order 360; the involution a has one column."""
    ab = Alphabet(("a", "b"))
    a, b = ab.gen("a"), ab.gen("b")
    return Presentation(ab, (a ** 2, b ** 4, (a * b) ** 5, (a * b * b) ** 5))


@pytest.mark.parametrize("p", [a6_case(), Presentation(Alphabet(()))], ids=["A6", "empty-alphabet"])
def test_columns_grow_within_the_budget(p):
    """Budgets just below, at and just above each capacity step close as an unlimited run or spend the budget."""
    unlimited, _, steps = _recorded_run(p, MAX_COSETS_CEILING)
    assert unlimited.found
    budgets = sorted({1} | {step + k for step in steps for k in (-1, 0, 1)} - {0})
    outcomes = set()
    for budget in budgets:
        result, table, _ = _recorded_run(p, budget)
        assert result == unlimited or (result.index is None and result.defined == budget), budget
        assert len(table.parent) == result.defined
        # the memory bound: no column outgrows the budget
        assert all(len(col) == table.capacity <= budget for col in table.cols), budget
        outcomes.add(result.found)
    assert outcomes == ({False, True} if p.ngens else {True})


@pytest.mark.parametrize(
    "p, shared, lists",
    [
        (assemble_x().state.pi1, [("x1", "x2"), ("x1^-1", "x2^-1"), ("y1", "y2"), ("y1^-1", "y2^-1")], 12),
        (a6_case(), [("a", "a^-1")], 3),
        (involution_identified_case()[0], [("a", "a^-1"), ("a", "b"), ("a", "b^-1")], 1),
    ],
    ids=["X", "A6", "a^2-ab"],
)
def test_two_letter_relators_share_columns(p, shared, lists):
    """A relator x y stores column x as column y^-1: one list, grown once, one COINCIDENCE pair."""
    result, table, _ = _recorded_run(p, MAX_COSETS_CEILING)
    assert result.found
    code = {}
    for i, name in enumerate(p.alphabet.names):
        code[name], code[f"{name}^-1"] = 2 * i, 2 * i + 1
    for u, v in shared:
        assert table.cols[code[u]] is table.cols[code[v]], (u, v)
    assert len({id(col) for col in table.cols}) == len(table.pairs) == lists
    assert [len(col) for col, _ in table.pairs] == [table.capacity] * lists


def test_closed_table_check_rejects_a_live_row_naming_a_dead_coset():
    # < x | x >: coset 1 was merged into 0, but row 0 still names it
    table = _Table(2, 10)
    table.parent[:] = [0, 0]
    table.cols[0][:2] = table.cols[1][:2] = [1, 0]
    with pytest.raises(EnumerationError, match="dead"):
        _verify_closed(table, [[0]], [])


@pytest.mark.parametrize(
    "relators, subgens, message",
    [
        ([[0]], [], "relator scan does not close"),  # x is not a relator: 0.x = 1
        ([[0, 0]], [[0]], "subgroup generator leaves coset 1"),  # x^2 closes, H = <x> does not
    ],
)
def test_closed_table_check_rejects_a_consistent_table_that_breaks_a_word(relators, subgens, message):
    # two live cosets swapped by x: complete, every entry points back, and
    # a valid closed table of < x | x^2 > for the trivial subgroup
    table = _Table(2, 10)
    table.parent.append(1)
    table.cols[0][:2] = table.cols[1][:2] = [1, 0]
    _verify_closed(table, [[0, 0]], [[0, 0]])
    with pytest.raises(EnumerationError, match=message):
        _verify_closed(table, relators, subgens)


def test_subgroup_check_survives_python_O():
    code = (
        "from sgcalc.coset_enum import EnumerationError, _Table, _verify_closed\n"
        "assert False, 'asserts are on'\n"
        "table = _Table(2, 10)\n"
        "table.parent.append(1)\n"
        "table.cols[0][:2] = table.cols[1][:2] = [1, 0]\n"
        "try:\n"
        "    _verify_closed(table, [[0, 0]], [[0]])\n"
        "except EnumerationError as err:\n"
        "    print('raised:', err)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(coset_enum.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: subgroup generator leaves coset 1\n"


def _enum_counter_lines() -> list[str]:
    """One line per enumeration: ``index defined collapsed`` and a digest of the final table.

    Inputs: X, the classical corpus, then seeded random presentations on
    1-3 generators with 0 or 1 subgroup words at budgets 20, 200 and 2,000,
    so runs that exhaust their budget are covered too.
    """
    runs = [(assemble_x().state.pi1, (), 100_000)]
    runs += [(p, (), 10_000) for p, _, _ in CORPUS]
    rng = random.Random(2718)
    for _ in range(135):
        ab = Alphabet(("x", "y", "z")[: rng.randint(1, 3)])
        p = Presentation(ab, tuple(random_word(rng, ab, 8) for _ in range(rng.randint(1, len(ab) + 1))))
        subgroup = tuple(random_word(rng, ab, 6) for _ in range(rng.randint(0, 1)))
        runs += [(p, subgroup, budget) for budget in (20, 200, 2_000)]
    lines = []
    for p, subgroup, budget in runs:
        result, table, _ = _recorded_run(p, budget, subgroup)
        rows = [[col[c] for col in table.cols] for c in range(len(table.parent))]  # one list per coset
        digest = hashlib.sha256(repr((rows, table.parent)).encode()).hexdigest()[:16]
        lines.append(f"{result.index} {result.defined} {result.collapsed} {digest}")
    return lines


def test_enumeration_paths_match_golden():
    """Same path, not only the same index: counters and final tables, byte for byte."""
    golden = Path(__file__).parent / "golden" / "enum_counters.txt"
    assert "\n".join(_enum_counter_lines()) + "\n" == golden.read_text()
