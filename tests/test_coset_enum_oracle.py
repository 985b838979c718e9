"""Differential check of ``todd_coxeter`` against sympy's ``coset_enumeration_r``.

A seeded sweep of random 2-3-generator presentations, each enumerated over
the trivial subgroup and over a one-generator subgroup.  sympy runs only
where sgcalc closed, and must find the same index; sgcalc must never raise
``EnumerationError`` (a closed table that fails its relator check).

sympy's ``FpGroup`` builds a Knuth-Bendix rewriting system when it is
constructed, which costs far more than the enumeration itself on these
inputs; ``coset_enumeration_r`` reads only ``generators`` and ``relators``
from the group, so a plain namespace carries them.  (``FpGroup.order()`` is
avoided too: it did not finish within 200 s on X.)
"""

import random
from types import SimpleNamespace

import pytest

from sgcalc.coset_enum import EnumerationError, todd_coxeter
from sgcalc.presentations import Presentation
from sgcalc.words import Alphabet

coset_table = pytest.importorskip("sympy.combinatorics.coset_table")
free_groups = pytest.importorskip("sympy.combinatorics.free_groups")

SEED = 5
PRESENTATIONS = 300
MAX_COSETS = 2_000


def random_word(rng, alphabet, shortest, longest):
    return alphabet.word(
        (rng.choice(alphabet.names), rng.choice((-1, 1)))
        for _ in range(rng.randint(shortest, longest))
    )


def sympy_index(p, subgroup_gens):
    free, *gens = free_groups.free_group(",".join(p.alphabet.names))
    by_name = dict(zip(p.alphabet.names, gens))

    def convert(w):
        out = free.identity
        for name, exp in w.syllables:
            out = out * by_name[name] ** exp
        return out

    group = SimpleNamespace(generators=tuple(gens), relators=tuple(convert(r) for r in p.relators))
    table = coset_table.coset_enumeration_r(group, [convert(w) for w in subgroup_gens])
    table.compress()
    return len(table.table)


def test_index_matches_sympy_on_random_presentations():
    rng = random.Random(SEED)
    errors, mismatches, closed = [], [], 0
    for _ in range(PRESENTATIONS):
        ab = Alphabet(("x", "y", "z")[: rng.randint(2, 3)])
        p = Presentation(ab, tuple(random_word(rng, ab, 1, 7) for _ in range(len(ab) + rng.randint(0, 1))))
        for subgroup_gens in ((), (random_word(rng, ab, 1, 3),)):
            case = f"{p} over <{', '.join(map(str, subgroup_gens))}>"
            try:
                result = todd_coxeter(p, subgroup_gens, MAX_COSETS)
            except EnumerationError as exc:
                errors.append(f"{case}: {exc}")
                continue
            if not result.found:
                continue
            closed += 1
            expected = sympy_index(p, subgroup_gens)
            if result.index != expected:
                mismatches.append(f"{case}: sgcalc {result.index}, sympy {expected}")
    assert errors == []
    assert mismatches == []
    assert closed > PRESENTATIONS  # the sweep compares many closed tables, not a handful
