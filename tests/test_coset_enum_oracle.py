"""Differential check of ``todd_coxeter`` against sympy's HLT and Felsch enumerators.

A seeded sweep of random 2-3-generator presentations, each enumerated over
the trivial subgroup and over a one-generator subgroup.  sympy runs only
where sgcalc closed, and its ``coset_enumeration_r`` (HLT) must find the
same index; so must its ``coset_enumeration_c`` (Felsch) where every
relator's cyclic core has at least 3 letters, since on many presentations
with a relator of 1 or 2 letters (``< x, y | x^-1 y^-1, y^2 >``) sympy
1.14's Felsch did not finish within seconds.  On one presentation of the sweep sympy's Felsch is
wrong (:data:`SYMPY_FELSCH_WRONG`); it is pinned, so any other disagreement
fails.  sgcalc must never raise ``EnumerationError`` (a closed table that
fails its relator check).  A second sweep gives every presentation a relator
``x^2`` or ``x y^±1``, whose letters share a column in sgcalc's table, and
compares it with sympy's HLT alone.  X is left out: sympy's Felsch takes
seconds on it.

sympy's ``FpGroup`` builds a Knuth-Bendix rewriting system when it is
constructed, which costs far more than the enumeration itself on these
inputs; both enumerators read only ``generators`` and ``relators`` from
the group, so a plain namespace carries them.  (``FpGroup.order()`` is
avoided too: it did not finish within 200 s on X.)
"""

import random
from types import SimpleNamespace

import pytest

from sgcalc.coset_enum import EnumerationError, todd_coxeter
from sgcalc.presentations import Presentation
from sgcalc.words import Alphabet, cyclic_core

coset_table = pytest.importorskip("sympy.combinatorics.coset_table")
free_groups = pytest.importorskip("sympy.combinatorics.free_groups")

SEED = 5
PRESENTATIONS = 300
MAX_COSETS = 2_000
# Trivial, yet sympy 1.14's coset_enumeration_c reports index 5 (also on a real FpGroup):
# z^-1 y z^-1 gives y = z^2, z^-3 y^-1 then z^5 = 1, x^-1 y z^-1 gives x = z, and the
# second relator becomes z^-4, so z = 1.  sgcalc and sympy's HLT both find index 1.
SYMPY_FELSCH_WRONG = {
    "< x, y, z | z^-3 y^-1, x^-1 z^-1 x z^-1 x^-1 z^-1, z^-1 y z^-1, x^-1 y z^-1 > over <>": (1, 5),
}


def random_word(rng, alphabet, shortest, longest):
    return alphabet.word(
        (rng.choice(alphabet.names), rng.choice((-1, 1)))
        for _ in range(rng.randint(shortest, longest))
    )


def sympy_indices(p, subgroup_gens, felsch):
    """The index by sympy's HLT and, if ``felsch``, by its Felsch enumeration too."""
    free, *gens = free_groups.free_group(",".join(p.alphabet.names))
    by_name = dict(zip(p.alphabet.names, gens))

    def convert(w):
        out = free.identity
        for name, exp in w.letters():
            out = out * by_name[name] ** exp
        return out

    group = SimpleNamespace(generators=tuple(gens), relators=tuple(convert(r) for r in p.relators))
    indices = []
    for enumerate_cosets in (coset_table.coset_enumeration_r, coset_table.coset_enumeration_c)[: 1 + felsch]:
        table = enumerate_cosets(group, [convert(w) for w in subgroup_gens])
        table.compress()
        indices.append(len(table.table))
    return tuple(indices)


def sweep(seed, count, two_letter):
    """Enumerate ``count`` seeded presentations, each over the trivial and a one-generator subgroup,
    and compare every closed index with sympy's.  With ``two_letter``, each presentation also
    carries a relator ``x^2`` or ``x y^±1``, inserted at a drawn position, so that its letters share
    a column.  Returns the cases that raised, the mismatches, the :data:`SYMPY_FELSCH_WRONG` cases
    met, and the counts of closed cases and of those compared with sympy's Felsch too."""
    rng = random.Random(seed)
    errors, mismatches, wrong_felsch, closed, by_felsch = [], [], [], 0, 0
    for _ in range(count):
        ab = Alphabet(("x", "y", "z")[: rng.randint(2, 3)])
        relators = [random_word(rng, ab, 1, 7) for _ in range(len(ab) + rng.randint(0, 1))]
        if two_letter:
            x, y = rng.choice(ab.names), rng.choice(ab.names)
            identify = ab.word(((x, 1), (y, 1 if x == y else rng.choice((-1, 1)))))
            relators.insert(rng.randint(0, len(relators)), identify)
        p = Presentation(ab, tuple(relators))
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
            felsch = all(len(cyclic_core(r)[0]) >= 3 for r in p.relators)
            by_felsch += felsch
            indices = sympy_indices(p, subgroup_gens, felsch)
            if case in SYMPY_FELSCH_WRONG:
                wrong_felsch.append(case)
                assert result.index == indices[0] and indices == SYMPY_FELSCH_WRONG[case], case
            elif any(index != result.index for index in indices):
                mismatches.append(f"{case}: sgcalc {result.index}, sympy HLT and Felsch {indices}")
    return errors, mismatches, wrong_felsch, closed, by_felsch


def test_index_matches_sympy_on_random_presentations():
    errors, mismatches, wrong_felsch, closed, by_felsch = sweep(SEED, PRESENTATIONS, two_letter=False)
    assert errors == []
    assert mismatches == []
    assert closed > PRESENTATIONS  # the sweep compares many closed tables, not a handful
    assert by_felsch >= 40 and wrong_felsch == list(SYMPY_FELSCH_WRONG)


def test_index_matches_sympy_with_a_two_letter_relator():
    """Involutions and identified generators share a column in sgcalc's table; sympy's HLT is the reference."""
    errors, mismatches, _, closed, by_felsch = sweep(SEED + 1, PRESENTATIONS, two_letter=True)
    assert errors == []
    assert mismatches == []
    assert closed > PRESENTATIONS and by_felsch == 0
