import random

import pytest

from sgcalc.words import Alphabet, Word, cyclic_core, rotations


@pytest.fixture
def xyab():
    return Alphabet(("x", "y", "a", "b"))


def random_word(rng: random.Random, alphabet: Alphabet, max_len: int = 20):
    length = rng.randint(0, max_len)
    return alphabet.word(
        (rng.choice(alphabet.names), rng.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(length)
    )


def relator_class(w: Word) -> frozenset[Word]:
    """Every rotation of ``w``'s cyclic core and of its inverse, by brute
    force: equal for two words exactly when they are the same relator."""
    core, _ = cyclic_core(w)
    return frozenset(rotations(core) + rotations(~core))
