"""Free-group words over named generator alphabets.

Words are immutable and always freely reduced, so equality of words is
equality of syllable lists.  Words attached to different alphabets never
combine; moving a word to another alphabet goes through ``substitute``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

Syllable = tuple[str, int]


class WordError(ValueError):
    """Malformed word, unknown generator, or alphabet mismatch."""


def _valid_name(name: str) -> bool:
    return bool(name) and (name[0].isalpha() or name[0] == "_") and all(
        c.isalnum() or c == "_" for c in name
    )


class Alphabet:
    """An ordered, duplicate-free collection of generator names.

    May be empty (the alphabet of the trivial presentation).
    """

    __slots__ = ("names", "_ranks")

    def __init__(self, names: Iterable[str] = ()):
        names = tuple(names)
        ranks: dict[str, int] = {}
        for name in names:
            if not _valid_name(name):
                raise WordError(f"invalid generator name {name!r}")
            if name in ranks:
                raise WordError(f"duplicate generator name {name!r}")
            ranks[name] = len(ranks)
        self.names = names
        self._ranks = ranks

    def __contains__(self, name: str) -> bool:
        return name in self._ranks

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Alphabet({', '.join(self.names)})"

    def rank(self, name: str) -> int:
        try:
            return self._ranks[name]
        except KeyError:
            raise WordError(f"unknown generator {name!r}") from None

    def identity(self) -> "Word":
        return Word(self, ())

    def gen(self, name: str, exp: int = 1) -> "Word":
        self.rank(name)
        return Word(self, ((name, exp),))

    def word(self, syllables: Iterable[Syllable]) -> "Word":
        return Word(self, syllables)

    def without(self, name: str) -> "Alphabet":
        self.rank(name)
        return Alphabet(n for n in self.names if n != name)


def merge_alphabets(a: Alphabet, b: Alphabet) -> Alphabet:
    clash = set(a.names) & set(b.names)
    if clash:
        raise WordError(f"generator name collision: {sorted(clash)}")
    return Alphabet(a.names + b.names)


class Word:
    """A freely reduced word; the empty word is the identity."""

    __slots__ = ("alphabet", "syllables")

    def __init__(self, alphabet: Alphabet, syllables: Iterable[Syllable] = ()):
        reduced: list[Syllable] = []
        for name, exp in syllables:
            alphabet.rank(name)
            if not isinstance(exp, int):
                raise WordError(f"exponent of {name!r} is not an integer")
            if exp == 0:
                continue
            if reduced and reduced[-1][0] == name:
                merged = reduced[-1][1] + exp
                reduced.pop()
                if merged != 0:
                    reduced.append((name, merged))
            else:
                reduced.append((name, exp))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "syllables", tuple(reduced))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Word is immutable")

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __len__(self) -> int:
        """Letter length (sum of absolute exponents)."""
        return sum(abs(e) for _, e in self.syllables)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.syllables == other.syllables
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.syllables))

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise WordError("cannot multiply words over different alphabets")
        return Word(self.alphabet, self.syllables + other.syllables)

    def __invert__(self) -> "Word":
        return Word(self.alphabet, tuple((n, -e) for n, e in reversed(self.syllables)))

    def inverse(self) -> "Word":
        return ~self

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else ~self
        out = self.alphabet.identity()
        for _ in range(abs(n)):
            out = out * base
        return out

    def exponent_sum(self, name: str) -> int:
        self.alphabet.rank(name)
        return sum(e for n, e in self.syllables if n == name)

    def generators(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.syllables)

    def letters(self) -> Iterator[Syllable]:
        """Expand syllables into single-exponent letters."""
        for name, exp in self.syllables:
            step = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield (name, step)

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return " ".join(n if e == 1 else f"{n}^{e}" for n, e in self.syllables)

    def __repr__(self) -> str:
        return f"<Word {self}>"


def reduce(alphabet: Alphabet, syllables: Iterable[Syllable]) -> Word:
    """Freely reduce a raw syllable list over ``alphabet``."""
    return Word(alphabet, syllables)


def multiply(w1: Word, w2: Word) -> Word:
    return w1 * w2


def invert(w: Word) -> Word:
    return ~w


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1."""
    return u * v * ~u * ~v


def conjugate(w: Word, by: Word) -> Word:
    """The conjugate ``by * w * by^-1``."""
    return by * w * ~by


def substitute(w: Word, images: Mapping[str, Word], target: Alphabet | None = None) -> Word:
    """Homomorphic image of ``w`` under a generator-to-word assignment.

    Every generator occurring in ``w`` must have an image; all images must
    share one alphabet, which becomes the result's alphabet.
    """
    for image in images.values():
        if target is None:
            target = image.alphabet
        elif image.alphabet != target:
            raise WordError("substitution images span different alphabets")
    if target is None:
        if w.is_identity:
            return Word(w.alphabet, ())
        raise WordError("substitution with no images needs an explicit target alphabet")
    out = target.identity()
    for name, exp in w.syllables:
        if name not in images:
            raise WordError(f"no image for generator {name!r}")
        out = out * images[name] ** exp
    return out


def reword(w: Word, target: Alphabet) -> Word:
    """Move ``w`` to a larger alphabet containing the same generator names."""
    return Word(target, w.syllables)


def from_letters(alphabet: Alphabet, letters: Iterable[Syllable]) -> Word:
    return Word(alphabet, letters)


def cyclic_core(w: Word) -> tuple[Word, Word]:
    """Cyclically reduce ``w``.

    Returns ``(core, prefix)`` with ``w == prefix * core * prefix^-1`` and
    ``core`` cyclically reduced.
    """
    letters = list(w.letters())
    i, j = 0, len(letters)
    while i < j - 1:
        n1, e1 = letters[i]
        n2, e2 = letters[j - 1]
        if n1 == n2 and e1 == -e2:
            i += 1
            j -= 1
        else:
            break
    prefix = from_letters(w.alphabet, letters[:i])
    core = from_letters(w.alphabet, letters[i:j])
    return core, prefix


def rotations(w: Word) -> list[Word]:
    """All letter rotations of a word (for conjugacy tests)."""
    letters = list(w.letters())
    out = []
    for k in range(max(1, len(letters))):
        out.append(from_letters(w.alphabet, letters[k:] + letters[:k]))
    return out


def are_conjugate(u: Word, v: Word) -> bool:
    """Conjugacy in the free group: equal cyclic reductions up to rotation."""
    if u.alphabet != v.alphabet:
        raise WordError("conjugacy test across different alphabets")
    cu, _ = cyclic_core(u)
    cv, _ = cyclic_core(v)
    if len(cu) != len(cv):
        return False
    return cv in rotations(cu)
