"""Free-group words over named generator alphabets.

A word stores its freely reduced letter codes, ``2*rank`` for ``g`` and
``2*rank + 1`` for ``g^-1``, and every algorithm works on these codes.
Syllables ``(name, exponent)`` enter through ``Alphabet.word`` and are read
back through ``Word.syllables``.  Words over different alphabets never
combine; a word moves to another alphabet through ``substitute`` or its
syllables.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
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
        return self.word(())

    def gen(self, name: str, exp: int = 1) -> "Word":
        return self.word(((name, exp),))

    def word(self, syllables: Iterable[Syllable]) -> "Word":
        """The reduced word of ``(name, exponent)`` syllables."""
        codes: list[int] = []
        for name, exp in syllables:
            code = 2 * self.rank(name)
            if not isinstance(exp, int):
                raise WordError(f"exponent of {name!r} is not an integer")
            codes += [code if exp > 0 else code + 1] * abs(exp)
        return Word(self, codes)

    def without(self, name: str) -> "Alphabet":
        self.rank(name)
        return Alphabet(n for n in self.names if n != name)


def merge_alphabets(a: Alphabet, b: Alphabet) -> Alphabet:
    clash = set(a.names) & set(b.names)
    if clash:
        raise WordError(f"generator name collision: {sorted(clash)}")
    return Alphabet(a.names + b.names)


class Word:
    """A freely reduced word; the empty word is the identity.

    The constructor validates and freely reduces any sequence of letter codes.
    """

    __slots__ = ("alphabet", "_codes")

    def __init__(self, alphabet: Alphabet, codes: Iterable[int] = ()):
        limit = 2 * len(alphabet)
        reduced: list[int] = []
        for c in codes:
            if type(c) is not int or not 0 <= c < limit:
                raise WordError(f"invalid letter code {c!r} over {alphabet!r}")
            if reduced and reduced[-1] == c ^ 1:
                reduced.pop()
            else:
                reduced.append(c)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_codes", tuple(reduced))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Word is immutable")

    @property
    def is_identity(self) -> bool:
        return not self._codes

    def __len__(self) -> int:
        """Letter length."""
        return len(self._codes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and (self.alphabet, self._codes) == (other.alphabet, other._codes)

    def __hash__(self) -> int:
        return hash((self.alphabet, self._codes))

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise WordError("cannot multiply words over different alphabets")
        return Word(self.alphabet, self._codes + other._codes)

    def __invert__(self) -> "Word":
        return Word(self.alphabet, [c ^ 1 for c in reversed(self._codes)])

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else ~self
        return Word(self.alphabet, base._codes * abs(n))

    def exponent_sum(self, name: str) -> int:
        code = 2 * self.alphabet.rank(name)
        return self._codes.count(code) - self._codes.count(code + 1)

    def generators(self) -> frozenset[str]:
        return frozenset(self.alphabet.names[c >> 1] for c in self._codes)

    def as_letter(self) -> Syllable | None:
        """``(name, +-1)`` if the word is a single signed generator, else ``None``."""
        return next(self.letters()) if len(self._codes) == 1 else None

    def codes(self) -> list[int]:
        """The letter codes, as a new list."""
        return list(self._codes)

    def letters(self) -> Iterator[Syllable]:
        """The letters as ``(name, +-1)``."""
        names = self.alphabet.names
        return ((names[c >> 1], -1 if c & 1 else 1) for c in self._codes)

    @property
    def syllables(self) -> tuple[Syllable, ...]:
        """Maximal runs of one letter as ``(name, exponent)``."""
        return tuple(
            (name, sum(e for _, e in run)) for name, run in groupby(self.letters(), key=itemgetter(0))
        )

    def __str__(self) -> str:
        if not self._codes:
            return "1"
        return " ".join(n if e == 1 else f"{n}^{e}" for n, e in self.syllables)

    def __repr__(self) -> str:
        return f"<Word {self}>"


def reduce(alphabet: Alphabet, syllables: Iterable[Syllable]) -> Word:
    """Freely reduce a raw syllable list over ``alphabet``."""
    return alphabet.word(syllables)


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
            return Word(w.alphabet)
        raise WordError("substitution with no images needs an explicit target alphabet")
    pieces: dict[int, tuple[int, ...]] = {}
    out: list[int] = []
    for c in w._codes:
        if c not in pieces:
            name = w.alphabet.names[c >> 1]
            if name not in images:
                raise WordError(f"no image for generator {name!r}")
            pieces[c] = (~images[name] if c & 1 else images[name])._codes
        out += pieces[c]
    return Word(target, out)


def _cyclic_reduction(codes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(prefix, core)`` of reduced ``codes``: they are prefix, core, prefix^-1."""
    i, j = 0, len(codes)
    while i < j - 1 and codes[i] == codes[j - 1] ^ 1:
        i, j = i + 1, j - 1
    return codes[:i], codes[i:j]


def cyclic_core(w: Word) -> tuple[Word, Word]:
    """Cyclically reduce ``w``.

    Returns ``(core, prefix)`` with ``w == prefix * core * prefix^-1`` and
    ``core`` cyclically reduced.
    """
    prefix, core = _cyclic_reduction(w._codes)
    return Word(w.alphabet, core), Word(w.alphabet, prefix)


def rotations(w: Word) -> list[Word]:
    """All letter rotations of a word (Tietze replay's brute-force duplicate check)."""
    codes = w._codes
    return [Word(w.alphabet, codes[k:] + codes[:k]) for k in range(max(1, len(codes)))]


def _least_rotation(s: tuple[int, ...]) -> int:
    """Start of the lexicographically least rotation of ``s`` (Booth, 1980)."""
    s = s + s
    fail = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        c = s[j]
        i = fail[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != s[k + i + 1]:  # here i == -1
            if c < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def _least_rotated(s: tuple[int, ...]) -> tuple[int, ...]:
    k = _least_rotation(s)
    return s[k:] + s[:k]


def cyclic_key(w: Word) -> tuple[int, ...]:
    """Canonical key of ``w``'s conjugacy class: the least rotation of the
    letter codes of its cyclic reduction.

    Two words are conjugate iff their keys are equal; for cyclically reduced
    words, ``cyclic_key(u) == cyclic_key(v)`` iff ``v in rotations(u)``.
    """
    return _least_rotated(_cyclic_reduction(w._codes)[1])


def are_conjugate(u: Word, v: Word) -> bool:
    """Conjugacy in the free group: equal cyclic keys."""
    if u.alphabet != v.alphabet:
        raise WordError("conjugacy test across different alphabets")
    return cyclic_key(u) == cyclic_key(v)


def relator_key(w: Word) -> tuple[int, ...]:
    """Key of ``w`` up to conjugacy and inversion.

    ``relator_key(u) == relator_key(v)`` iff ``u`` is conjugate to ``v`` or
    to ``v^-1``: the two words are the same relator.
    """
    return _core_key(_cyclic_reduction(w._codes)[1])


def _core_key(core: tuple[int, ...]) -> tuple[int, ...]:
    """``relator_key`` of the cyclically reduced word with letter codes ``core``."""
    return min(_least_rotated(core), _least_rotated(tuple(c ^ 1 for c in reversed(core))))
