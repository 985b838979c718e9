"""Free-group words over named generator alphabets.

A word stores its freely reduced letter codes, ``2*rank`` for ``g`` and
``2*rank + 1`` for ``g^-1``, and every algorithm works on these codes.
Syllables ``(name, exponent)`` enter through ``Alphabet.word`` and are read
back through ``Word.syllables``.  Words over different alphabets never
combine; a word moves to another alphabet through ``substitute``.  Code
that works on raw letter codes reduces and inverts them with
``free_reduce`` and ``inverse_codes``.

Rotation tests read code texts, one ``chr`` per letter code: codes are a
rotation of others of equal length exactly when their text is a substring
of the others' text written twice (``is_rotation``), a linear test.

Inside the package, a producer that has proved its codes a freely reduced
tuple of in-range letter codes builds the word with ``Word(alphabet, codes,
True)``, which skips the check and the reduction (see ``Word``).
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Iterator, Mapping, Sequence

from .records import shown

Syllable = tuple[str, int]


class WordError(ValueError):
    """Malformed word, unknown generator, or alphabet mismatch."""


def _valid_name(name: str) -> bool:
    return bool(name) and (name[0].isalpha() or name[0] == "_") and all(
        c.isalnum() or c == "_" for c in name
    )


class Alphabet:
    """An ordered, duplicate-free collection of generator names.

    May be empty (the alphabet of the trivial presentation); ``ranks`` maps each name to its rank.
    """

    __slots__ = ("names", "ranks")

    def __init__(self, names: Iterable[str] = ()):
        names = tuple(names)
        ranks: dict[str, int] = {}
        for name in names:
            if not _valid_name(name):
                raise WordError(f"invalid generator name {shown(name)}")
            if name in ranks:
                raise WordError(f"duplicate generator name {shown(name)}")
            ranks[name] = len(ranks)
        self.names = names
        self.ranks = ranks

    def __contains__(self, name: str) -> bool:
        return name in self.ranks

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
            return self.ranks[name]
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
            if not isinstance(exp, int) or isinstance(exp, bool):
                raise WordError(f"exponent of {name!r} is not an integer")
            codes += [code if exp > 0 else code + 1] * abs(exp)
        return Word(self, tuple(free_reduce(codes)), True)  # codes from rank() are in range


def merge_alphabets(a: Alphabet, b: Alphabet) -> Alphabet:
    clash = set(a.names) & set(b.names)
    if clash:
        raise WordError(f"generator name collision: {sorted(clash)}")
    return Alphabet(a.names + b.names)


class Word:
    """A freely reduced word; the empty word is the identity.

    The constructor validates and freely reduces any sequence of letter codes.
    A third argument ``True`` is package-private: it takes ``codes`` as they
    are, so the caller must have proved them a tuple of letter codes below
    ``2 * len(alphabet)`` with no letter next to its inverse.
    ``Alphabet.word``, the products, inverse, powers, ``commutator``,
    ``conjugate`` and ``cyclic_core`` here, ``presentations.solve_relator``,
    ``tietze._State`` and ``script.parse_word`` use it; every other
    caller validates.
    """

    __slots__ = ("alphabet", "_codes")

    def __init__(self, alphabet: Alphabet, codes: Iterable[int] = (), _reduced: bool = False):
        if not _reduced:
            limit = 2 * len(alphabet)
            reduced: list[int] = []
            for c in codes:
                if type(c) is not int or not 0 <= c < limit:
                    raise WordError(f"invalid letter code {c!r} over {alphabet!r}")
                if reduced and reduced[-1] == c ^ 1:
                    reduced.pop()
                else:
                    reduced.append(c)
            codes = tuple(reduced)
        _set_alphabet(self, alphabet)
        _set_codes(self, codes)

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
        return Word(_common_alphabet(self, other), _product(self._codes, other._codes), True)

    def __invert__(self) -> "Word":
        return Word(self.alphabet, inverse_codes(self._codes), True)

    def __pow__(self, n: int) -> "Word":
        # w = p c p^-1 with c cyclically reduced, so p c^n p^-1 is reduced as it stands
        prefix, core = _cyclic_reduction(self._codes if n >= 0 else inverse_codes(self._codes))
        return Word(self.alphabet, prefix + core * abs(n) + inverse_codes(prefix) if n else (), True)

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
        """Maximal runs of one letter as ``(name, exponent)``; in a reduced
        word, each is a run of one letter code."""
        names = self.alphabet.names
        out = []
        for c, run in groupby(self._codes):
            n = len(list(run))
            out.append((names[c >> 1], -n if c & 1 else n))
        return tuple(out)

    def __str__(self) -> str:
        """The syllables as ``g`` or ``g^e``, space separated, read off the codes in one pass."""
        names, parts = self.alphabet.names, []
        last, n = (self._codes or (-1,))[0], 0
        for c in self._codes + (-1,):  # the -1 closes the last run
            if c != last:
                name = names[last >> 1]
                parts.append(f"{name}^{-n}" if last & 1 else name if n == 1 else f"{name}^{n}")
                last, n = c, 0
            n += 1
        return " ".join(parts) or "1"

    def __repr__(self) -> str:
        return f"<Word {self}>"


# the slots' own setters, past the __setattr__ that keeps a Word immutable
_set_alphabet, _set_codes = Word.alphabet.__set__, Word._codes.__set__


def free_reduce(codes: Iterable[int], out: list[int] | None = None) -> list[int]:
    """Append letter codes to the freely reduced ``out`` (a new list by default), cancelling as they go."""
    out = [] if out is None else out
    for c in codes:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return out


def inverse_codes(codes: Sequence[int]) -> tuple[int, ...]:
    """The letter codes of the inverse word."""
    return tuple(c ^ 1 for c in reversed(codes))


def _common_alphabet(u: Word, v: Word) -> Alphabet:
    if u.alphabet is not v.alphabet and u.alphabet != v.alphabet:
        raise WordError("cannot combine words over different alphabets")
    return u.alphabet


def _product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The reduced codes of the product of reduced ``a`` and ``b``: only the
    letters meeting at the seam can cancel."""
    n, i = len(a), 0
    limit = min(n, len(b))
    while i < limit and a[n - 1 - i] == b[i] ^ 1:
        i += 1
    return a[: n - i] + b[i:] if i else a + b


def reduce(alphabet: Alphabet, syllables: Iterable[Syllable]) -> Word:
    """Freely reduce a raw syllable list over ``alphabet``."""
    return alphabet.word(syllables)


def invert(w: Word) -> Word:
    return ~w


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1."""
    a, b = u._codes, v._codes
    return Word(_common_alphabet(u, v), _product(_product(_product(a, b), inverse_codes(a)), inverse_codes(b)), True)


def conjugate(w: Word, by: Word) -> Word:
    """The conjugate ``by * w * by^-1``."""
    a = by._codes
    return Word(_common_alphabet(by, w), _product(_product(a, w._codes), inverse_codes(a)), True)


def substitute(w: Word, images: Mapping[str, Word], target: Alphabet | None = None) -> Word:
    """Homomorphic image of ``w`` under a generator-to-word assignment.

    Every generator occurring in ``w`` must have an image; all images must
    share one alphabet, which becomes the result's alphabet.
    """
    for image in images.values():
        if target is None:
            target = image.alphabet
        elif image.alphabet is not target and image.alphabet != target:
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
            image = images[name]._codes
            pieces[c] = inverse_codes(image) if c & 1 else image
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
    return Word(w.alphabet, core, True), Word(w.alphabet, prefix, True)


def rotations(w: Word) -> list[Word]:
    """All letter rotations of a word, each freely reduced: quadratic in its length."""
    codes = w._codes
    return [Word(w.alphabet, codes[k:] + codes[:k]) for k in range(max(1, len(codes)))]


def is_rotation(text: str, twice: str) -> bool:
    """Whether the code text ``text`` is a rotation of the code text that
    ``twice`` writes twice: equal lengths, and a substring of it."""
    return 2 * len(text) == len(twice) and text in twice


def cyclic_texts(w: Word) -> tuple[str, str]:
    """The code texts of ``w``'s cyclic core and of the core's inverse."""
    core = _cyclic_reduction(w._codes)[1]
    return "".join(map(chr, core)), "".join(map(chr, inverse_codes(core)))


def are_conjugate(u: Word, v: Word) -> bool:
    """Conjugacy in the free group: cyclic cores that are rotations of each other."""
    _common_alphabet(u, v)
    return is_rotation(cyclic_texts(u)[0], cyclic_texts(v)[0] * 2)


def same_relator(u: Word, v: Word) -> bool:
    """Whether ``u`` is conjugate to ``v`` or to ``v^-1``: the two words are the same relator."""
    _common_alphabet(u, v)
    text = cyclic_texts(u)[0]
    return any(is_rotation(text, t * 2) for t in cyclic_texts(v))
