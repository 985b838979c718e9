"""The word reader's two paths against each other on random texts.

``parse_word`` reads text made of single-space-separated ``NAME`` and
``NAME^INT`` chunks itself and hands any other text to ``_read_word``, the
full reader.  Whichever path runs, the result must be the full reader's: the
same freely reduced word, or the same exception class and message.  Texts mix
the fast path's shape with what it must refuse: spacing the grammar refuses
(``\\xa0``, ``\\x0c``), tabs and CR LF, spaced carets, adjacency such as
``x^2y``, the identity ``1``, an unknown name, and exponents at every bound.
A word read from text in printed form keeps that text as its ``str``; any
other word renders it from its codes.  Either way it prints, compares and
hashes as the same word built from its codes.  Examples are derandomized, so
every run draws the same texts.
"""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgcalc import script
from sgcalc.script import ParseError, _print_value, _read_word, parse, parse_word
from sgcalc.words import Alphabet, Word

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None)
NAMES = ("x", "a1", "é", "_b")
ALPHABET = Alphabet(NAMES)
# Exponents the fast path reads, and (after "1_0") ones it must leave to the full reader.
EXPONENTS = (
    "", "", "", "", "", "-1", "-1", "-1", "2", "-3", "0", "-0", "007", "٣", "-٣", "99999", "100000",
    "1_0", "--1", "+1", "-", "100001", "-100001", "9" * 5000,
)
# Pieces swapped in for a name, caret, exponent or space, or put between two.
ODD = ("1", "z", " ^ ", "^ ", " ^", "", "  ", "\t", "\r\n", "\n", "\xa0", "\x0c", "[x, a1]", ",", "]")


def _outcome(read, text: str):
    try:
        return read(text, ALPHABET).codes()
    except ParseError as err:  # InputTooLarge too
        return type(err).__name__, str(err)


@st.composite
def texts(draw) -> str:
    """Spaced syllables, with up to two pieces replaced by, or preceded by, an odd piece."""
    pieces: list[str] = []
    for i in range(draw(st.integers(0, 6))):
        pieces += [" "] if i else []
        pieces.append(draw(st.sampled_from(NAMES)))
        exp = draw(st.sampled_from(EXPONENTS))
        pieces += ["^", exp] if exp else []
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(pieces)))
        pieces[i : i + draw(st.integers(0, 1))] = [draw(st.sampled_from(ODD))]
    return "".join(pieces)


@PROPERTY
@given(texts())
@example("x^100000 a1 a1^-1")  # a prefix over the bound is an error, though the word is not
def test_both_paths_give_the_full_readers_word_or_error(text):
    assert _outcome(parse_word, text) == _outcome(_read_word, text)


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from(NAMES), st.integers(-4, 4)), min_size=1, max_size=12))
def test_spaced_syllables_are_read_without_the_full_reader(syllables):
    text = " ".join(name if k == 1 else f"{name}^{k}" for name, k in syllables)
    with mock.patch.object(script, "_read_word", side_effect=AssertionError("full reader called")):
        word = parse_word(text, ALPHABET)
    assert word == ALPHABET.word(syllables)
    names = [name for name, _ in syllables]
    printed = 0 not in (k for _, k in syllables) and all(a != b for a, b in zip(names, names[1:]))
    assert (str(word) is text) == printed  # in printed form, the word keeps the text it was read from


XY = Alphabet(("x", "y"))


@st.composite
def word_texts(draw) -> str:
    """Factors over two generators, so that neighbours often share one (``x x``, ``x^2 x``, ``x x^-1``),
    every exponent form (``^1``, ``^0``, ``^02``), brackets, and single or double spaces."""
    atoms = ("x", "y", "x", "y", "[x, y]", "[y^-1, x^2]")
    exponents = ("", "", "", "^-1", "^-1", "^2", "^-3", "^1", "^0", "^02", "^-0", "^10")
    pieces: list[str] = []
    for i in range(draw(st.integers(1, 6))):
        pieces += [draw(st.sampled_from((" ", " ", " ", "  ")))] if i else []
        pieces.append(draw(st.sampled_from(atoms)) + draw(st.sampled_from(exponents)))
    return "".join(pieces)


@PROPERTY
@given(word_texts())
@example("x x")
@example("x^2 x")
@example("x x^2")
@example("x x^-1 y")
@example("x^1 y")
@example("x^02 y")
@example("y^10 x^-1 y^-3")
def test_a_read_word_prints_compares_and_hashes_as_the_word_of_its_codes(text):
    word = parse_word(text, XY)
    built = Word(XY, word.codes())
    assert word == built and hash(word) == hash(built)
    assert str(word) == str(built)


# Characters of script strings: a quote and a backslash need an escape, the others print as they are.
STRING_CHARS = ("x", "y", " ", "^", "-", "1", "é", "[", "]", ",", '"', "\\", "\t", "#")


@PROPERTY
@given(st.lists(st.sampled_from(STRING_CHARS), max_size=10).map("".join))
def test_a_string_prints_as_the_escaping_path_would_and_reads_back(value):
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    assert _print_value(value) == f'"{escaped}"'
    assert parse(f"let g = presentation(generators=[{_print_value(value)}])").statements[0].args[0][1] == (value,)
