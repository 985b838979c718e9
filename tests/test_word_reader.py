"""The word reader, pinned: every outcome of ~2,000 seeded texts, byte for byte.

``tests/golden/word_reader.txt`` holds one line per text: the text's repr (a
run of 50 or more equal characters shown as ``<c*count>``), then either its
freely reduced letter codes (run-length encoded as ``code*count``; over 64
letters, their number and a SHA-256 prefix) or the exception class and full
message.  Regenerate it only for a deliberate change of the word syntax::

    PYTHONPATH=src python -c "import tests.test_word_reader as t; t.write_golden()"
"""

import hashlib
import importlib.util
import random
import re
import sys
from itertools import groupby
from pathlib import Path
from unittest import mock

import pytest

from sgcalc import script
from sgcalc.script import ParseError, parse_word
from sgcalc.words import Alphabet

GOLDEN = Path(__file__).parent / "golden" / "word_reader.txt"
ROOT = Path(__file__).resolve().parents[1]
ALPHABET = Alphabet(("x", "y", "a1", "é", "_b"))
NAMES = ALPHABET.names
EXPONENTS = ("2", "-1", "-2", "3", "0", "-0", "10", "٣", "-٣", "007")
CARETS = ("^", "^", "^", " ^ ", "^ ", " ^")
SEPARATORS = (" ", " ", " ", "  ", "\t", "\n", "\r\n", " \n ")
# Replacement tokens of the one-token mutations: wrong symbols, strings,
# numbers, non-decimal digits, bad characters and over-large inputs.
TOKENS = (
    "(", ")", "=", '"y"', '""', "^", "^^", "[", "]", ",", "-1", "12", "1", "01", "z", "xy",
    "x^3²", "²", "½", "@", "\xa0", "\x0c", '"', "-", "x^99999999", "[x, y]^99999",
    "1^99999999999", "x^" + "9" * 5000, "9" * 5000, "x^60000 y^60000",
)
CHARS = "xy1a_é ٣²\t\n-=()[],^\"'@"
# Hand-picked edges: nesting, spacing, identities and every bound.
EDGES = (
    "", " ", "\n", "1", "1^5", "1^-7", "[x, y]^-2", "[[x, y], [y, x]]", "[[x,[y,a1]],_b]^2",
    "x ^ -1", "x^ \n -1", "x^٣", "[x,]", "[,]", "[]", "[x", "[x,", "[x, y", "[x y]", "x^y",
    "x^", "x ^", "x^2^3", "^2", "[^2, x]", "[x, y^]", "x -1", "x-1", "1-1", "x^50000 y^50000",
    "x^50000 y^50001", "x^60000 x^-60000", "x^60000 x^60000 x^-60000", "[x^50000, y^50000]",
    "[x^50000, y^50000]^0", "[x, y]^25000", "[x, y]^25001", "1^99999999999", "[x, x]^99999999",
    "x^100000", "x^100001", "x^-100001", "x^" + "9" * 5000, "9" * 5000, "y [x^" + "1" * 5000 + ", y]",
    "y ²", "x\n\n  z", "\n\n[x,\n y", "x^3²", "(x y)^2", "x = y", '"y"', "x^^2", "é^2 _b^-1",
)


def _random_word(rng: random.Random, depth: int = 0) -> str:
    factors = []
    for _ in range(rng.randint(0, 3)):
        r = rng.random()
        if r < 0.25 and depth < 2:
            atom = f"[{_random_word(rng, depth + 1)},{rng.choice(('', ' '))}{_random_word(rng, depth + 1)}]"
        elif r < 0.35:
            atom = "1"
        else:
            atom = rng.choice(NAMES)
        if rng.random() < 0.4:
            atom += rng.choice(CARETS) + rng.choice(EXPONENTS)
        factors.append(atom)
    text = ""
    for i, factor in enumerate(factors):
        text += (rng.choice(SEPARATORS) if i else "") + factor
    return text


def _pieces(text: str) -> list[str]:
    """``text`` cut into names and integers, whitespace runs and single characters."""
    return re.findall(r"-?\w+|\s+|.", text, flags=re.DOTALL)


def _mutate(rng: random.Random, text: str) -> str:
    if rng.random() < 0.5:
        pieces = _pieces(text) or [""]
        i = rng.randrange(len(pieces))
        how = rng.randrange(3)
        if how == 0:
            pieces[i] = rng.choice(TOKENS)
        elif how == 1:
            pieces.insert(i, rng.choice(TOKENS))
        else:
            del pieces[i]
        return "".join(pieces)
    i = rng.randint(0, len(text))
    how = rng.randrange(3)
    if how == 0 or not text:
        return text[:i] + rng.choice(CHARS) + text[i:]
    i = min(i, len(text) - 1)
    if how == 1:
        return text[:i] + rng.choice(CHARS) + text[i + 1 :]
    return text[:i] + text[i + 1 :]


def word_reader_texts() -> list[str]:
    rng = random.Random(2007)
    texts = list(EDGES)
    for _ in range(800):
        word = _random_word(rng)
        texts.append(word)
        texts.append(_mutate(rng, word))
        if rng.random() < 0.5:
            texts.append(_mutate(rng, _mutate(rng, word)))
    return texts


def _outcome(text: str) -> str:
    try:
        codes = parse_word(text, ALPHABET).codes()
    except ParseError as err:
        return f"{type(err).__name__}: {err}"
    if len(codes) > 64:
        return f"ok {len(codes)} letters, sha256 {hashlib.sha256(repr(codes).encode()).hexdigest()[:16]}"
    return "ok " + " ".join(f"{c}*{len(list(run))}" for c, run in groupby(codes))


def _shown(text: str) -> str:
    return re.sub(r"(.)\1{49,}", lambda m: f"<{m.group(1)}*{len(m.group())}>", repr(text))


def word_reader_lines() -> list[str]:
    return [f"{_shown(text)} -> {_outcome(text)}" for text in word_reader_texts()]


def write_golden() -> None:
    GOLDEN.write_text("\n".join(word_reader_lines()) + "\n", encoding="utf-8")


def test_texts_hold_no_comment_sign():
    assert not any("#" in text for text in word_reader_texts())


def test_word_reader_matches_golden():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = word_reader_lines()
    assert len(actual) == len(expected)
    mismatched = [(e, a) for e, a in zip(expected, actual) if e != a]
    assert not mismatched, mismatched[:5]


@pytest.mark.parametrize("text", ["x # y", "x#", "[x, y] #", "# x", "x^#", "x ^ #y", "[x, y]^#", "[x, #"])
def test_comment_sign_in_a_word_is_an_unexpected_character(text):
    with pytest.raises(ParseError) as info:
        parse_word(text, ALPHABET)
    assert str(info.value) == f"line 1, column {text.index('#') + 1}: unexpected character '#'"


@pytest.mark.parametrize("text", ["1^" + "9" * 30, "[x, x]^-" + "9" * 30])
def test_an_identity_atom_takes_an_exponent_beyond_any_index(text):
    assert parse_word(text, ALPHABET).is_identity


def _without_the_full_reader(text: str, kept: list[bool] | None = None) -> str:
    """The verdict of ``text`` run with the full reader refused; each word read
    appends to ``kept`` whether it carries the text it was read from."""
    read = script.parse_word

    def reading(word_text, alphabet):
        word = read(word_text, alphabet)
        if kept is not None:
            kept.append(str(word) is word_text)
        return word

    with mock.patch.object(script, "_read_word", side_effect=AssertionError("full reader called")), \
            mock.patch.object(script, "parse_word", reading):
        return script.execute(script.parse(text)).verdict


def test_the_shipped_script_never_reaches_the_full_reader():
    assert _without_the_full_reader((ROOT / "scripts" / "exotic_cp2_3.sgc").read_text(encoding="utf-8")) == "PASS"


def test_corpus_relators_never_reach_the_full_reader(monkeypatch):
    # the bench's corpus writes every relator as single-spaced syllables in printed form: the fast path
    # reads each alone, and the word keeps the text, so no relator is rendered back
    spec = importlib.util.spec_from_file_location("bench_corpus", ROOT / "bench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, corpus)  # its dataclass looks the module up
    spec.loader.exec_module(corpus)
    for seed in (3001, 5):
        items = corpus.generate(seed, ROOT)
        assert len(items) == 33
        for item in items:
            kept: list[bool] = []
            assert _without_the_full_reader(item.text, kept) in ("PASS", "FAIL"), item.name
            assert len(kept) == len(item.relators) and all(kept), item.name
