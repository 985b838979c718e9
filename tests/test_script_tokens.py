"""The script tokenizer, pinned: the token stream or error of ~1,000 seeded texts, byte for byte.

``tests/golden/script_tokens.txt`` holds one line per text: the text's repr
(a run of 50 or more equal characters shown as ``<c*count>``), then either
its tokens as ``KIND value-repr line:col`` separated by `` | `` (over 30
tokens, their number and a SHA-256 prefix) or the exception class and full
message.  The texts are script-shaped: statements with string, integer,
identifier and list values, ``\\"`` and ``\\\\`` escapes, comments after
tokens and on their own lines, CR, tab, ``٣`` and ``²``, a 5,000-digit
literal, and one or two character or token mutations of each (unterminated
strings, newlines inside strings).  Regenerate it only for a deliberate
change of the token rules::

    PYTHONPATH=src python -c "import tests.test_script_tokens as t; t.write_golden()"
"""

import hashlib
import random
import re
from pathlib import Path

from sgcalc.script import ParseError, _tokenize

GOLDEN = Path(__file__).parent / "golden" / "script_tokens.txt"
NAMES = ("g", "x1", "_b", "é", "presentation", "let", "check", "trivial", "relators", "a٣")
INTS = ("0", "7", "-3", "007", "٣", "-٣", "12345678901234567890", "9" * 5000)
# Inside a string: plain word text, both escapes, an escape of an ordinary
# character, and characters that end or break a token elsewhere.
STRING_PIECES = (
    "x", "y^2", " ", "[x, y]", "\\\"", "\\\\", "\\n", "\\x", "#", "\t", "\r", "'", "=", "²", "٣", "é",
)
SPACES = ("", " ", " ", "  ", "\t", "\r", " \t ")
BREAKS = ("\n", "\n", "\r\n", "\n\n", " # note\n", "# c \"q\" \\\n", "\n# a comment line\n")
# Replacement tokens and characters of the mutations.
TOKENS = (
    '"', '"x', "\\", "\\\"", "#", "# c", "\n", "\r", "\t", "²", "½", "٣", "@", "\xa0", "-", "--1",
    "==", "(", ")", "[", "]", ",", "^", "9" * 5000, '"a\nb"', "x²", "_", "é",
)
CHARS = "x1_é ٣²\t\r\n\"\\#=()[],^-@'"


def _string(rng: random.Random) -> str:
    return '"' + "".join(rng.choice(STRING_PIECES) for _ in range(rng.randint(0, 4))) + '"'


def _value(rng: random.Random, depth: int = 0) -> str:
    r = rng.random()
    if r < 0.35:
        return _string(rng)
    if r < 0.55:
        return rng.choice(INTS)
    if r < 0.75 or depth >= 2:
        return rng.choice(NAMES)
    items = [_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return "[" + ",".join(rng.choice(SPACES) + item for item in items) + "]"


def _statement(rng: random.Random) -> list[str]:
    """One statement as tokens, before the spacing between them is drawn."""
    if rng.random() < 0.6:
        tokens = ["let", rng.choice(NAMES), "=", rng.choice(NAMES), "("]
        for i in range(rng.randint(0, 3)):
            tokens += ([","] if i else []) + [rng.choice(NAMES), "=", _value(rng)]
        return tokens + [")"]
    tokens = ["check", rng.choice(NAMES), "("]
    for i in range(rng.randint(0, 3)):
        tokens += ([","] if i else []) + [_value(rng)]
    return tokens + [")"]


def _random_script(rng: random.Random) -> str:
    text = rng.choice(("", "", "# header\n", "\r\n", "\t"))
    for i in range(rng.randint(1, 3)):
        if i:
            text += rng.choice(BREAKS)
        tokens = _statement(rng)
        text += tokens[0] + "".join(rng.choice(SPACES[1:] if t[0].isalnum() or t[0] in "_é" else SPACES) + t
                                    for t in tokens[1:])
    if rng.random() < 0.3:
        text += rng.choice(SPACES) + "# " + _string(rng)
    return text + rng.choice(("", "\n", "\n", "  \n", "\r\n"))


def _mutate(rng: random.Random, text: str) -> str:
    i = rng.randint(0, len(text))
    how = rng.randrange(4)
    if how == 0 or not text:
        return text[:i] + rng.choice(TOKENS) + text[i:]
    if how == 1:
        return text[:i] + rng.choice(CHARS) + text[i:]
    i = min(i, len(text) - 1)
    if how == 2:
        return text[:i] + rng.choice(CHARS) + text[i + 1 :]
    return text[:i] + text[i + 1 :]


EDGES = (
    "", " ", "\n", "#", "# only a comment", "x # c\ny", '"a\\"b"', '"a\\\\"', '"a\\\\\\"b"', '"\\"', '"a\nb"',
    '"', '"abc', 'let "x', '"\\', '"x\\\ny"', "\r\n\r\n", "\t\tx\t=\t1", "let x = f(a=٣)", "x²", "²", "٣²",
    "9" * 5000, "let v = V(n=" + "9" * 5000 + ")", "a # \"not a string\n b", '"#" # "#"', "-", "--1", "x-1",
    "a\rb\r\nc", "@", "\xa0", "check trivial(g) # done", 'let g = presentation(generators=["x"], relators=["x^2"])',
)


def script_token_texts() -> list[str]:
    rng = random.Random(20)
    texts = list(EDGES)
    while len(texts) < 1000:
        text = _random_script(rng)
        texts.append(text)
        if rng.random() < 0.6:
            texts.append(_mutate(rng, text))
        if rng.random() < 0.2:
            texts.append(_mutate(rng, _mutate(rng, text)))
    return texts


def _shown(value: str) -> str:
    return re.sub(r"(.)\1{49,}", lambda m: f"<{m.group(1)}*{len(m.group())}>", repr(value))


def _outcome(text: str) -> str:
    try:
        tokens = [tuple(tok) for tok in _tokenize(text)]
    except ParseError as err:
        return f"{type(err).__name__}: {err}"
    shown = " | ".join(f"{kind} {_shown(value)} {line}:{col}" for kind, value, line, col in tokens)
    if len(tokens) > 30:
        return f"{len(tokens)} tokens, sha256 {hashlib.sha256(shown.encode()).hexdigest()[:16]}"
    return shown


def script_token_lines() -> list[str]:
    return [f"{_shown(text)} -> {_outcome(text)}" for text in script_token_texts()]


def write_golden() -> None:
    GOLDEN.write_text("\n".join(script_token_lines()) + "\n", encoding="utf-8")


def test_script_tokens_match_golden():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = script_token_lines()
    assert len(actual) == len(expected)
    mismatched = [(e, a) for e, a in zip(expected, actual) if e != a]
    assert not mismatched, mismatched[:5]
