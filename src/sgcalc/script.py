"""Construction-script parsing and execution.

Script grammar (``.sgc`` files)::

    script := stmt*
    stmt   := 'let' ID '=' call | 'check' check
    call   := NAME '(' args? ')'
    args   := arg (',' arg)*
    arg    := NAME '=' value
    value  := ID | INT | STRING | '[' value (',' value)* ']'
    check  := ('trivial' | 'classify' | 'minimality' | 'parity' | 'symplectic'
               | 'simplify' | 'replay') '(' ID ')'
            | 'h1' '(' ID ',' INT ')'
            | ('invariants' | 'size') '(' ID ',' INT ',' INT ')'

Quoted strings hold words over a known alphabet, read by their own reader
(``parse_word``) with the script's token rules.  A word written as syllables
``NAME`` or ``NAME^INT`` between single spaces, the shape presentations come
in, is cut with ``str.split`` and each syllable looked up in the alphabet;
any other word, and every error, goes to the full reader (``_read_word``),
which reads the script's tokens of the word and raises each error at its
token.  Both reduce each letter onto the word as it comes and give the same
word::

    word   := factor*
    factor := atom ('^' INT)?
    atom   := NAME | '1' | '[' word ',' word ']'

``1`` is the identity and ``[u, v]`` is ``u v u^-1 v^-1``, e.g.
``"[b^-1, y^-1]"`` or ``"b a b^-1"``.  Tokens: a NAME starts with a letter
or ``_`` and goes on with letters, digits and ``_`` (the rule for generator
names); an INT is an optional ``-`` and decimal digits; a STRING is quoted,
stays on one line, and ``\\`` escapes the next character; the symbols are
``= ( ) , [ ] ^``.  Spaces, tabs and CR separate tokens, ``#`` comments to the
end of the line (in a word it is an unexpected character), and columns count
characters from the start of the line.

A word cut from syllables in printed form (the text is what ``str`` of the
word prints) keeps the text it was read from, so neither a ``let``'s summary
nor a report renders it back; the kept text is not part of the word's value.

Checks (``construction.CHECKS``, which ``verify-paper`` runs too) use H1 first:
a nonzero H1 shows the group nontrivial without enumerating, which refutes
triviality of an exact presentation only.  A surjective bound shown nontrivial,
an exhausted budget or a stalled simplification is inconclusive, never a fail.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, NamedTuple, Union

from . import construction
from .construction import Report, StatementResult, presentation_dict
from .coset_enum import MAX_COSETS, check_max_cosets
from .manifolds import ManifoldError, ManifoldState, blow_up
# The checks call these three through construction; they stay attributes of
# this module only because bench/tracing.py wraps them here.
from .coset_enum import certify_trivial  # noqa: F401
from .manifolds import classify  # noqa: F401
from .presentations import homology_invariants  # noqa: F401
from .manifolds import luttinger as _luttinger
from .manifolds import resolve_intersection as _resolve
from .manifolds import symplectic_sum as _sum
from .presentations import (
    Exactness,
    Presentation,
    PresentationError,
    quotient_by,
)
from .records import Record, setfield, setfields, shown
from .words import Alphabet, Word, WordError, _keep_text, free_reduce, inverse_codes


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class InputTooLarge(ParseError):
    """A word over ``MAX_WORD_LETTERS``, a presentation over
    ``MAX_PRESENTATION_SIZE`` or an integer literal over Python's digit
    limit: bad input, never a script error."""


class ScriptRuntimeError(RuntimeError):
    pass


# Longest word the textual syntax may denote, checked before a power is built.
MAX_WORD_LETTERS = 100_000
# Deepest nesting of list literals a script may write, so that parsing,
# printing and resolving a value stay far inside Python's recursion limit.
MAX_LIST_DEPTH = 100
# Most generators, and most relators, that a script or presentation document
# may state, checked before any word is read.  H1 of 64 dense relators over
# 64 generators, with the largest exponents MAX_WORD_LETTERS allows, takes
# 1.3-1.5 s on a 2-CPU x86-64 machine, and that cost grows about as the
# fourth power of the size.
MAX_PRESENTATION_SIZE = 64


def _check_size(count: int, what: str, line: int = 1) -> None:
    """Refuse ``count`` generators or relators over :data:`MAX_PRESENTATION_SIZE`;
    ``execute`` places the error of a script operation at its statement."""
    if count > MAX_PRESENTATION_SIZE:
        raise InputTooLarge(f"presentation of {count} {what} is over the bound of {MAX_PRESENTATION_SIZE}", line, 1)


# -- lexer --------------------------------------------------------------------

class Token(NamedTuple):
    kind: str  # NAME INT STRING SYM END
    value: str
    line: int
    col: int


# The token rules, shared by scripts and words: one token per match after its
# spaces.  ``BAD`` is any other character but a space, and ``STRING`` (its
# quotes outside the group) is unrolled into runs of plain characters between
# escapes.  A NAME match whose first character is a non-decimal digit (``²``,
# ``½``) is an unexpected character, which leaves NAME as
# ``words._valid_name``'s rule; ``_int`` reads an INT.  The alternatives start
# with distinct characters, so their order only sets how soon the common ones
# are tried.
_TOKEN = re.compile(
    r'[ \t\r]*(?:"(?P<STRING>[^"\\\n]*(?:\\.[^"\\\n]*)*)"|(?P<SYM>[=(),\[\]^])'
    r'|(?P<NAME>[^\W\d]\w*)|(?P<INT>-?\d+)|(?P<NEWLINE>\n)|(?P<COMMENT>#[^\n]*)|(?P<BAD>[^ \t\r]))'
)
_ESCAPE = re.compile(r"\\(.)")


def _int(tok: Token) -> int:
    """The value of an INT token; a literal over Python's digit limit is a parse error."""
    try:
        return int(tok.value)
    except ValueError:
        raise InputTooLarge(f"integer literal of {len(tok.value)} characters is too long", tok.line, tok.col) from None


def _tokenize(text: str) -> list[Token]:
    """The tokens of ``text`` and a final END, which sits where a trailing
    comment starts.  ``tuple.__new__`` builds each token in C, past the
    Python-level ``Token.__new__``."""
    tokens: list[Token] = []
    add, new = tokens.append, tuple.__new__
    line, line_start, end = 1, 0, len(text)
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start, stop = m.span(kind)
        if kind == "STRING":  # its column is its opening quote's
            value = text[start:stop]
            add(new(Token, (kind, _ESCAPE.sub(r"\1", value) if "\\" in value else value, line, start - line_start)))
        elif kind == "SYM" or kind == "INT" or kind == "NAME" and (text[start].isalpha() or text[start] == "_"):
            add(new(Token, (kind, text[start:stop], line, start - line_start + 1)))
        elif kind == "NEWLINE":
            line, line_start = line + 1, stop
        elif kind == "COMMENT":
            end = start if stop == len(text) else end
        else:  # a BAD character, or a NAME that starts with a non-decimal digit
            message = "unterminated string" if text[start] == '"' else f"unexpected character {text[start]!r}"
            raise ParseError(message, line, start - line_start + 1)
    add(new(Token, ("END", "", line, end - line_start + 1)))
    return tokens


# -- AST ----------------------------------------------------------------------

class Ref(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        setfield(self, "name", name)


# An argument value is an int, a str, a tuple of values (a list literal) or a
# Ref, which names a bound identifier.
Value = Union[Ref, int, str, tuple]


class Let(Record):
    __slots__ = ("name", "op", "args", "line")

    def __init__(self, name: str, op: str, args: tuple[tuple[str, Value], ...], line: int):
        setfield(self, "name", name)
        setfield(self, "op", op)
        setfield(self, "args", args)
        setfield(self, "line", line)


class Check(Record):
    __slots__ = ("kind", "args", "line")

    def __init__(self, kind: str, args: tuple[Value, ...], line: int):
        setfield(self, "kind", kind)  # a check of construction.CHECKS
        setfield(self, "args", args)
        setfield(self, "line", line)


Statement = Union[Let, Check]


class Script(Record):
    __slots__ = ("statements",)

    def __init__(self, statements: tuple[Statement, ...]):
        setfield(self, "statements", statements)


class _Parser:
    """Recursive descent over the tokens of one script."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, symbol: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "SYM" and tok.value == symbol

    def expect(self, kind: str, value: str | None = None, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            expected = what or (value if value is not None else kind.lower())
            raise ParseError(f"expected {expected}, found {shown(tok.value or 'end of input')}", tok.line, tok.col)
        return self.next()

    def items(self, close: str, item: Callable[..., object], *args) -> tuple:
        """A comma list of ``item(*args)`` up to the ``close`` symbol."""
        out = []
        if not self.at(close):
            out.append(item(*args))
            while self.at(","):
                self.pos += 1
                out.append(item(*args))
        self.expect("SYM", close)
        return tuple(out)

    def script(self) -> Script:
        statements: list[Statement] = []
        while self.peek().kind != "END":
            statements.append(self.statement())
        return Script(tuple(statements))

    def statement(self) -> Statement:
        tok = self.next()
        if tok.kind == "NAME" and tok.value == "let":
            name_tok = self.expect("NAME", what="identifier after 'let'")
            if name_tok.value in ("let", "check"):
                raise ParseError(f"{name_tok.value!r} is a keyword", name_tok.line, name_tok.col)
            self.expect("SYM", "=")
            op = self.expect("NAME", what="operation name")
            self.expect("SYM", "(")
            return Let(name_tok.value, op.value, self.items(")", self.argument), tok.line)
        if tok.kind == "NAME" and tok.value == "check":
            return self.check(tok.line)
        raise ParseError(f"expected 'let' or 'check', found {shown(tok.value)}", tok.line, tok.col)

    def argument(self) -> tuple[str, Value]:
        key = self.expect("NAME", what="argument keyword")
        self.expect("SYM", "=")
        return key.value, self.value()

    def check(self, line: int) -> Check:
        kind = self.expect("NAME", what="check kind")
        if kind.value not in TABLE["check"]:
            raise ParseError(f"unknown check {shown(kind.value)}", kind.line, kind.col)
        self.expect("SYM", "(")
        args: list[Value] = []
        for i, (_, param_kind) in enumerate(TABLE["check"][kind.value][1]):
            if i:
                self.expect("SYM", ",")
            if param_kind == "int":
                args.append(_int(self.expect("INT", what="integer")))
            else:
                args.append(Ref(self.expect("NAME", what="identifier").value))
        self.expect("SYM", ")")
        return Check(kind.value, tuple(args), line)

    def value(self, depth: int = 0) -> Value:
        """A value inside ``depth`` lists."""
        tok = self.next()
        if tok.kind == "STRING":
            return tok.value
        if tok.kind == "NAME":
            return Ref(tok.value)
        if tok.kind == "INT":
            return _int(tok)
        if tok.kind == "SYM" and tok.value == "[":
            if depth == MAX_LIST_DEPTH:
                raise ParseError(f"list nested deeper than {MAX_LIST_DEPTH} levels", tok.line, tok.col)
            return self.items("]", self.value, depth + 1)
        raise ParseError(f"expected a value, found {shown(tok.value)}", tok.line, tok.col)


def parse(text: str) -> Script:
    """Parse script text into an AST; raises :class:`ParseError`."""
    return _Parser(text).script()


def _print_value(v: Value) -> str:
    if isinstance(v, Ref):
        return v.name
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        if "\n" in v:  # a string stays on one line, and no escape spells a newline
            raise ValueError(f"string {v!r} holds a newline, which the script syntax cannot write")
        if "\\" in v or '"' in v:
            v = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{v}"'
    return "[" + ", ".join(_print_value(i) for i in v) + "]"


def print_statement(stmt: Statement) -> str:
    if isinstance(stmt, Let):
        args = ", ".join(f"{k}={_print_value(v)}" for k, v in stmt.args)
        return f"let {stmt.name} = {stmt.op}({args})"
    args = ", ".join(_print_value(v) for v in stmt.args)
    return f"check {stmt.kind}({args})"


def print_script(script: Script) -> str:
    return "\n".join(print_statement(s) for s in script.statements) + (
        "\n" if script.statements else ""
    )


# -- word and presentation text formats ---------------------------------------

def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Read the textual word syntax over a known alphabet (see the module docstring).

    Text whose chunks between single spaces are each ``NAME``, ``NAME^-1`` or
    ``NAME^k`` (``k`` an INT of at most six digits), with at most
    :data:`MAX_WORD_LETTERS` letters before reduction, is read here chunk by
    chunk; any other text, and so every error, goes to :func:`_read_word`.

    The word keeps ``text`` as its ``str`` when the text is in printed form:
    no two neighbouring chunks share a generator (so no letter cancels), and
    every exponent is ``-1`` or a ``k`` written as ``str(k)`` with ``|k| > 1``."""
    letters, ranks = alphabet.letter_codes(), alphabet.ranks
    out: list[int] = []
    chunks = text.split(" ")
    extra = 0  # letters of the powers beyond one per chunk
    printed = True  # while it holds, out[-1] is the last chunk's letter
    for chunk in chunks:
        code = letters.get(chunk)
        if code is None:
            name, _, exp = chunk.partition("^")
            rank = ranks.get(name)
            if rank is None:
                return _read_word(text, alphabet)
            digits = exp[1:] if exp[:1] == "-" else exp
            if not digits.isdecimal() or len(digits) > 6:
                return _read_word(text, alphabet)
            k = int(exp)
            printed = printed and abs(k) > 1 and str(k) == exp and not (out and out[-1] >> 1 == rank)
            code, k = 2 * rank + (k < 0), abs(k)
            extra += k - 1
            if extra >= MAX_WORD_LETTERS:  # refused below in any case: never build the power
                return _read_word(text, alphabet)
            while k and out and out[-1] == code ^ 1:  # a letter's power cancels only its inverse letter
                out.pop()
                k -= 1
            out += [code] * k
        elif not out or out[-1] >> 1 != code >> 1:
            out.append(code)
        else:  # the same generator as the letter before: a longer run, or a cancellation
            printed = False
            if out[-1] == code:
                out.append(code)
            else:
                out.pop()
    if len(chunks) + extra > MAX_WORD_LETTERS:  # the full reader finds where a prefix grew too long, if one did
        return _read_word(text, alphabet)
    word = Word(alphabet, tuple(out), True)  # every letter was cancelled against its inverse as it came
    if printed:
        _keep_text(word, text)
    return word


def _read_word(text: str, alphabet: Alphabet) -> Word:
    """The full word reader: brackets, every spacing and every error; its word
    keeps no text.  It walks the script's tokens of the whole text, so a
    lexical error anywhere wins, and raises each error at the token in hand.
    A ``#`` starts no comment in a word: the tokens from the first one on give
    way to one BAD token for it (a ``#`` inside a string sits past the STRING
    token, which is refused first).  An open commutator waits on ``stack`` as
    the word it sits in, its left side (``None`` until read) and its ``[``
    token."""
    ranks = alphabet.ranks
    tokens = _tokenize(text)
    at = text.find("#")
    if at >= 0:
        place = (text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))
        tokens = [tok for tok in tokens if (tok.line, tok.col) < place] + [Token("BAD", "#", *place)]
    out: list[int] = []
    stack: list[list] = []
    i = 0
    while True:
        tok = tokens[i]
        kind, value = tok.kind, tok.value
        i += 1
        if kind == "NAME":
            rank = ranks.get(value)
            if rank is None:
                raise ParseError(f"unknown generator {shown(value)}", tok.line, tok.col)
            atom = (2 * rank,)
        elif kind == "INT" and value == "1":
            atom = ()
        elif kind == "END":
            break
        elif kind == "SYM" and value == "[":
            stack.append([out, None, tok])
            out = []
            continue
        elif kind == "SYM" and value == "," and stack and stack[-1][1] is None:
            stack[-1][1], out = out, []
            continue
        elif kind == "SYM" and value == "]" and stack and stack[-1][1] is not None:
            (out, left, tok), right = stack.pop(), out  # a commutator's errors sit at its '['
            atom = free_reduce([*left, *right, *inverse_codes(left), *inverse_codes(right)])
        else:
            message = "unexpected character '#'" if kind == "BAD" else f"unexpected {shown(value)} in word"
            raise ParseError(message, tok.line, tok.col)
        k = 1
        if tokens[i][:2] == ("SYM", "^"):
            exp = tokens[i + 1]
            i += 2
            if exp.kind != "INT":
                message = "unexpected character '#'" if exp.kind == "BAD" else "expected integer exponent"
                raise ParseError(message, exp.line, exp.col)
            k = _int(exp)
            if abs(k) * len(atom) > MAX_WORD_LETTERS:
                raise InputTooLarge(f"power longer than {MAX_WORD_LETTERS} letters", exp.line, exp.col)
        if len(atom) == 1:  # a letter's power cancels only its inverse letter
            code, k = atom[0] ^ (k < 0), abs(k)
            while k and out and out[-1] == code ^ 1:
                out.pop()
                k -= 1
            out += [code] * k
        elif atom:  # a commutator; an identity atom stays one, whatever its exponent
            free_reduce((atom if k >= 0 else inverse_codes(atom)) * abs(k), out)
        if len(out) > MAX_WORD_LETTERS:
            raise InputTooLarge(f"word longer than {MAX_WORD_LETTERS} letters", tok.line, tok.col)
    if stack:
        raise ParseError("expected ',' in commutator" if stack[-1][1] is None else "expected ']'", tok.line, tok.col)
    return Word(alphabet, tuple(out), True)  # every letter was cancelled against its inverse as it came


def parse_presentation_document(text: str) -> Presentation:
    """Parse the presentation document format.

    One ``generators:`` line (space-separated names, possibly none), any
    number of ``relator:`` lines in the textual word syntax, and an optional
    ``exactness:`` line (``exact`` or ``surjective-bound``).
    """
    alphabet: Alphabet | None = None
    relator_texts: list[tuple[str, int, int]] = []
    exactness = Exactness.EXACT
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        offset = len(line) - len(rest.lstrip())  # columns before the value
        rest = rest.strip()
        if key == "generators":
            if alphabet is not None:
                raise ParseError("duplicate generators line", lineno, 1)
            names = rest.split()
            _check_size(len(names), "generators", lineno)
            try:
                alphabet = Alphabet(names)
            except WordError as err:
                raise ParseError(str(err), lineno, 1) from None
        elif key == "relator":
            relator_texts.append((rest, lineno, offset))
            _check_size(len(relator_texts), "relators", lineno)
        elif key == "exactness":
            try:
                exactness = Exactness(rest)
            except ValueError:
                raise ParseError(f"unknown exactness {shown(rest)}", lineno, 1) from None
        else:
            raise ParseError(f"unknown line {shown(key)}", lineno, 1)
    if alphabet is None:
        raise ParseError("missing generators line", 1, 1)
    relators = []
    for rel_text, lineno, offset in relator_texts:
        try:
            relators.append(parse_word(rel_text, alphabet))
        except ParseError as err:
            raise type(err)(f"in relator: {err.message}", lineno, offset + err.col) from None
    return Presentation(alphabet, tuple(relators), exactness)


def format_presentation_document(p: Presentation) -> str:
    lines = ["generators: " + " ".join(p.alphabet.names)]
    lines += [f"relator: {r}" for r in p.relators]
    lines.append(f"exactness: {p.exactness.value}")
    return "\n".join(lines) + "\n"


# -- execution ----------------------------------------------------------------

class Budgets(Record):
    __slots__ = ("max_cosets",)

    def __init__(self, max_cosets: int = MAX_COSETS):
        check_max_cosets(max_cosets)
        setfields(self, max_cosets)


_KINDS = {"state": (ManifoldState, "a manifold state"), "int": (int, "an integer"),
          "string": (str, "a string"), "list": (list, "a list")}


def _want(value: object, kind: str, what: str):
    """``value`` checked against a parameter kind of :data:`TABLE`."""
    if kind == "group":
        if isinstance(value, (ManifoldState, Presentation)):
            return value.pi1 if isinstance(value, ManifoldState) else value
        raise ScriptRuntimeError("expected a manifold state or a presentation")
    if not isinstance(value, _KINDS[kind][0]):
        raise ScriptRuntimeError(f"{what} must be {_KINDS[kind][1]}")
    return value


def _symplectic_sum(a: ManifoldState, surf_a: str, b: ManifoldState, surf_b: str, pairing: list) -> ManifoldState:
    """``symplectic_sum`` with its pairing given as ``"left:right"`` labels of boundary generators."""
    mark_a, mark_b = a.surface(surf_a), b.surface(surf_b)

    def index_of(mark, label):
        for i, w in enumerate(mark.boundary_generators):
            if str(w) == label.strip():
                return i
        raise ScriptRuntimeError(f"surface {shown(mark.id)} has no boundary generator {shown(label.strip())}")

    pairs = []
    for item in pairing:
        text = _want(item, "string", "pairing entry")
        left, sep, right = text.partition(":")
        if not sep:
            raise ScriptRuntimeError(f"pairing entry {shown(text)} is not 'left:right'")
        pairs.append((index_of(mark_a, left), index_of(mark_b, right)))
    return _sum(a, surf_a, b, surf_b, tuple(pairs))


def _relators(items: list, alphabet: Alphabet) -> tuple[Word, ...]:
    try:
        return tuple(parse_word(_want(text, "string", "relator"), alphabet) for text in items)
    except InputTooLarge as err:
        raise InputTooLarge(f"in a word: {err}", err.line, err.col) from None
    except ParseError as err:
        raise ScriptRuntimeError(f"bad relator: {err}") from None


def _presentation(generators: list, relators: list, exactness: str) -> Presentation:
    _check_size(len(generators), "generators")
    _check_size(len(relators), "relators")
    alphabet = Alphabet([_want(g, "string", "generator") for g in generators])
    words = _relators(relators, alphabet)
    known = {e.value: e for e in Exactness}
    if exactness not in known:
        raise ScriptRuntimeError(f"unknown exactness {shown(exactness)} (allowed: {', '.join(map(repr, known))})")
    return Presentation(alphabet, words, known[exactness])


def _quotient(p: Presentation, relators: list) -> Presentation:
    _check_size(p.nrels + len(relators), "relators")
    return quotient_by(p, _relators(relators, p.alphabet))


# The script's one table: each operation's function and its (keyword, kind[,
# default]) parameters, and the checks (construction.CHECKS).  A "group" is a
# presentation or a state standing for its group.  The lambdas look their
# functions up at call time, so wrapping a module attribute reaches scripts too.
TABLE: dict[str, dict[str, tuple]] = {
    "let": {
        "presentation": (_presentation, (("generators", "list"), ("relators", "list", []), ("exactness", "string", "exact"))),
        "quotient": (_quotient, (("p", "group"), ("relators", "list"))),
        "luttinger": (lambda *args: _luttinger(*args),
                      (("s", "state"), ("torus", "string"), ("p", "int"), ("q", "int"), ("k", "int"))),
        "blow_up": (lambda *args: blow_up(*args), (("s", "state"), ("on", "string", None), ("count", "int", 1))),
        "resolve_intersection": (lambda *args: _resolve(*args),
                                 (("s", "state"), ("a", "string"), ("b", "string"), ("id", "string", None))),
        "symplectic_sum": (_symplectic_sum, (("a", "state"), ("surf_a", "string"), ("b", "state"),
                                             ("surf_b", "string"), ("pairing", "list"))),
    },
    "check": construction.CHECKS,
}
for _block in ("V", "W", "P1", "P2", "P", "X"):
    TABLE["let"][f"build_{_block}"] = (getattr(construction, f"build_{_block.lower()}"), ())


def _bind(name: str, params: tuple, args: Iterable[tuple[str, Value]], resolve: Callable[[Value], object]) -> list:
    """The values of ``(keyword, value)`` pairs in parameter order, checked before any call."""
    given: dict[str, object] = {}
    for key, value in args:
        if key in given:
            raise ScriptRuntimeError(f"duplicate argument {shown(key)}")
        given[key] = resolve(value)
    unexpected = sorted(set(given) - {param[0] for param in params})
    if unexpected:
        raise ScriptRuntimeError(f"unexpected arguments: {', '.join(shown(key, key) for key in unexpected)}")
    bound = []
    for key, kind, *default in params:
        if key not in given and not default:
            raise ScriptRuntimeError(f"missing argument {key!r}")
        what = f"{name} target" if key == "target" else key
        bound.append(_want(given[key], kind, what) if key in given else default[0])
    return bound


def _summary(value: ManifoldState | Presentation) -> tuple[str, dict]:
    if isinstance(value, ManifoldState):
        detail = (
            f"state{' ' + value.name if value.name else ''}: "
            f"e = {value.euler}, sigma = {value.signature}, "
            f"{value.pi1.ngens} generators, {value.pi1.nrels} relators, "
            f"minimality {value.minimality.value}, parity {value.parity.value}"
        )
        data = {
            "euler": value.euler,
            "signature": value.signature,
            "parity": value.parity.value,
            "minimality": value.minimality.value,
            **presentation_dict(value.pi1),
        }
        return detail, data
    return f"presentation: {value.ngens} generators, {value.nrels} relators", presentation_dict(value)


def execute(script: Script, budgets: Budgets = Budgets()) -> Report:
    """Evaluate statements in order, all printed before the first runs and
    each bound against :data:`TABLE` before its operation or check runs.

    The first failed check (or runtime error) aborts execution; an
    inconclusive check downgrades the verdict but does not abort.  Each
    presentation's H1 and enumeration are computed once per call (one
    ``CheckRun``): ``check classify`` reuses the certificate of ``check trivial``.
    """
    texts = [print_statement(stmt) for stmt in script.statements]
    env: dict[str, object] = {}
    results: list[StatementResult] = []
    run = construction.CheckRun(budgets.max_cosets)

    def resolve(value: Value) -> object:
        if isinstance(value, Ref):
            if value.name not in env:
                raise ScriptRuntimeError(f"undefined identifier {shown(value.name)}")
            return env[value.name]
        if isinstance(value, tuple):
            return [resolve(item) for item in value]
        return value

    for index, (stmt, text) in enumerate(zip(script.statements, texts)):
        try:
            if isinstance(stmt, Let):
                if stmt.name in env:
                    raise ScriptRuntimeError(f"identifier {shown(stmt.name)} already bound")
                if stmt.op not in TABLE["let"]:
                    raise ScriptRuntimeError(f"unknown operation {shown(stmt.op)}")
                function, params = TABLE["let"][stmt.op]
                args = _bind(stmt.op, params, stmt.args, resolve)
            else:
                if stmt.kind not in TABLE["check"]:
                    raise ScriptRuntimeError(f"unknown check {shown(stmt.kind)}")
                function, params = TABLE["check"][stmt.kind]
                if len(stmt.args) != len(params):
                    raise ScriptRuntimeError(f"check {stmt.kind} takes {len(params)} argument(s), got {len(stmt.args)}")
                args = [run, *_bind(stmt.kind, params, zip([p[0] for p in params], stmt.args), resolve)]
            try:
                result = function(*args)
            except (ManifoldError, PresentationError, WordError) as err:
                raise ScriptRuntimeError(str(err)) from None
            if isinstance(stmt, Let):
                env[stmt.name] = result
                result = ("ok", *_summary(result))
            results.append(StatementResult(index, text, *result[:3]))
            if result[0] == "fail":
                break
        except ScriptRuntimeError as err:
            results.append(StatementResult(index, text, "error", str(err)))
            break
        except InputTooLarge as err:
            raise InputTooLarge(err.message, stmt.line, 1) from None
    return Report(tuple(results), {"max_cosets": budgets.max_cosets})
