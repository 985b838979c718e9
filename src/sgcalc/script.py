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
(``parse_word``) with the script's token rules: one regex pass splits a word
into factors, each letter is reduced onto the word as it comes, and offsets
are read only to place an error::

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

Checks (``construction.CHECKS``, which ``verify-paper`` runs too) use H1 first:
a nonzero H1 shows the group nontrivial without enumerating, which refutes
triviality of an exact presentation only.  A surjective bound shown nontrivial,
an exhausted budget or a stalled simplification is inconclusive, never a fail.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, NamedTuple, Union

from . import construction
from .construction import Report, StatementResult, presentation_dict, verdict_of
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
from .records import Record, setfield, setfields
from .words import Alphabet, Word, WordError, free_reduce, inverse_codes


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class InputTooLarge(ParseError):
    """A word over ``MAX_WORD_LETTERS`` or an integer literal over Python's
    digit limit: bad input, never a script error."""


class ScriptRuntimeError(RuntimeError):
    pass


# Longest word the textual syntax may denote, checked before a power is built.
MAX_WORD_LETTERS = 100_000


# -- lexer --------------------------------------------------------------------

class Token(NamedTuple):
    kind: str  # NAME INT STRING SYM END
    value: str
    line: int
    col: int


# The token rules, shared by scripts and words.  A NAME match whose first
# character is a non-decimal digit (``²``, ``½``) is an unexpected character,
# which leaves NAME as ``words._valid_name``'s rule; ``_int`` reads an INT.
_NAME = r"[^\W\d]\w*"
_INT = r"-?\d+"
# One token per match after its spaces; ``BAD`` is any other character but a
# space, and ``STRING`` is unrolled into runs of plain characters between escapes.
_TOKEN = re.compile(
    r'[ \t\r]*(?:(?P<NEWLINE>\n)|(?P<COMMENT>#[^\n]*)'
    rf'|(?P<NAME>{_NAME})|(?P<INT>{_INT})'
    r'|(?P<STRING>"[^"\\\n]*(?:\\.[^"\\\n]*)*")|(?P<SYM>[=(),\[\]^])|(?P<BAD>[^ \t\r]))'
)
_ESCAPE = re.compile(r"\\(.)")
# One factor of a word per match after its spaces (group 1): an atom (NAME,
# INT or ']') with an optional '^' INT exponent, a '[' or ',', or any other
# character but a space, which is an error.
_SPACE = r"[ \t\r\n]*"
_WORD_TOKEN = re.compile(rf"({_SPACE})(?:(?:({_NAME})|({_INT})|(\]))(?:{_SPACE}(\^){_SPACE}({_INT})?)?|([\[,])|[^ \t\r\n])")


def _int(tok: Token) -> int:
    """The value of an INT token; a literal over Python's digit limit is a parse error."""
    try:
        return int(tok.value)
    except ValueError:
        raise InputTooLarge(f"integer literal of {len(tok.value)} characters is too long", tok.line, tok.col) from None


def _tokenize(text: str) -> list[Token]:
    """The tokens of ``text`` and a final END, which sits where a trailing
    comment starts."""
    tokens = []
    line, line_start, end = 1, 0, len(text)
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
            continue
        start, stop = m.span(kind)
        if kind == "COMMENT":
            end = start if stop == len(text) else end
            continue
        value, col = text[start:stop], start - line_start + 1
        if kind == "STRING":
            value = _ESCAPE.sub(r"\1", value[1:-1]) if "\\" in value else value[1:-1]
        elif kind == "BAD" or (kind == "NAME" and not (value[0].isalpha() or value[0] == "_")):
            message = "unterminated string" if value == '"' else f"unexpected character {value[0]!r}"
            raise ParseError(message, line, col)
        tokens.append(Token(kind, value, line, col))
    tokens.append(Token("END", "", line, end - line_start + 1))
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
            shown = tok.value or "end of input"
            raise ParseError(f"expected {expected}, found {shown!r}", tok.line, tok.col)
        return self.next()

    def items(self, close: str, item: Callable[[], object]) -> tuple:
        """A comma list of ``item`` up to the ``close`` symbol."""
        out = []
        if not self.at(close):
            out.append(item())
            while self.at(","):
                self.next()
                out.append(item())
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
        raise ParseError(f"expected 'let' or 'check', found {tok.value!r}", tok.line, tok.col)

    def argument(self) -> tuple[str, Value]:
        key = self.expect("NAME", what="argument keyword")
        self.expect("SYM", "=")
        return key.value, self.value()

    def check(self, line: int) -> Check:
        kind = self.expect("NAME", what="check kind")
        if kind.value not in TABLE["check"]:
            raise ParseError(f"unknown check {kind.value!r}", kind.line, kind.col)
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

    def value(self) -> Value:
        tok = self.next()
        if tok.kind == "NAME":
            return Ref(tok.value)
        if tok.kind == "INT":
            return _int(tok)
        if tok.kind == "STRING":
            return tok.value
        if tok.kind == "SYM" and tok.value == "[":
            return self.items("]", self.value)
        raise ParseError(f"expected a value, found {tok.value!r}", tok.line, tok.col)


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
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
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

def _token_at(text: str, pos: int) -> Token:
    """The token at offset ``pos`` of a word, read for an error there.  The
    whole text is tokenized first, so a lexical error anywhere in it wins; a
    ``#`` starts no comment in a word but is an unexpected character."""
    tokens = _tokenize(text)
    line, col = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    if text.startswith("#", pos):
        raise ParseError("unexpected character '#'", line, col)
    return next(t for t in tokens if (t.line, t.col) == (line, col))


def _word_error(text: str, pos: int, message: str = "unexpected {!r} in word", error: type = ParseError) -> ParseError:
    """``message``, with ``{!r}`` the token's value, at the token at offset ``pos`` of a word."""
    tok = _token_at(text, pos)
    return error(message.format(tok.value), tok.line, tok.col)


def _factor(text: str, index: int) -> re.Match:
    """Factor ``index`` of a word, matched again for an error there."""
    return list(_WORD_TOKEN.finditer(text))[index]


def _exponent(text: str, index: int, exp: str, size: int) -> int:
    """The exponent ``exp`` of factor ``index`` of a word, checked for an atom of ``size`` letters."""
    if not exp:
        raise _word_error(text, _factor(text, index).end(), "expected integer exponent")
    try:
        k = int(exp)
    except ValueError:
        k = _int(_token_at(text, _factor(text, index).start(6)))
    if abs(k) * size > MAX_WORD_LETTERS:
        raise _word_error(text, _factor(text, index).start(6), f"power longer than {MAX_WORD_LETTERS} letters", InputTooLarge)
    return k


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Read the textual word syntax over a known alphabet (see the module docstring).  An open commutator
    waits on ``stack`` as the word it sits in, its left side (``None`` until read) and its ``[``'s index."""
    ranks = alphabet.ranks
    out: list[int] = []
    stack: list[list] = []
    for index, (_, name, num, close, caret, exp, sym) in enumerate(_WORD_TOKEN.findall(text)):
        if name:
            rank = ranks.get(name)
            if rank is None:
                raise _word_error(text, _factor(text, index).end(1), "unknown generator {!r}")
            k = _exponent(text, index, exp, 1) if caret else 1
            code, k = 2 * rank + (k < 0), abs(k)
            while k and out and out[-1] == code ^ 1:  # a letter's power cancels only its inverse letter
                out.pop()
                k -= 1
            if k == 1:
                out.append(code)
            else:
                out += [code] * k
        elif num == "1":
            if caret:
                _exponent(text, index, exp, 0)  # checked, though any power of the identity is the identity
        elif close and stack and stack[-1][1] is not None:
            (out, left, opened), right = stack.pop(), out
            atom = free_reduce([*left, *right, *inverse_codes(left), *inverse_codes(right)])
            k = _exponent(text, index, exp, len(atom)) if caret else 1
            if atom:  # an identity atom stays one, whatever its exponent
                free_reduce((atom if k >= 0 else inverse_codes(atom)) * abs(k), out)
        elif sym == "[":
            stack.append([out, None, index])
            out = []
        elif sym == "," and stack and stack[-1][1] is None:
            stack[-1][1], out = out, []
        else:  # an INT other than 1, a ',' or ']' out of place, or any other character
            raise _word_error(text, _factor(text, index).end(1))
        if len(out) > MAX_WORD_LETTERS:
            start = _factor(text, opened if close else index).end(1)  # a commutator's error sits at its '['
            raise _word_error(text, start, f"word longer than {MAX_WORD_LETTERS} letters", InputTooLarge)
    if stack:
        raise _word_error(text, len(text), "expected ',' in commutator" if stack[-1][1] is None else "expected ']'")
    return Word(alphabet, out)


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
            try:
                alphabet = Alphabet(rest.split())
            except WordError as err:
                raise ParseError(str(err), lineno, 1) from None
        elif key == "relator":
            relator_texts.append((rest, lineno, offset))
        elif key == "exactness":
            try:
                exactness = Exactness(rest)
            except ValueError:
                raise ParseError(f"unknown exactness {rest!r}", lineno, 1) from None
        else:
            raise ParseError(f"unknown line {key!r}", lineno, 1)
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
        raise ScriptRuntimeError(f"surface {mark.id!r} has no boundary generator {label.strip()!r}")

    pairs = []
    for item in pairing:
        text = _want(item, "string", "pairing entry")
        left, sep, right = text.partition(":")
        if not sep:
            raise ScriptRuntimeError(f"pairing entry {text!r} is not 'left:right'")
        pairs.append((index_of(mark_a, left), index_of(mark_b, right)))
    return _sum(a, surf_a, b, surf_b, tuple(pairs))


def _relators(items: list, alphabet: Alphabet) -> tuple[Word, ...]:
    try:
        return tuple(parse_word(_want(text, "string", "relator"), alphabet) for text in items)
    except InputTooLarge:
        raise
    except ParseError as err:
        raise ScriptRuntimeError(f"bad relator: {err}") from None


def _presentation(generators: list, relators: list, exactness: str) -> Presentation:
    alphabet = Alphabet([_want(g, "string", "generator") for g in generators])
    words = _relators(relators, alphabet)
    known = {e.value: e for e in Exactness}
    if exactness not in known:
        raise ScriptRuntimeError(f"unknown exactness {exactness!r} (allowed: {', '.join(map(repr, known))})")
    return Presentation(alphabet, words, known[exactness])


# The script's one table: each operation's function and its (keyword, kind[,
# default]) parameters, and the checks (construction.CHECKS).  A "group" is a
# presentation or a state standing for its group.  The lambdas look their
# functions up at call time, so wrapping a module attribute reaches scripts too.
TABLE: dict[str, dict[str, tuple]] = {
    "let": {
        "presentation": (_presentation, (("generators", "list"), ("relators", "list", []), ("exactness", "string", "exact"))),
        "quotient": (lambda p, rels: quotient_by(p, _relators(rels, p.alphabet)), (("p", "group"), ("relators", "list"))),
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
            raise ScriptRuntimeError(f"duplicate argument {key!r}")
        given[key] = resolve(value)
    unexpected = sorted(set(given) - {param[0] for param in params})
    if unexpected:
        raise ScriptRuntimeError(f"unexpected arguments: {', '.join(unexpected)}")
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
                raise ScriptRuntimeError(f"undefined identifier {value.name!r}")
            return env[value.name]
        if isinstance(value, tuple):
            return [resolve(item) for item in value]
        return value

    for index, (stmt, text) in enumerate(zip(script.statements, texts)):
        try:
            if isinstance(stmt, Let):
                if stmt.name in env:
                    raise ScriptRuntimeError(f"identifier {stmt.name!r} already bound")
                if stmt.op not in TABLE["let"]:
                    raise ScriptRuntimeError(f"unknown operation {stmt.op!r}")
                function, params = TABLE["let"][stmt.op]
                args = _bind(stmt.op, params, stmt.args, resolve)
            else:
                if stmt.kind not in TABLE["check"]:
                    raise ScriptRuntimeError(f"unknown check {stmt.kind!r}")
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
            raise InputTooLarge(f"in a word: {err}", stmt.line, 1) from None
    return Report(tuple(results), verdict_of(results), {"max_cosets": budgets.max_cosets})
