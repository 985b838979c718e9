"""Construction-script parsing and execution.

Script grammar (``.sgc`` files)::

    script := stmt*
    stmt   := 'let' ID '=' call | 'check' check
    call   := NAME '(' args? ')'
    args   := arg (',' arg)*
    arg    := NAME '=' value
    value  := ID | INT | STRING | '[' value (',' value)* ']'
    check  := 'trivial' '(' ID ')'
            | 'invariants' '(' ID ',' INT ',' INT ')'
            | 'classify' '(' ID ')'

Quoted strings hold words over a known alphabet, read by the same tokenizer
and parser::

    word   := factor*
    factor := atom ('^' INT)?
    atom   := NAME | '1' | '[' word ',' word ']'

``1`` is the identity and ``[u, v]`` is ``u v u^-1 v^-1``, e.g.
``"[b^-1, y^-1]"`` or ``"b a b^-1"``.  Tokens: a NAME starts with a letter
or ``_`` and goes on with letters, digits and ``_`` (the rule for generator
names); an INT is an optional ``-`` and decimal digits; a STRING is quoted,
stays on one line, and ``\\`` escapes the next character; the symbols are
``= ( ) , [ ] ^``.  Spaces, tabs and CR separate tokens, ``#`` comments to the
end of the line, and columns count characters from the start of the line.

Checks run with the abelianization short-circuit: a nonzero H1 refutes
triviality without touching the enumerator, and an exhausted coset budget is
inconclusive, never a pass or a fail.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, NamedTuple, Union

from . import construction
from .construction import Report, StatementResult, presentation_dict, verdict_of
from .coset_enum import MAX_COSETS
from .manifolds import ManifoldError, ManifoldState, blow_up
# The checks call these through construction; they stay attributes of this
# module because bench/tracing.py wraps them here.
from .coset_enum import certify_trivial  # noqa: F401
from .manifolds import classify  # noqa: F401
from .manifolds import luttinger as _luttinger
from .manifolds import resolve_intersection as _resolve
from .manifolds import symplectic_sum as _sum
from .presentations import (
    Exactness,
    Presentation,
    PresentationError,
    homology_invariants,
    quotient_by,
)
from .records import Record, setfield, setfields
from .words import Alphabet, Word, WordError


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


# One alternative per token class; ``BAD`` catches any other character.  A
# NAME match whose first character is a non-decimal digit (``²``, ``½``) is
# an unexpected character, which leaves NAME as ``words._valid_name``'s rule.
_TOKEN = re.compile(
    r'(?P<NEWLINE>\n)|[ \t\r]+|(?P<COMMENT>#[^\n]*)'
    r'|(?P<NAME>[^\W\d]\w*)|(?P<INT>-?\d+)'
    r'|(?P<STRING>"(?:[^"\\\n]|\\.)*")|(?P<SYM>[=(),\[\]^])|(?P<BAD>.)'
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
    comment starts."""
    tokens = []
    line, line_start, end = 1, 0, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "COMMENT":
            continue
        end = m.end()
        if kind == "NEWLINE":
            line, line_start = line + 1, end
        elif kind:
            value, col = m.group(), m.start() - line_start + 1
            if kind == "NAME" and not (value[0].isalpha() or value[0] == "_"):
                kind, value = "BAD", value[0]
            if kind == "BAD":
                message = "unterminated string" if value == '"' else f"unexpected character {value!r}"
                raise ParseError(message, line, col)
            if kind == "STRING":
                value = _ESCAPE.sub(r"\1", value[1:-1])
            tokens.append(Token(kind, value, line, col))
    tokens.append(Token("END", "", line, end - line_start + 1))
    return tokens


# -- AST ----------------------------------------------------------------------

class Ref(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        setfield(self, "name", name)


class IntVal(Record):
    __slots__ = ("value",)

    def __init__(self, value: int):
        setfield(self, "value", value)


class StrVal(Record):
    __slots__ = ("text",)

    def __init__(self, text: str):
        setfield(self, "text", text)


class ListVal(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple[Value, ...]):
        setfield(self, "items", items)


Value = Union[Ref, IntVal, StrVal, ListVal]


class Call(Record):
    __slots__ = ("op", "args")

    def __init__(self, op: str, args: tuple[tuple[str, Value], ...]):
        setfield(self, "op", op)
        setfield(self, "args", args)


class Let(Record):
    __slots__ = ("name", "call", "line")

    def __init__(self, name: str, call: Call, line: int):
        setfield(self, "name", name)
        setfield(self, "call", call)
        setfield(self, "line", line)


class Check(Record):
    __slots__ = ("kind", "args", "line")

    def __init__(self, kind: str, args: tuple[Value, ...], line: int):
        setfield(self, "kind", kind)  # trivial | invariants | classify
        setfield(self, "args", args)
        setfield(self, "line", line)


Statement = Union[Let, Check]


class Script(Record):
    __slots__ = ("statements",)

    def __init__(self, statements: tuple[Statement, ...]):
        setfield(self, "statements", statements)


def _extend(out: list[int], codes: list[int]) -> list[int]:
    """Append letter codes to the freely reduced ``out``, cancelling as they go."""
    for c in codes:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return out


def _inverse(codes: list[int]) -> list[int]:
    return [c ^ 1 for c in reversed(codes)]


class _Parser:
    """Recursive descent over the tokens of one script or one word."""

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

    def skip(self, symbol: str, message: str) -> None:
        tok = self.next()
        if tok.kind != "SYM" or tok.value != symbol:
            raise ParseError(message, tok.line, tok.col)

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
            return Let(name_tok.value, Call(op.value, self.items(")", self.argument)), tok.line)
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
        for i, (_, param_kind) in enumerate(TABLE["check"][kind.value]):
            if i:
                self.expect("SYM", ",")
            if param_kind == "int":
                args.append(IntVal(_int(self.expect("INT", what="integer"))))
            else:
                args.append(Ref(self.expect("NAME", what="identifier").value))
        self.expect("SYM", ")")
        return Check(kind.value, tuple(args), line)

    def value(self) -> Value:
        tok = self.next()
        if tok.kind == "NAME":
            return Ref(tok.value)
        if tok.kind == "INT":
            return IntVal(_int(tok))
        if tok.kind == "STRING":
            return StrVal(tok.value)
        if tok.kind == "SYM" and tok.value == "[":
            return ListVal(self.items("]", self.value))
        raise ParseError(f"expected a value, found {tok.value!r}", tok.line, tok.col)

    def word(self, alphabet: Alphabet, stop: str = "") -> list[int]:
        """The freely reduced letter codes of factors up to ``stop`` or END."""
        out: list[int] = []
        while not (self.peek().kind == "END" or self.at(stop)):
            tok = self.peek()
            _extend(out, self.factor(alphabet))
            if len(out) > MAX_WORD_LETTERS:
                raise InputTooLarge(f"word longer than {MAX_WORD_LETTERS} letters", tok.line, tok.col)
        return out

    def factor(self, alphabet: Alphabet) -> list[int]:
        tok = self.next()
        if tok.kind == "NAME":
            if tok.value not in alphabet:
                raise ParseError(f"unknown generator {tok.value!r}", tok.line, tok.col)
            atom = [2 * alphabet.rank(tok.value)]
        elif tok.kind == "INT" and tok.value == "1":
            atom = []
        elif tok.kind == "SYM" and tok.value == "[":
            left = self.word(alphabet, ",")
            self.skip(",", "expected ',' in commutator")
            right = self.word(alphabet, "]")
            self.skip("]", "expected ']'")
            atom = _extend(list(left), right + _inverse(left) + _inverse(right))
        else:
            raise ParseError(f"unexpected {tok.value!r} in word", tok.line, tok.col)
        if not self.at("^"):
            return atom
        self.next()
        exp = self.next()
        if exp.kind != "INT":
            raise ParseError("expected integer exponent", exp.line, exp.col)
        k = _int(exp)
        if abs(k) * len(atom) > MAX_WORD_LETTERS:
            raise InputTooLarge(f"power longer than {MAX_WORD_LETTERS} letters", exp.line, exp.col)
        return _extend([], (atom if k >= 0 else _inverse(atom)) * abs(k))


def parse(text: str) -> Script:
    """Parse script text into an AST; raises :class:`ParseError`."""
    return _Parser(text).script()


def _print_value(v: Value) -> str:
    if isinstance(v, Ref):
        return v.name
    if isinstance(v, IntVal):
        return str(v.value)
    if isinstance(v, StrVal):
        if "\n" in v.text:  # a string stays on one line, and no escape spells a newline
            raise ValueError(f"string {v.text!r} holds a newline, which the script syntax cannot write")
        escaped = v.text.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return "[" + ", ".join(_print_value(i) for i in v.items) + "]"


def print_statement(stmt: Statement) -> str:
    if isinstance(stmt, Let):
        args = ", ".join(f"{k}={_print_value(v)}" for k, v in stmt.call.args)
        return f"let {stmt.name} = {stmt.call.op}({args})"
    args = ", ".join(_print_value(v) for v in stmt.args)
    return f"check {stmt.kind}({args})"


def print_script(script: Script) -> str:
    return "\n".join(print_statement(s) for s in script.statements) + (
        "\n" if script.statements else ""
    )


# -- word and presentation text formats ---------------------------------------

def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse the textual word syntax over a known alphabet."""
    return Word(alphabet, _Parser(text).word(alphabet))


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
# default]) parameters, and each check's positional (name, kind) parameters.
# A "group" is a presentation or a manifold state standing for its group.
# The lambdas look their functions up at call time, so that wrapping a module
# attribute (bench/tracing.py does) reaches scripts too.
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
    "check": {
        "trivial": (("target", "group"),),
        "invariants": (("target", "state"), ("e", "int"), ("sigma", "int")),
        "classify": (("target", "state"),),
    },
}
for _block in ("V", "W", "P1", "P2", "P", "X"):
    TABLE["let"][_block] = TABLE["let"][f"build_{_block}"] = (getattr(construction, f"build_{_block.lower()}"), ())


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


def _summary(value: object) -> tuple[str, dict]:
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
    if isinstance(value, Presentation):
        return (
            f"presentation: {value.ngens} generators, {value.nrels} relators",
            presentation_dict(value),
        )
    return repr(value), {}


def execute(script: Script, budgets: Budgets = Budgets()) -> Report:
    """Evaluate statements in order, all printed before the first runs and
    each bound against :data:`TABLE` before its operation or check runs.

    The first failed check (or runtime error) aborts execution; an
    inconclusive check downgrades the verdict but does not abort.  Each
    presentation's triviality is checked once per call: ``check classify``
    reuses the certificate of an earlier ``check trivial``.
    """
    texts = [print_statement(stmt) for stmt in script.statements]
    env: dict[str, object] = {}
    results: list[StatementResult] = []
    trivial: dict[Presentation, tuple] = {}

    def triviality(p: Presentation) -> tuple:
        if p not in trivial:
            trivial[p] = construction.check_trivial(p, homology_invariants(p), budgets.max_cosets)
        return trivial[p]

    def resolve(value: Value) -> object:
        if isinstance(value, Ref):
            if value.name not in env:
                raise ScriptRuntimeError(f"undefined identifier {value.name!r}")
            return env[value.name]
        if isinstance(value, IntVal):
            return value.value
        if isinstance(value, StrVal):
            return value.text
        return [resolve(item) for item in value.items]

    for index, (stmt, text) in enumerate(zip(script.statements, texts)):
        try:
            if isinstance(stmt, Let):
                if stmt.name in env:
                    raise ScriptRuntimeError(f"identifier {stmt.name!r} already bound")
                if stmt.call.op not in TABLE["let"]:
                    raise ScriptRuntimeError(f"unknown operation {stmt.call.op!r}")
                function, params = TABLE["let"][stmt.call.op]
                try:
                    result = function(*_bind(stmt.call.op, params, stmt.call.args, resolve))
                except (ManifoldError, PresentationError, WordError) as err:
                    raise ScriptRuntimeError(str(err)) from None
                env[stmt.name] = result
                results.append(StatementResult(index, text, "ok", *_summary(result)))
                continue
            params = TABLE["check"].get(stmt.kind)
            if params is None:
                raise ScriptRuntimeError(f"unknown check {stmt.kind!r}")
            if len(stmt.args) != len(params):
                raise ScriptRuntimeError(f"check {stmt.kind} takes {len(params)} argument(s), got {len(stmt.args)}")
            target, *numbers = _bind(stmt.kind, params, zip([p[0] for p in params], stmt.args), resolve)
            if stmt.kind == "trivial":
                status, detail, data, _ = triviality(target)
            elif stmt.kind == "invariants":
                status, detail, data = construction.check_invariants(target, *numbers)
            else:
                status, detail, data, _ = construction.check_classify(target, triviality(target.pi1))
            results.append(StatementResult(index, text, status, detail, data))
            if status == "fail":
                break
        except ScriptRuntimeError as err:
            results.append(StatementResult(index, text, "error", str(err)))
            break
        except InputTooLarge as err:
            raise InputTooLarge(f"in a word: {err}", stmt.line, 1) from None
    return Report(tuple(results), verdict_of(results), {"max_cosets": budgets.max_cosets})
