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

``#`` starts a comment.  Quoted strings hold words in the textual word
syntax: space-separated generators with ``^`` exponents and ``[u, v]``
commutator brackets, e.g. ``"[b^-1, y^-1]"`` or ``"b a b^-1"``; ``1`` is the
identity.  Checks run with the abelianization short-circuit: a nonzero H1
refutes triviality without touching the enumerator, and an exhausted coset
budget is inconclusive, never a pass or a fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from . import construction
from .construction import StatementResult, VerdictReport, presentation_dict, verdict_of
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
from .words import Alphabet, Word, WordError, commutator


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class ScriptRuntimeError(RuntimeError):
    pass


# -- lexer --------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # NAME INT STRING SYM END
    value: str
    line: int
    col: int


_SYMBOLS = "=(),[]^"


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError("unterminated string", line, start_col)
                if text[j] == "\\" and j + 1 < n:
                    out.append(text[j + 1])
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string", line, start_col)
            tokens.append(Token("STRING", "".join(out), line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if c in _SYMBOLS:
            tokens.append(Token("SYM", c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, start_col)
    tokens.append(Token("END", "", line, col))
    return tokens


# -- AST ----------------------------------------------------------------------

@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class IntVal:
    value: int


@dataclass(frozen=True)
class StrVal:
    text: str


@dataclass(frozen=True)
class ListVal:
    items: tuple["Value", ...]


Value = Union[Ref, IntVal, StrVal, ListVal]


@dataclass(frozen=True)
class Call:
    op: str
    args: tuple[tuple[str, Value], ...]


@dataclass(frozen=True)
class Let:
    name: str
    call: Call
    line: int


@dataclass(frozen=True)
class Check:
    kind: str  # trivial | invariants | classify
    args: tuple[Value, ...]
    line: int


Statement = Union[Let, Check]


@dataclass(frozen=True)
class Script:
    statements: tuple[Statement, ...]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, value: str | None = None, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            expected = what or (value if value is not None else kind.lower())
            shown = tok.value or "end of input"
            raise ParseError(f"expected {expected}, found {shown!r}", tok.line, tok.col)
        return self.next()

    def parse_script(self) -> Script:
        statements: list[Statement] = []
        while self.peek().kind != "END":
            statements.append(self.parse_statement())
        return Script(tuple(statements))

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok.kind == "NAME" and tok.value == "let":
            self.next()
            name_tok = self.expect("NAME", what="identifier after 'let'")
            if name_tok.value in ("let", "check"):
                raise ParseError(
                    f"{name_tok.value!r} is a keyword", name_tok.line, name_tok.col
                )
            self.expect("SYM", "=")
            call = self.parse_call()
            return Let(name_tok.value, call, tok.line)
        if tok.kind == "NAME" and tok.value == "check":
            self.next()
            return self.parse_check(tok.line)
        raise ParseError(f"expected 'let' or 'check', found {tok.value!r}", tok.line, tok.col)

    def parse_call(self) -> Call:
        name = self.expect("NAME", what="operation name")
        self.expect("SYM", "(")
        args: list[tuple[str, Value]] = []
        if not (self.peek().kind == "SYM" and self.peek().value == ")"):
            while True:
                key = self.expect("NAME", what="argument keyword")
                self.expect("SYM", "=")
                args.append((key.value, self.parse_value()))
                tok = self.peek()
                if tok.kind == "SYM" and tok.value == ",":
                    self.next()
                    continue
                break
        self.expect("SYM", ")")
        return Call(name.value, tuple(args))

    def parse_check(self, line: int) -> Check:
        kind = self.expect("NAME", what="check kind")
        if kind.value not in ("trivial", "invariants", "classify"):
            raise ParseError(f"unknown check {kind.value!r}", kind.line, kind.col)
        self.expect("SYM", "(")
        args: list[Value] = [Ref(self.expect("NAME", what="identifier").value)]
        if kind.value == "invariants":
            for _ in range(2):
                self.expect("SYM", ",")
                tok = self.expect("INT", what="integer")
                args.append(IntVal(int(tok.value)))
        self.expect("SYM", ")")
        return Check(kind.value, tuple(args), line)

    def parse_value(self) -> Value:
        tok = self.peek()
        if tok.kind == "NAME":
            self.next()
            return Ref(tok.value)
        if tok.kind == "INT":
            self.next()
            return IntVal(int(tok.value))
        if tok.kind == "STRING":
            self.next()
            return StrVal(tok.value)
        if tok.kind == "SYM" and tok.value == "[":
            self.next()
            items = []
            if not (self.peek().kind == "SYM" and self.peek().value == "]"):
                while True:
                    items.append(self.parse_value())
                    if self.peek().kind == "SYM" and self.peek().value == ",":
                        self.next()
                        continue
                    break
            self.expect("SYM", "]")
            return ListVal(tuple(items))
        raise ParseError(f"expected a value, found {tok.value!r}", tok.line, tok.col)


def parse(text: str) -> Script:
    """Parse script text into an AST; raises :class:`ParseError`."""
    return _Parser(_tokenize(text)).parse_script()


def _print_value(v: Value) -> str:
    if isinstance(v, Ref):
        return v.name
    if isinstance(v, IntVal):
        return str(v.value)
    if isinstance(v, StrVal):
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
    tokens = _tokenize(text)
    pos = 0

    def peek() -> Token:
        return tokens[pos]

    def advance() -> Token:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_sequence(stop: set[str]) -> Word:
        out = alphabet.identity()
        while True:
            tok = peek()
            if tok.kind == "END" or (tok.kind == "SYM" and tok.value in stop):
                return out
            out = out * parse_factor()

    def parse_factor() -> Word:
        tok = advance()
        if tok.kind == "NAME":
            if tok.value not in alphabet:
                raise ParseError(f"unknown generator {tok.value!r}", tok.line, tok.col)
            atom = alphabet.gen(tok.value)
        elif tok.kind == "INT" and tok.value == "1":
            atom = alphabet.identity()
        elif tok.kind == "SYM" and tok.value == "[":
            left = parse_sequence({","})
            comma = advance()
            if comma.kind != "SYM" or comma.value != ",":
                raise ParseError("expected ',' in commutator", comma.line, comma.col)
            right = parse_sequence({"]"})
            closing = advance()
            if closing.kind != "SYM" or closing.value != "]":
                raise ParseError("expected ']'", closing.line, closing.col)
            atom = commutator(left, right)
        else:
            raise ParseError(f"unexpected {tok.value!r} in word", tok.line, tok.col)
        if peek().kind == "SYM" and peek().value == "^":
            advance()
            exp = advance()
            if exp.kind != "INT":
                raise ParseError("expected integer exponent", exp.line, exp.col)
            return atom ** int(exp.value)
        return atom

    word = parse_sequence(set())
    tok = peek()
    if tok.kind != "END":
        raise ParseError(f"trailing {tok.value!r} in word", tok.line, tok.col)
    return word


def parse_presentation_document(text: str) -> Presentation:
    """Parse the presentation document format.

    One ``generators:`` line (space-separated names, possibly none), any
    number of ``relator:`` lines in the textual word syntax, and an optional
    ``exactness:`` line (``exact`` or ``surjective-bound``).
    """
    alphabet: Alphabet | None = None
    relator_texts: list[tuple[str, int]] = []
    exactness = Exactness.EXACT
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key == "generators":
            if alphabet is not None:
                raise ParseError("duplicate generators line", lineno, 1)
            try:
                alphabet = Alphabet(rest.split())
            except WordError as err:
                raise ParseError(str(err), lineno, 1) from None
        elif key == "relator":
            relator_texts.append((rest, lineno))
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
    for rel_text, lineno in relator_texts:
        try:
            relators.append(parse_word(rel_text, alphabet))
        except ParseError as err:
            raise ParseError(f"in relator: {err}", lineno, 1) from None
    return Presentation(alphabet, tuple(relators), exactness)


def format_presentation_document(p: Presentation) -> str:
    lines = ["generators: " + " ".join(p.alphabet.names)]
    lines += [f"relator: {r}" for r in p.relators]
    lines.append(f"exactness: {p.exactness.value}")
    return "\n".join(lines) + "\n"


# -- execution ----------------------------------------------------------------

@dataclass(frozen=True)
class Budgets:
    max_cosets: int = 100_000


@dataclass(frozen=True)
class Report(VerdictReport):
    statements: tuple[StatementResult, ...]
    verdict: str  # PASS | FAIL | INCONCLUSIVE
    budgets: Budgets

    def to_dict(self) -> dict:
        return {
            "budgets": {"max_cosets": self.budgets.max_cosets},
            "statements": [s.to_dict() for s in self.statements],
            "verdict": self.verdict,
        }

    def to_text(self, trace: bool = False) -> str:
        lines = [line for s in self.statements for line in s.lines(trace)]
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


def _want_state(value: object, what: str) -> ManifoldState:
    if not isinstance(value, ManifoldState):
        raise ScriptRuntimeError(f"{what} must be a manifold state")
    return value


def _want_presentation(value: object) -> Presentation:
    if isinstance(value, ManifoldState):
        return value.pi1
    if isinstance(value, Presentation):
        return value
    raise ScriptRuntimeError("expected a manifold state or a presentation")


def _want_int(value: object, what: str) -> int:
    if not isinstance(value, int):
        raise ScriptRuntimeError(f"{what} must be an integer")
    return value


def _want_str(value: object, what: str) -> str:
    if not isinstance(value, str):
        raise ScriptRuntimeError(f"{what} must be a string")
    return value


def _want_list(value: object, what: str) -> list:
    if not isinstance(value, list):
        raise ScriptRuntimeError(f"{what} must be a list")
    return value


def _resolve_pairing(state_a: ManifoldState, surf_a: str, state_b: ManifoldState, surf_b: str, items: list) -> tuple[tuple[int, int], ...]:
    mark_a, mark_b = state_a.surface(surf_a), state_b.surface(surf_b)
    pairs = []
    for item in items:
        text = _want_str(item, "pairing entry")
        left, sep, right = text.partition(":")
        if not sep:
            raise ScriptRuntimeError(f"pairing entry {text!r} is not 'left:right'")

        def index_of(mark, label):
            for i, w in enumerate(mark.boundary_generators):
                if str(w) == label.strip():
                    return i
            raise ScriptRuntimeError(
                f"surface {mark.id!r} has no boundary generator {label.strip()!r}"
            )

        pairs.append((index_of(mark_a, left), index_of(mark_b, right)))
    return tuple(pairs)


def _relators(items: object, alphabet: Alphabet) -> tuple[Word, ...]:
    try:
        return tuple(
            parse_word(_want_str(text, "relator"), alphabet) for text in _want_list(items, "relators")
        )
    except ParseError as err:
        raise ScriptRuntimeError(f"bad relator: {err}") from None


def _op_presentation(args: dict) -> Presentation:
    gens = [_want_str(g, "generator") for g in _want_list(args.pop("generators"), "generators")]
    try:
        alphabet = Alphabet(gens)
    except WordError as err:
        raise ScriptRuntimeError(str(err)) from None
    relators = _relators(args.pop("relators", []), alphabet)
    exactness = Exactness(_want_str(args.pop("exactness", "exact"), "exactness"))
    return Presentation(alphabet, relators, exactness)


def _op_quotient(args: dict) -> Presentation:
    p = _want_presentation(args.pop("p"))
    return quotient_by(p, _relators(args.pop("relators"), p.alphabet))


def _op_luttinger(args: dict) -> ManifoldState:
    return _luttinger(
        _want_state(args.pop("s"), "s"),
        _want_str(args.pop("torus"), "torus"),
        _want_int(args.pop("p"), "p"),
        _want_int(args.pop("q"), "q"),
        _want_int(args.pop("k"), "k"),
    )


def _op_blow_up(args: dict) -> ManifoldState:
    state = _want_state(args.pop("s"), "s")
    count = _want_int(args.pop("count", 1), "count")
    on = args.pop("on", None)
    return blow_up(state, None if on is None else _want_str(on, "on"), count)


def _op_resolve(args: dict) -> ManifoldState:
    state = _want_state(args.pop("s"), "s")
    a = _want_str(args.pop("a"), "a")
    b = _want_str(args.pop("b"), "b")
    new_id = args.pop("id", None)
    return _resolve(state, a, b, None if new_id is None else _want_str(new_id, "id"))


def _op_symplectic_sum(args: dict) -> ManifoldState:
    a = _want_state(args.pop("a"), "a")
    b = _want_state(args.pop("b"), "b")
    surf_a = _want_str(args.pop("surf_a"), "surf_a")
    surf_b = _want_str(args.pop("surf_b"), "surf_b")
    pairing = _resolve_pairing(a, surf_a, b, surf_b, _want_list(args.pop("pairing"), "pairing"))
    return _sum(a, surf_a, b, surf_b, pairing)


_BUILDERS: dict[str, Callable[[], ManifoldState]] = {
    "V": construction.build_v,
    "W": construction.build_w,
    "P1": construction.build_p1,
    "P2": construction.build_p2,
    "P": construction.build_p,
    "X": construction.build_x,
}

_OPS: dict[str, Callable[[dict], object]] = {
    "presentation": _op_presentation,
    "quotient": _op_quotient,
    "luttinger": _op_luttinger,
    "blow_up": _op_blow_up,
    "resolve_intersection": _op_resolve,
    "symplectic_sum": _op_symplectic_sum,
}
for _name, _builder in _BUILDERS.items():
    _OPS[_name] = _OPS[f"build_{_name}"] = lambda args, _b=_builder: _b()


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
    """Evaluate statements in order.

    The first failed check (or runtime error) aborts execution; an
    inconclusive check downgrades the verdict but does not abort.  Each
    presentation's triviality is checked once per call: ``check classify``
    reuses the certificate of an earlier ``check trivial``.
    """
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

    for index, stmt in enumerate(script.statements):
        text = print_statement(stmt)
        try:
            if isinstance(stmt, Let):
                if stmt.name in env:
                    raise ScriptRuntimeError(f"identifier {stmt.name!r} already bound")
                if stmt.call.op not in _OPS:
                    raise ScriptRuntimeError(f"unknown operation {stmt.call.op!r}")
                seen = set()
                args = {}
                for key, value in stmt.call.args:
                    if key in seen:
                        raise ScriptRuntimeError(f"duplicate argument {key!r}")
                    seen.add(key)
                    args[key] = resolve(value)
                try:
                    result = _OPS[stmt.call.op](args)
                except (ManifoldError, PresentationError, WordError, KeyError, TypeError) as err:
                    if isinstance(err, KeyError):
                        raise ScriptRuntimeError(f"missing argument {err.args[0]!r}") from None
                    raise ScriptRuntimeError(str(err)) from None
                if args:
                    raise ScriptRuntimeError(
                        f"unexpected arguments: {', '.join(sorted(args))}"
                    )
                env[stmt.name] = result
                detail, data = _summary(result)
                results.append(StatementResult(index, text, "ok", detail, data))
            else:
                target = resolve(stmt.args[0])
                if stmt.kind == "trivial":
                    status, detail, data, _ = triviality(_want_presentation(target))
                elif stmt.kind == "invariants":
                    state = _want_state(target, "invariants target")
                    e = _want_int(resolve(stmt.args[1]), "e")
                    sig = _want_int(resolve(stmt.args[2]), "sigma")
                    status, detail, data = construction.check_invariants(state, e, sig)
                elif stmt.kind == "classify":
                    state = _want_state(target, "classify target")
                    status, detail, data, _ = construction.check_classify(
                        state, triviality(state.pi1)
                    )
                else:  # pragma: no cover - parser rejects
                    raise ScriptRuntimeError(f"unknown check {stmt.kind!r}")
                results.append(StatementResult(index, text, status, detail, data))
                if status == "fail":
                    break
        except ScriptRuntimeError as err:
            results.append(StatementResult(index, text, "error", str(err)))
            break
    return Report(tuple(results), verdict_of(results), budgets)
