"""The script front end: exact error positions, token rules and round trips."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcalc.cli import main
from sgcalc.script import (
    Call,
    Check,
    InputTooLarge,
    IntVal,
    Let,
    ListVal,
    ParseError,
    Ref,
    Script,
    StrVal,
    _tokenize,
    parse,
    parse_presentation_document,
    parse_word,
    print_script,
)
from sgcalc.words import Alphabet, _valid_name

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
XY = Alphabet(("x", "y"))


def _error(parser, text: str) -> ParseError:
    with pytest.raises(ParseError) as info:
        parser(text)
    return info.value


# -- exact messages and positions -------------------------------------------------

@pytest.mark.parametrize(
    "text, message",
    [
        ("let = foo(", "line 1, column 5: expected identifier after 'let', found '='"),
        ("check trivial(x # c", "line 1, column 17: expected ), found 'end of input'"),
        ("let v = V(a=[1,])", "line 1, column 16: expected a value, found ']'"),
        ("let v = V(a=1,)", "line 1, column 15: expected argument keyword, found ')'"),
        ("\tcheck invariants(v, 0 0)", "line 1, column 24: expected ,, found '0'"),
        ("let v = V(a=@)", "line 1, column 13: unexpected character '@'"),
    ],
)
def test_script_error_messages(text, message):
    assert str(_error(parse, text)) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("[x", "line 1, column 3: expected ',' in commutator"),
        ("[x, y", "line 1, column 6: expected ']'"),
        ("x^y", "line 1, column 3: expected integer exponent"),
        ("x -1", "line 1, column 3: unexpected '-1' in word"),
        ("z", "line 1, column 1: unknown generator 'z'"),
        ("[x y]", "line 1, column 5: unexpected ']' in word"),
    ],
)
def test_word_error_messages(text, message):
    assert str(_error(lambda t: parse_word(t, XY), text)) == message


def test_document_error_message():
    err = _error(parse_presentation_document, "generators: x\nrelator: [x")
    assert str(err) == "line 2, column 12: in relator: expected ',' in commutator"


def test_document_relator_error_is_placed_in_its_line():
    err = _error(parse_presentation_document, "generators: x y\nrelator:   x y [x")
    assert str(err) == "line 2, column 18: in relator: expected ',' in commutator"
    err = _error(parse_presentation_document, "generators: x\n  relator :  x^99999999 # c")
    assert isinstance(err, InputTooLarge)
    assert str(err) == "line 2, column 16: in relator: power longer than 100000 letters"


@pytest.mark.parametrize(
    "brk", ["\x0c", "\x1c", "\x85", "\u2028"], ids=["FF", "FS", "NEL", "LS"]
)
def test_document_lines_break_only_at_newline(brk):
    err = _error(parse_presentation_document, f"generators: x{brk}relator: y")
    assert err.line == 1


# -- digits and strings ----------------------------------------------------------

@pytest.mark.parametrize("text, col", [("x^²", 3), ("x^3²", 4)])
def test_non_decimal_digit_is_an_unexpected_character(text, col):
    err = _error(lambda t: parse_word(t, XY), text)
    assert not isinstance(err, InputTooLarge)
    assert str(err) == f"line 1, column {col}: unexpected character '²'"


def test_decimal_digits_beyond_ascii_still_parse():
    assert parse_word("x^٣", XY) == XY.gen("x", 3)
    (stmt,) = parse("check invariants(v, ٣, -٣)").statements
    assert stmt.args[1:] == (IntVal(3), IntVal(-3))


def test_cli_non_decimal_digit_exit_64(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text("generators: x\nrelator: x^²\n")
    assert main(["simplify", str(doc)]) == 64
    assert "unexpected character '²'" in capsys.readouterr().err
    path = tmp_path / "digit.sgc"
    path.write_text("let v = build_V()\ncheck invariants(v, ², 0)\n")
    assert main(["run", str(path)]) == 64
    assert "line 2, column 21: unexpected character '²'" in capsys.readouterr().err


def test_escaped_newline_leaves_a_string_unterminated():
    err = _error(parse, 'let v = V(a="x\\\ny")\nlet')
    assert str(err) == "line 1, column 13: unterminated string"


def test_cli_reports_the_line_of_a_string_with_an_escaped_newline(tmp_path, capsys):
    path = tmp_path / "escape.sgc"
    path.write_text('# a string may not span lines\nlet v = V(a="x\\\ny")\nlet\n')
    assert main(["run", str(path)]) == 64
    assert "line 2, column 13: unterminated string" in capsys.readouterr().err


# -- properties --------------------------------------------------------------------

EDGE_CHARS = st.sampled_from(list('xy_é1٣²½#"\\ \t\r\n-=()[],^\xa0'))


@PROPERTY
@given(st.text(st.one_of(st.characters(), EDGE_CHARS), max_size=4))
def test_a_name_token_follows_the_generator_name_rule(name):
    try:
        tokens = [(t.kind, t.value) for t in _tokenize(name)]
    except ParseError:
        tokens = []
    assert (tokens == [("NAME", name), ("END", "")]) == _valid_name(name)


names = st.builds(
    lambda head, tail: head + tail,
    st.one_of(st.characters(categories=["L"]), st.just("_")),
    st.text(st.one_of(st.characters(categories=["L", "Nd"]), st.just("_")), max_size=4),
)
# Strings may hold "\n", which no script can write: printing such a script raises.
values = st.recursive(
    st.one_of(
        names.map(Ref),
        st.integers().map(IntVal),
        st.text(st.one_of(st.characters(), st.sampled_from('"\\\n')), max_size=8).map(StrVal),
    ),
    lambda inner: st.lists(inner, max_size=3).map(lambda items: ListVal(tuple(items))),
    max_leaves=6,
)
lets = st.builds(
    lambda name, op, args: Let(name, Call(op, tuple(args)), 0),
    names.filter(lambda n: n not in ("let", "check")),
    names,
    st.lists(st.tuples(names, values), max_size=3),
)
checks = st.one_of(
    st.builds(lambda kind, ref: Check(kind, (Ref(ref),), 0), st.sampled_from(["trivial", "classify"]), names),
    st.builds(
        lambda ref, e, s: Check("invariants", (Ref(ref), IntVal(e), IntVal(s)), 0),
        names,
        st.integers(),
        st.integers(),
    ),
)


@PROPERTY
@given(st.lists(st.one_of(lets, checks), max_size=4))
def test_print_parse_round_trip_of_random_scripts(statements):
    script = Script(tuple(s.replace(line=i) for i, s in enumerate(statements, start=1)))
    values = [v for s in script.statements for v in (s.args if isinstance(s, Check) else [a for _, a in s.call.args])]
    unprintable = [t for t in _texts(values) if "\n" in t]
    if unprintable:
        with pytest.raises(ValueError, match="holds a newline") as info:
            print_script(script)
        assert repr(unprintable[0]) in str(info.value)
    else:
        assert parse(print_script(script)) == script


def _texts(values):
    for v in values:
        if isinstance(v, StrVal):
            yield v.text
        elif isinstance(v, ListVal):
            yield from _texts(v.items)


@PROPERTY
@given(st.text(st.one_of(st.characters(), EDGE_CHARS), max_size=30))
def test_parsers_raise_only_parse_errors(text):
    for parser in (
        parse,
        lambda t: parse_word(t, XY),
        parse_presentation_document,
        lambda t: parse_presentation_document("generators: x y\nrelator: " + t),
    ):
        try:
            parser(text)
        except ParseError:
            pass
