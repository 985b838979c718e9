"""Every frozen record keeps a dataclass's contract: repr, equality, hashing,
refused assignment and ``replace``; ``Record.__init__`` binds the fields that
``__slots__`` declares, and a record's own ``__init__`` does more than bind."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import sgcalc
from sgcalc.construction import KILL_SCRIPT, assemble_v, complement_data, verify_main_theorem
from sgcalc.records import Record
from sgcalc.script import Budgets, Ref, Script, execute, parse
from sgcalc.tietze import CyclicReduce, RemoveDuplicate, RemoveTrivial
from sgcalc.words import Alphabet

MODULES = [
    importlib.import_module(f"sgcalc.{m.name}") for m in pkgutil.iter_modules(sgcalc.__path__) if m.name != "__main__"
]
RECORDS = sorted(
    {c for m in MODULES for c in vars(m).values() if isinstance(c, type) and issubclass(c, Record) and c is not Record},
    key=lambda c: c.__qualname__,
)


def _records_in(value, out: dict) -> None:
    if isinstance(value, Record):
        out.setdefault(type(value), value)
        value = [getattr(value, name) for name in _fields(type(value))]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            _records_in(item, out)


def _fields(cls) -> list[str]:
    """The field names: ``_fields`` where ``Record.__init__`` binds them, else the record's own signature."""
    if cls.__init__ is Record.__init__:
        return list(cls._fields)
    return list(inspect.signature(cls.__init__).parameters)[1:]


@pytest.fixture(scope="module")
def samples() -> dict:
    x = Alphabet(("x",)).gen("x")
    roots = [
        verify_main_theorem(),
        execute(parse("let v = build_V()\ncheck invariants(v, 0, 0)")),
        parse('let v = V(a=x, n=-1, s="t", l=[1, "u"])\ncheck invariants(v, 0, 0)'),
        assemble_v(),
        complement_data(),
        KILL_SCRIPT,
        Budgets(),
        RemoveTrivial(0),
        CyclicReduce(0, x),
    ]
    out: dict = {}
    _records_in(roots, out)
    return out


def test_every_record_class_has_a_sample(samples):
    assert len(RECORDS) == 27
    assert [c.__qualname__ for c in RECORDS if c not in samples] == []


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_record_contract(cls, samples):
    r = samples[cls]
    names = _fields(cls)
    # a record's own __init__ takes the fields in slot order: a permuted signature would swap them
    assert names == list(cls._fields)
    assert cls._fields == tuple(n for c in reversed(cls.__mro__) for n in vars(c).get("__slots__", ()))
    kwargs = {n: getattr(r, n) for n in names}

    # repr keeps the dataclass shape
    assert repr(r) == f"{cls.__qualname__}({', '.join(f'{n}={v!r}' for n, v in kwargs.items())})"

    # equal fields give equal values and equal hashes
    twin = cls(**kwargs)
    assert twin == r and not twin != r and twin is not r
    assert cls(*kwargs.values()) == r
    try:
        assert hash(twin) == hash(r)
    except TypeError:  # a dict field makes a record unhashable, as it made a dataclass
        assert any(isinstance(v, dict) for v in kwargs.values())

    # a different type with the same fields is unequal, and so is a tuple of them
    clone = type(cls.__name__, (cls,), {"__slots__": ()})
    assert clone(**kwargs) != r and r != clone(**kwargs)
    assert r != tuple(kwargs.values())

    # fields can be neither assigned nor deleted, and no attribute can be added
    for n in names:
        with pytest.raises(AttributeError):
            setattr(r, n, kwargs[n])
        with pytest.raises(AttributeError):
            delattr(r, n)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert {n: getattr(r, n) for n in names} == kwargs

    # replace changes exactly the named field and checks the new value as __init__ does
    assert r.replace() == r and r.replace() is not r
    with pytest.raises(TypeError):
        r.replace(no_such_field=1)
    replaced = 0
    for n in names:
        marker = object()
        try:
            changed = r.replace(**{n: marker})
        except (TypeError, ValueError, AttributeError):  # refused by the record's own checks
            continue
        replaced += 1
        assert type(changed) is cls and getattr(changed, n) is marker
        assert all(getattr(changed, m) is kwargs[m] for m in names if m != n)
    # Budgets checks its only field, so it refuses every marker; tests/test_script.py
    # checks that its replace runs that check
    assert replaced > 0 or cls is Budgets


def test_same_fields_in_different_record_types_are_unequal():
    assert Ref("x") != Script("x")
    assert RemoveTrivial(3) != Budgets(3)


def test_no_record_writes_an_init_that_only_binds_its_fields():
    """Each ``__init__`` of a record checks, converts or defaults a field; one
    that passes its parameters on unchanged is ``Record.__init__`` written out."""
    names = {c.__name__ for c in RECORDS}
    binders = {"super().__init__", "setfield", "setfields", "_setfield", "object.__setattr__"}
    only_binding = []
    for path in sorted(Path(sgcalc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ClassDef) and node.name in names):
                continue
            for init in node.body:
                if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                    continue
                params = {a.arg for a in init.args.args}
                calls = [s.value for s in init.body if isinstance(s, ast.Expr) and isinstance(s.value, ast.Call)]
                if (len(calls) == len(init.body) and not init.args.defaults
                        and all(ast.unparse(c.func) in binders for c in calls)
                        and all(isinstance(a, ast.Name) and a.id in params or isinstance(a, ast.Constant)
                                for c in calls for a in c.args)):
                    only_binding.append(f"{path.name}:{node.name}")
    assert only_binding == []


def test_the_constructor_binds_by_position_then_by_name():
    assert RemoveDuplicate(3, kept_index=1) == RemoveDuplicate(3, 1) == RemoveDuplicate(kept_index=1, relator_index=3)
    step = RemoveDuplicate(kept_index=1, relator_index=3)
    assert (step.relator_index, step.kept_index) == (3, 1)


@pytest.mark.parametrize("args, kwargs, message", [
    ((3, 1, 4), {}, "RemoveDuplicate takes 2 fields but 3 values were given"),
    ((3,), {}, "RemoveDuplicate is missing field 'kept_index'"),
    ((), {"kept_index": 1}, "RemoveDuplicate is missing field 'relator_index'"),
    ((3, 1), {"no_such_field": 0}, "RemoveDuplicate has no field 'no_such_field'"),
    ((3,), {"kept_index": 1, "relator_index": 3}, "RemoveDuplicate got two values for field 'relator_index'"),
], ids=["too-many", "missing-last", "missing-first", "unknown", "twice"])
def test_the_constructor_refuses_what_a_dataclass_refuses(args, kwargs, message):
    with pytest.raises(TypeError) as info:
        RemoveDuplicate(*args, **kwargs)
    assert str(info.value) == message


def test_replace_refuses_an_unknown_field_and_binds_the_rest_by_position():
    step = RemoveDuplicate(3, 1)
    with pytest.raises(TypeError) as info:
        step.replace(kept_index=2, no_such_field=0)
    assert str(info.value) == "RemoveDuplicate has no field 'no_such_field'"
    assert step.replace(kept_index=2) == RemoveDuplicate(3, 2)
    state = assemble_v().state  # a record with its own __init__, which takes the fields in order
    with pytest.raises(TypeError, match="ManifoldState has no field 'nme'"):
        state.replace(nme="V2")
    renamed = state.replace(name="V2", euler=1)
    assert (renamed.name, renamed.euler, renamed.pi1) == ("V2", 1, state.pi1)
