"""Every frozen record keeps a dataclass's contract: repr, equality, hashing,
refused assignment and ``replace``."""

import importlib
import inspect
import pkgutil

import pytest

import sgcalc
from sgcalc.construction import KILL_SCRIPT, assemble_v, complement_data, verify_main_theorem
from sgcalc.presentations import prune_redundant
from sgcalc.records import Record
from sgcalc.script import Budgets, IntVal, Ref, StrVal, execute, parse
from sgcalc.tietze import CyclicReduce, RemoveTrivial
from sgcalc.words import Alphabet, commutator

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
    """The field names, read off ``__init__``'s signature."""
    return list(inspect.signature(cls.__init__).parameters)[1:]


@pytest.fixture(scope="module")
def samples() -> dict:
    xy = Alphabet(("x", "y"))
    x, y = xy.gen("x"), xy.gen("y")
    roots = [
        verify_main_theorem(),
        execute(parse("let v = build_V()\ncheck invariants(v, 0, 0)")),
        parse('let v = V(a=x, n=-1, s="t", l=[1, "u"])\ncheck invariants(v, 0, 0)'),
        assemble_v(),
        complement_data(),
        KILL_SCRIPT,
        prune_redundant(xy, [commutator(x, y), commutator(y, x)])[1],
        Budgets(),
        RemoveTrivial(0),
        CyclicReduce(0, x),
    ]
    out: dict = {}
    _records_in(roots, out)
    return out


def test_every_record_class_has_a_sample(samples):
    assert len(RECORDS) == 32
    assert [c.__qualname__ for c in RECORDS if c not in samples] == []


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_record_contract(cls, samples):
    r = samples[cls]
    names = _fields(cls)
    assert sorted(names) == sorted(n for c in cls.__mro__ for n in vars(c).get("__slots__", ()))
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
    assert replaced > 0


def test_same_fields_in_different_record_types_are_unequal():
    assert Ref("x") != StrVal("x")
    assert RemoveTrivial(3) != IntVal(3)
