"""Frozen records: ``__slots__`` classes with a dataclass's ``repr``, equality
and hashing by field values within one type, refused assignment and ``replace``.

A record's ``__slots__`` are its field list, inherited fields first, and
``Record.__init__`` binds them: positional values in slot order, the rest by
name, refusing what a dataclass's ``__init__`` refuses.  A record writes its
own ``__init__`` only to check, convert or default a field, takes the fields
in slot order (``replace`` passes them by position), and binds through
``super().__init__``.  Unlike a dataclass, such a class costs nothing to
create at start-up.

:func:`shown` is how an error message echoes a piece of input.  It lives here
because every command loads this module, while ``script``, which also uses
it, is never loaded by ``verify-paper``.
"""

from __future__ import annotations

from typing import TypeVar

R = TypeVar("R", bound="Record")


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()  # every field, inherited ones first
    _setters: tuple = ()  # each field's slot setter, past Record.__setattr__

    def __init_subclass__(cls) -> None:
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values: object, **named: object) -> None:
        fields = self._fields
        if named or len(values) != len(fields):  # else every field is given, in order
            where = type(self).__qualname__
            if len(values) > len(fields):
                raise TypeError(f"{where} takes {len(fields)} fields but {len(values)} values were given")
            try:
                values += tuple([named.pop(name) for name in fields[len(values):]])
            except KeyError as missing:
                raise TypeError(f"{where} is missing field {missing}") from None
            for name in named:  # each left is a field given by position too, or no field
                problem = "got two values for field" if name in fields else "has no field"
                raise TypeError(f"{where} {problem} {name!r}")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self: R, **changes: object) -> R:
        """A copy with the named fields changed, built and checked by ``__init__``, which
        takes every field by position: a record's own ``__init__`` lists them in field order."""
        values = [changes.pop(name) if name in changes else getattr(self, name) for name in self._fields]
        if changes:
            raise TypeError(f"{type(self).__qualname__} has no field {next(iter(changes))!r}")
        return type(self)(*values)


def shown(text: str, value: object = None) -> str:
    """``text`` as an error message echoes it: ``value`` (``repr(text)`` by
    default), or its length when it is over 40 characters, so that bad input
    of any size gives a short message."""
    if len(text) > 40:
        return f"({len(text)} characters)"
    return repr(text) if value is None else str(value)
