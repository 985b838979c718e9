"""Frozen records: ``__slots__`` classes with a dataclass's ``repr``, equality
and hashing by field values within one type, refused assignment and ``replace``.

A record sets its fields in ``__init__``: one by one with :data:`setfield`
where records are built in bulk, else with :func:`setfields`.  Unlike a
dataclass, such a class costs nothing to create at start-up.
"""

from __future__ import annotations

from typing import TypeVar

setfield = object.__setattr__  # sets one field past Record.__setattr__

R = TypeVar("R", bound="Record")


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()  # every field, inherited ones first

    def __init_subclass__(cls) -> None:
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

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
        """A copy with the named fields changed, built and checked by ``__init__``."""
        return type(self)(**{name: changes.pop(name, getattr(self, name)) for name in self._fields}, **changes)


def setfields(record: Record, *values: object) -> None:
    """Set every field of a record under construction, in field order."""
    for name, value in zip(record._fields, values, strict=True):
        setfield(record, name, value)
