"""Bases of the value types: slotted classes whose public slots are their
fields, compared, printed and pickled field by field.

A slot whose name starts with an underscore is private state that equality,
hashing and ``repr`` ignore.  Each class's ``__init__`` sets its fields with
``_init``, or, where construction is hot, with the slots' own ``__set__``, as
a :class:`FrozenRecord` refuses ``setattr``; pickling and copying rebuild an
instance through the constructor for the same reason.
"""

from __future__ import annotations


class Record:
    """A slotted class whose public slots are its fields, in order."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None  # mutable: equal records may not stay equal

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(
            name for name in cls.__slots__ if not name.startswith("_"))

    def _init(self, *values: object) -> None:
        """Set the fields, in order, to ``values``."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class FrozenRecord(Record):
    """A record whose attributes cannot be set or deleted after construction."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
