"""Base classes of the package's small value types.

They give what `dataclasses` would, without importing it: `dataclasses`
pulls in `inspect`, `ast` and `dis`, several milliseconds of every process
start-up.  A subclass names its fields in `__slots__`, in order, and writes
its own `__init__`.
"""

from __future__ import annotations


class Record:
    """`==` compares the fields of two instances of one class; `repr` lists
    the fields as keyword arguments.  Instances are not hashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A Record whose fields `__init__` sets once, through `_freeze`; any
    later assignment raises AttributeError, and instances hash by value."""

    __slots__ = ()

    def _freeze(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # pickle and copy rebuild through __init__: their default sets the
        # fields with setattr, which a frozen record refuses
        return type(self), self._values()
