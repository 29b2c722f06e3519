"""Resource caps shared by the library and the CLI, and the base of its
immutable records.

Exhaustive enumerations grow like Bell or squared Catalan numbers, so the
operations that walk them refuse oversized inputs up front rather than
stalling.  ``BIFREE_MAX_SIZE`` raises every cap below its value to that value
and never lowers one.  Each cap reads it where it is checked, in the library
or in the CLI, so no caller passes a cap down.

:class:`Record` gives the package's validated value objects (moment
sequences, the tensor-CLT input, the Monte Carlo config, side maps, meandric
systems) equality, hashing, ``repr`` and immutability over their slots, with
no generated code, so loading them costs no more than their class bodies.
"""

from __future__ import annotations

import os

ENV_MAX_SIZE = "BIFREE_MAX_SIZE"


class ResourceLimitError(RuntimeError):
    """Raised before starting an enumeration that would exceed a size cap."""


class InsufficientMomentsError(ValueError):
    """Raised when a computation needs moments of higher order than supplied."""


def env_cap(default: int) -> int:
    """The default cap, or BIFREE_MAX_SIZE when that is larger."""
    raw = os.environ.get(ENV_MAX_SIZE)
    if raw is None:
        return default
    try:
        return max(default, int(raw))
    except ValueError as exc:
        raise ValueError(f"{ENV_MAX_SIZE} must be an integer, got {raw!r}") from exc


class Record:
    """Base of an immutable record.  A subclass lists its slots in
    ``__slots__`` and sets them in its ``__init__`` through :meth:`_set`.  Its
    fields, named in ``_fields``, are the first slots and its constructor's
    arguments, in order; any later slot holds a value derived from them.
    Records of one class are equal, and hash alike, when their fields are
    equal; any later assignment or deletion raises AttributeError.  A copied
    or unpickled record, at any pickle protocol, is built again by its
    constructor from its fields, so it passes the constructor's checks."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._key()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__name__}({fields})"
