"""Immutable records without generated code.

`Record` gives a class the value semantics of a frozen dataclass: the fields
are the class annotations, base fields first, and two records are equal when
they are of the same class with equal fields.  Nothing is generated or
compiled when a class is defined, so the dataclass machinery, and the
`inspect` module it imports, stay out of every start of the CLI.  Each
subclass writes its own `__init__`, which stores the fields with
`vars(self).update(...)`, since assignment raises.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of the package's value classes: fields from the annotations,
    equality and hash over the field values, the dataclass repr, and no
    assignment or deletion once built."""

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a class's own annotations only (Python >= 3.10), after the base's
        own = tuple(name for name in cls.__annotations__ if name not in cls._fields)
        cls._fields += own

    def _astuple(self) -> tuple:
        """The field values in field order."""
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes):
        """A copy with some fields changed, built through __init__."""
        return type(self)(**dict(zip(self._fields, self._astuple()), **changes))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
