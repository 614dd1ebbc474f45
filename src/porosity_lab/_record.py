"""Immutable records without generated code.

`Record` gives a class the value semantics of a frozen dataclass: the fields
are the annotated class attributes, base fields first, none with a default,
and two records are equal when they are of the same class with equal
fields.  Its one `__init__` takes every field, all positionally or all by
keyword, so a record that only stores its fields writes no `__init__`; a
class that checks its input writes its own, which stores the fields with
`vars(self).update(...)`, since assignment raises.  Nothing is generated, so
the dataclass machinery and its `inspect` import stay out of every CLI start.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of the package's value classes: fields from the annotations,
    equality and hash over the field values, the dataclass repr, and no
    assignment or deletion once built."""

    _fields = ()
    _field_set = frozenset()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a class's own annotations only (Python >= 3.10), after the base's
        cls._fields += tuple(n for n in cls.__annotations__ if n not in cls._fields)
        cls._field_set = frozenset(cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if not kwargs and len(args) == len(fields):
            vars(self).update(zip(fields, args))
        elif not args and kwargs.keys() == self._field_set:
            vars(self).update(kwargs)
        else:
            raise TypeError(
                f"{type(self).__qualname__}() takes ({', '.join(fields)}), all positionally or "
                f"all by keyword, not {len(args)} positional and the keywords {list(kwargs)}"
            )

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
