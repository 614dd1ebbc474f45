"""Immutable records without generated code.

`Record` gives a class the value semantics of a frozen dataclass: the fields
are the annotated class attributes, base fields first, a value assigned in
the class body is the field's default, and two records are equal when they
are of the same class with equal fields.  Its one `__init__` binds
arguments to the fields as a call would, so a record that only stores its
fields writes no `__init__`; a class that checks its input writes its own,
which stores the fields with `vars(self).update(...)`, since assignment
raises.  Nothing is generated or compiled, so the dataclass machinery and
the `inspect` module it imports stay out of every start of the CLI.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of the package's value classes: fields from the annotations,
    equality and hash over the field values, the dataclass repr, and no
    assignment or deletion once built."""

    _fields = ()
    _field_set = frozenset()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a class's own annotations only (Python >= 3.10), after the base's
        own = tuple(name for name in cls.__annotations__ if name not in cls._fields)
        cls._fields += own
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}

    def __init__(self, *args, **kwargs):
        # records are built on hot paths: all fields given positionally, or
        # exactly the fields by keyword, are stored without binding
        fields = self._fields
        if not kwargs and len(args) == len(fields):
            vars(self).update(zip(fields, args))
        elif not args and kwargs.keys() == self._field_set:
            vars(self).update(kwargs)
        else:
            vars(self).update(self._bind(args, kwargs))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> dict:
        """The field values of a call that mixes positional arguments,
        keywords and defaults, checked as Python checks a call."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, {len(args)} given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in cls._field_set:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values and f not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return {f: values[f] if f in values else cls._defaults[f] for f in fields}

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
