"""Immutable records: the one base class of qfe's result and value types.

A subclass names its fields as class annotations, in order, after those
of the record it extends.  It gets positional and keyword construction,
the repr ``Name(field=value, ...)``, equality between instances of the
same class and a hash, both over the fields in order, and an
``AttributeError`` on assignment or deletion.  A field that holds a dict
makes ``hash`` raise ``TypeError``.  Nothing is generated or compiled
when a subclass is created, so importing qfe pays for neither
``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations


class Record:
    # An instance's __dict__ holds exactly its fields, in field order.
    _fields = ()

    def __init_subclass__(cls) -> None:
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = dict(zip(fields, args))
            for key, value in kwargs.items():
                if key not in fields or key in given:
                    raise TypeError(f"{type(self).__name__}() got an unexpected or "
                                    f"repeated argument {key!r}")
                given[key] = value
            if len(args) > len(fields) or len(given) < len(fields):
                raise TypeError(f"{type(self).__name__}() takes the fields "
                                f"{', '.join(fields)}")
            args = [given[f] for f in fields]
        object.__setattr__(self, "__dict__", dict(zip(fields, args)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in self.__dict__.items())
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
