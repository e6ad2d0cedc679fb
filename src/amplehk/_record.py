"""Immutable records: the shared behaviour of the package's value classes.

A record class lists its fields in ``__slots__``, in constructor order.  A
class that only stores its fields writes no ``__init__``: it gets one,
generated once when the class is made, with one parameter per field in that
order, each stored with ``setfield(self, name, value)``.  A class that checks
its arguments writes its own ``__init__`` with the same parameters, and
stores each field with ``setfield`` once the checks pass.  This base adds
field-by-field equality within one class, the hash of the field tuple, a
``Name(field=value, ...)`` repr, and refuses assignment and deletion after
construction.  ``replace`` builds a copy with some fields changed through the
constructor, and ``copy``, ``deepcopy`` and ``pickle`` rebuild a record
through it too, so every copy is checked like any other instance.

A slot whose name starts with an underscore is not a field.  It holds what
the constructor derives from the fields, also stored with ``setfield``, and
equality, hash, repr, copies and ``replace`` ignore it.

The standard library's frozen data classes behave the same, but importing
their module and generating their methods cost tens of milliseconds per
process, more than a typical document takes to compute.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record", "replace", "setfield"]

# Stores a field from ``__init__``; the record's own ``__setattr__`` refuses.
setfield = object.__setattr__


def _store_only_init(cls: type):
    """The ``__init__`` of a record class that only stores its fields: one
    parameter per field, in ``__slots__`` order, each stored with ``setfield``."""
    fields = cls._fields
    body = "".join(f"\n    setfield(self, {name!r}, {name})" for name in fields)
    namespace = {"setfield": setfield, "__name__": cls.__module__}
    exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Record:
    """Base of an immutable record whose fields are its ``__slots__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls._fields = tuple([name for name in cls.__slots__ if name[0] != "_"])
        if "__init__" not in cls.__dict__:
            cls.__init__ = _store_only_init(cls)
        if len(fields) == 1:
            one = attrgetter(fields[0])

            def values(obj: Record) -> tuple:
                return (one(obj),)

        else:
            values = attrgetter(*fields)

        def __eq__(self: Record, other: object):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self: Record) -> int:
            return hash(values(self))

        def __reduce__(self: Record) -> tuple:
            return self.__class__, values(self)

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__
        cls.__reduce__ = __reduce__

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def replace(obj: Record, **changes: object) -> Record:
    """A copy of the record ``obj`` with the named fields changed.

    The copy goes through the class's constructor, so it is validated like
    any other instance; an unknown field name raises TypeError.
    """
    for name in obj._fields:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)
