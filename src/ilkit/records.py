"""Plain record classes, with no generated code.

A record lists its fields, in constructor order, in ``_fields`` (and in
``__slots__`` if slotted) and writes its own ``__init__``, through ``_fill``
unless it is built by the thousand.  The base gives equality within one
class, the ``Name(field=value, ...)`` repr, and pickling and copying through
the constructor; ``Frozen`` adds a hash and refuses assignment, ``Ordered``
orders by the field tuple.
"""

from operator import ge, gt, le, lt


class Record:
    __slots__ = ()
    _fields = ()

    def _fill(self, *values):
        """Set the fields in order, past a frozen ``__setattr__``."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Frozen(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _order(op):
    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(self._values(), other._values())
        return NotImplemented
    return compare


class Ordered(Frozen):
    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = map(_order, (lt, le, gt, ge))
