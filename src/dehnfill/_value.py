"""
The base of the immutable value types.

A subclass names its fields, two or more, in ``__slots__``, in the order of
its ``__init__`` parameters.  Its ``__init__`` runs the checks and then
sets each field with ``setfield``.  A slot whose name starts with ``_``
holds state derived from the fields.  The base gives equality within one
class, the hash of the field tuple, the ``Name(field=value, ...)`` repr,
fields that cannot be set or deleted, and copies and pickles that run
``__init__`` again.  It compiles no code when a class is made, which keeps
the import short.
"""

from operator import attrgetter

setfield = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._names = names = tuple(n for n in cls.__slots__ if n[0] != "_")
        cls._values = staticmethod(attrgetter(*names))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        pairs = zip(self._names, self._values(self))
        return "%s(%s)" % (type(self).__qualname__, ", ".join("%s=%r" % p for p in pairs))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), self._values(self)
