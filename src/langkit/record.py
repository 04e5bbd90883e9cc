"""Immutable records with equality, hash and repr over named fields.

A subclass lists its fields in ``_fields`` and sets each one once in its
own ``__init__`` with ``object.__setattr__``.  Two records are equal when
they are of the same class with equal field tuples; the hash is the hash
of the field tuple and the repr reads ``QualName(field=value, ...)``.
Fields cannot be reassigned or deleted.  A record whose fields hold
mutable containers sets ``__hash__ = None``.  An attribute that an
instance caches (a ``functools.cached_property``, stored in the instance
dict on first read) is not a field: equality, hash and repr read
``_fields`` only, so two equal records stay equal whether or not either
has filled its cache.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # attrgetter returns a bare value for one name; the key is always a tuple
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
