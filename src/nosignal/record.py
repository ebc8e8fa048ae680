"""One base for the package's value classes.

A subclass lists its fields in ``__slots__`` and stores them once, in
``__init__``, through ``_fill``. What a frozen dataclass would generate is
written here once: equality and hashing on the field values (between
instances of the same class only), a ``Name(field=value, ...)`` repr, a
guard that rejects assignment, and pickling through the constructor.
Nothing is generated or ``exec``-ed at import; each class only looks up an
``operator.attrgetter`` of its fields and their slots' setters, so fields
are read and written in C. No subclass overrides any of this: every
record is frozen and unordered.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            # The field values, a tuple when there are several; an attrgetter
            # is no method, so it is called as ``self._values(self)``.
            cls._values = attrgetter(*cls.__slots__)
            cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def _fill(self, *values) -> None:
        """Store ``values`` in field order, past the assignment guard."""
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)
