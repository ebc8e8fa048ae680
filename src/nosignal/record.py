"""One base for the package's value classes.

A subclass lists its fields in ``__slots__`` and stores them once, in
``__init__``, through ``_fill``. What a frozen dataclass would generate is
written here once: equality and hashing on the field values (between
instances of the same class only), a ``Name(field=value, ...)`` repr, a
guard that rejects assignment, and pickling through the constructor.
Nothing is generated or ``exec``-ed at import or at class creation; every
record is built a handful of times per command, so its fields are read
by name. No subclass overrides any of this: every record is frozen and
unordered.
"""


class Record:
    __slots__ = ()

    def _fill(self, *values) -> None:
        """Store ``values`` in field order, past the assignment guard."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        """The field values, in field order."""
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
