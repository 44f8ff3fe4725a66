"""The base of the library's immutable value types."""


class Frozen:
    """A record whose fields are fixed once ``__init__`` has set them.

    A subclass names its fields in ``_fields``, in the order of its
    ``__init__`` parameters, and sets each with ``object.__setattr__``; later
    assignment raises ``AttributeError`` and copies are rebuilt by
    ``__init__``.  Records of one class with equal fields are equal and hash
    alike.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
