"""Shared exception types, and the base of the library's value classes."""

from operator import attrgetter


class InternalInvariantError(RuntimeError):
    """Two routes that must agree produced different answers.

    Raised when an internal cross-check fails (never for bad user input);
    the CLI maps it to exit status 3.
    """


class Value:
    """An immutable value whose fields are the names in ``__slots__``.

    A subclass lists its fields in ``__slots__`` and writes its own
    ``__init__``, which stores each field with ``object.__setattr__`` and
    ends with ``self.__post_init__()``, the subclass's validation hook.
    Two values are equal when their classes and fields are; a value hashes
    as its field tuple, reprs as ``Name(field=value, ...)`` and pickles
    through its constructor.  Assigning or deleting a field raises
    AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = attrgetter(*cls.__slots__)

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
