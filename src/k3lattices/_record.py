"""The frozen base of the package's record classes.

A record names its fields in __slots__, in order (plus "__dict__" when it
caches properties), and its own __init__ sets each one once through
set_field, which is object.__setattr__.  These are plain classes rather
than dataclasses because the dataclass decorator builds every method it
generates with exec at import time, and importing dataclasses loads
inspect: together about 15% of a cold verify-all.
"""

set_field = object.__setattr__
"""Bound to a module name because a global lookup is cheaper than looking
up __setattr__ on object at every field of every construction."""


class Record:
    """Frozen value: equality, hash and repr read the fields in order."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple([f for f in cls.__slots__ if f != "__dict__"])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({inner})"

    def __reduce__(self):
        # rebuild through __init__, which assigns the frozen fields
        return self.__class__, self._values()
