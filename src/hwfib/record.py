"""Base class of the package's small value types.

Each value type lists its fields in ``__slots__``.  ``Record`` gives it
what a frozen dataclass would: a constructor that takes the fields in that
order, equality and hash by the tuple of its fields, and a repr that names
them.  The package never assigns to a field after construction, so
instances are safe to hash, share and pickle.  ``dataclasses`` is not used:
importing it loads ``inspect``, ``ast`` and ``dis``, and with its class
decorators it cost every start of the command line about 20 ms (2-core
x86-64 VM, Python 3.11.7).

``Classification``, ``Lattice``, ``SymSequence`` and
``VerificationReport`` take Record's constructor.  ``DiagIsometry``,
``HWCandidate``, ``Presentation`` and ``GenImages`` define their own, which
check their input, and ``_normal`` builds a value of one of them from
fields that passed those checks already, skipping them.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    __slots__ = ()

    def __init__(self, *fields) -> None:
        names = self.__slots__
        if len(fields) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(fields)}")
        for name, value in zip(names, fields):
            setattr(self, name, value)

    @classmethod
    def _normal(cls, *fields):
        """The value of cls with the given fields, through Record's
        constructor rather than the class's own."""
        value = object.__new__(cls)
        Record.__init__(value, *fields)
        return value

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
