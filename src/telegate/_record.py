"""The base of telegate's immutable value classes.

The program IR, the gate-expression AST and the reports are small frozen
records.  They are plain ``__slots__`` classes on :class:`Record`, not
classes made by the standard library's code-generating record decorator,
which builds and ``exec``s every method of every class at each import:
with numpy already loaded, that was most of ``import telegate.cli``
(median 37 ms against 12 ms without it, CPython 3.11 on 2 vCPUs, bytecode
cached; ``BENCH_12.json``).

A subclass lists its constructor's parameters, in order, as both its
``__slots__`` and its ``_fields`` (which, unlike slots, its own
subclasses inherit).  Its ``__init__`` checks the arguments and ends
with one call of ``Record.__init__(self, ...)`` on the field values in
that order.  Equality compares the first ``_compared`` of them (all of
them when it is ``None``); the fields it ignores, such as source
positions and labels, come last and affect neither equality nor the
hash.  Then:

* fields cannot be assigned or deleted (``AttributeError``);
* ``a == b`` holds when both have the same class and equal keys; the
  key tuple is built once, and the hash is computed from it once, at
  construction, since the executor keys dicts by whole instructions;
* ``repr`` prints ``Name(field=value, ...)`` over every field;
* copies and pickles are rebuilt through the constructor, so they pass
  its checks again and never carry a stored hash into a process whose
  string hashes are salted differently.

A class whose fields may hold an unhashable value (a gate matrix) sets
``__hash__ = None`` or computes the hash per call, and so does one that
is built far more often than it is hashed (a report); it keeps the key,
and no hash is computed for it at construction.
"""

from __future__ import annotations

#: Stores a field, past :meth:`Record.__setattr__`.
set_field = object.__setattr__


class Record:
    """Frozen slotted record: see the module docstring."""

    __slots__ = ("_key", "_hash")
    _fields: tuple[str, ...] = ()
    #: How many leading fields equality compares; ``None`` compares all.
    _compared: int | None = None

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values):
            set_field(self, name, value)
        key = values[:self._compared]  # values itself when _compared is None
        set_field(self, "_key", key)
        if self.__class__.__hash__ is Record.__hash__:
            set_field(self, "_hash", hash(key))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)
