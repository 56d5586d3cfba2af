"""Weak back-references that deep copies follow.

The simulator's objects point back at their owners: a scheme at its
machine, the BarCK coordinator at its scheme, the compiled core's views
and Dep-register files at their engine.  Held strongly, each of these
pointers closes a reference cycle, so a finished machine, and the
megabytes of C memory behind its engine and loop, would wait for
Python's cycle collector, which cannot see that memory.  Declared as a
:class:`backref`, the pointer is weak: dropping the last outside
reference to a machine frees it at once.  The other side of that
bargain: such an object works only while its owner lives (a view kept
past its engine raises :class:`ReferenceError`).

A deep copy (``Machine.fork``) follows a back-reference to the owner's
copy, exactly as it copies a strong reference, so a forked scheme points
at the forked machine.
"""

from __future__ import annotations

import copy
import weakref


class BackRef:
    """A weak reference to an owner; ``ref()`` is the owner, or None
    once it is gone."""

    __slots__ = ("_ref",)

    def __init__(self, owner):
        self._ref = weakref.ref(owner)

    def __call__(self):
        return self._ref()

    def __deepcopy__(self, memo) -> "BackRef":
        return BackRef(copy.deepcopy(self._ref(), memo))


class backref:
    """An attribute that holds its value through a :class:`BackRef`,
    stored under ``_<name>_ref`` (``_engine`` and ``engine`` both under
    ``_engine_ref``, which a ``__slots__`` class must declare)."""

    def __set_name__(self, owner, name: str) -> None:
        self.slot = f"_{name.lstrip('_')}_ref"

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        owner = getattr(obj, self.slot)()
        if owner is None:
            raise ReferenceError(
                f"the owner of this {type(obj).__name__} was freed: "
                f"keep the machine (or engine) it belongs to")
        return owner

    def __set__(self, obj, value) -> None:
        setattr(obj, self.slot, BackRef(value))
