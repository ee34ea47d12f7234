"""A small persistent (immutable, hashable) map used throughout the
state machine.

The explicit-state explorer hashes whole program states, so every state
component must be hashable and comparisons must be structural.  States
are small (a handful of threads and a few dozen memory cells), so a
copy-on-write dict is the right tradeoff — no need for a HAMT.

Hashing is **incremental**: the hash accumulator is a commutative XOR
of per-entry hashes, computed when a map is built from a dict and
derived by every update from its parent's in O(1) per changed entry, so
a successor state, which differs from its parent in one or two
components (one thread moved, one memory cell changed), re-hashes only
the changed entries.  Every map carries its accumulator from the start,
so :class:`~repro.machine.state.ProgramState` hashes its maps by reading
their lengths and accumulators, with no call into this class.
"""

from __future__ import annotations

from typing import Any, Iterator

_MISSING = object()
_new = object.__new__


def _entry_hash(key: Any, value: Any) -> int:
    return hash((key, value))


class PMap:
    """Immutable hashable mapping with copy-on-write updates."""

    __slots__ = ("_items", "_acc")

    def __init__(self, items: dict | None = None) -> None:
        self._items: dict = dict(items) if items else {}
        acc = 0
        for entry in self._items.items():
            acc ^= hash(entry)
        #: Commutative XOR of the entry hashes (``hash((key, value))``),
        #: derived incrementally by set/set_many/remove.
        self._acc: int = acc

    @staticmethod
    def _wrap(items: dict, acc: int) -> "PMap":
        """A map over *items*, which the caller gives up, whose entry
        hashes XOR to *acc*."""
        pm = _new(PMap)
        pm._items = items
        pm._acc = acc
        return pm

    def get(self, key: Any, default: Any = None) -> Any:
        return self._items.get(key, default)

    def __getitem__(self, key: Any) -> Any:
        return self._items[key]

    def __contains__(self, key: Any) -> bool:
        return key in self._items

    def set(self, key: Any, value: Any) -> "PMap":
        old = self._items.get(key, _MISSING)
        acc = self._acc
        if old is not _MISSING:
            if old == value:
                return self
            acc ^= _entry_hash(key, old)
        items = dict(self._items)
        items[key] = value
        return PMap._wrap(items, acc ^ _entry_hash(key, value))

    def set_many(self, updates: dict) -> "PMap":
        if not updates:
            return self
        items = dict(self._items)
        acc = self._acc
        for key, value in updates.items():
            old = items.get(key, _MISSING)
            if old is not _MISSING:
                acc ^= _entry_hash(key, old)
            acc ^= _entry_hash(key, value)
        items.update(updates)
        return PMap._wrap(items, acc)

    def remove(self, key: Any) -> "PMap":
        if key not in self._items:
            return self
        items = dict(self._items)
        old = items.pop(key)
        return PMap._wrap(items, self._acc ^ _entry_hash(key, old))

    def keys(self):
        return self._items.keys()

    def values(self):
        return self._items.values()

    def items(self):
        return self._items.items()

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PMap):
            if self._items is other._items:
                return True
            return self._items == other._items
        return NotImplemented

    def __hash__(self) -> int:
        # Mix in the length so maps whose entry hashes XOR-cancel to the
        # same accumulator but differ in size still separate.
        return hash((len(self._items), self._acc))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self._items.items())
        return f"pmap({{{inner}}})"


EMPTY_PMAP = PMap()
