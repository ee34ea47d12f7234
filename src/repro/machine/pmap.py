"""A small persistent (immutable, hashable) map used throughout the
state machine.

The explicit-state explorer hashes whole program states, so every state
component must be hashable and comparisons must be structural.  States
are small (a handful of threads and a few dozen memory cells), so a
copy-on-write dict is the right tradeoff — no need for a HAMT.

Hashing is **incremental**: the hash accumulator is a commutative XOR
of per-entry hashes, so a single-key update derives the child's
accumulator from the parent's in O(1) instead of re-hashing every
entry.  This is what makes the explorer's ``seen``-set membership cheap
— a successor state differs from its parent in one or two components
(one thread moved, one memory cell changed), and only the changed
entries are re-hashed.
"""

from __future__ import annotations

from typing import Any, Iterator

_MISSING = object()


def _entry_hash(key: Any, value: Any) -> int:
    return hash((key, value))


class PMap:
    """Immutable hashable mapping with copy-on-write updates."""

    __slots__ = ("_items", "_acc")

    def __init__(self, items: dict | None = None) -> None:
        self._items: dict = dict(items) if items else {}
        #: Commutative XOR of entry hashes; None until first demanded.
        #: Derived incrementally by set/set_many/remove once computed.
        self._acc: int | None = None

    @classmethod
    def _wrap(cls, items: dict, acc: int | None = None) -> "PMap":
        pm = cls.__new__(cls)
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
        if old is not _MISSING and old == value:
            return self
        items = dict(self._items)
        items[key] = value
        acc = self._acc
        if acc is not None:
            if old is not _MISSING:
                acc ^= _entry_hash(key, old)
            acc ^= _entry_hash(key, value)
        return PMap._wrap(items, acc)

    def set_many(self, updates: dict) -> "PMap":
        if not updates:
            return self
        items = dict(self._items)
        acc = self._acc
        if acc is not None:
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
        acc = self._acc
        if acc is not None:
            acc ^= _entry_hash(key, old)
        return PMap._wrap(items, acc)

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
        acc = self._acc
        if acc is None:
            acc = 0
            for entry in self._items.items():
                acc ^= hash(entry)
            self._acc = acc
        # Mix in the length so maps whose entry hashes XOR-cancel to the
        # same accumulator but differ in size still separate.
        return hash((len(self._items), acc))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self._items.items())
        return f"pmap({{{inner}}})"


EMPTY_PMAP = PMap()
