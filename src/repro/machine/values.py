"""Runtime values and memory locations for the Armada state machine.

Values are plain immutable Python data:

* fixed-width and mathematical integers → ``int``
* booleans → ``bool``
* pointers → :class:`Pointer` (a path into the forest heap, §3.2.4)
* ghost sequences → ``tuple``
* ghost sets → ``frozenset``
* ghost maps → :class:`GhostMap`
* ghost options → :class:`OptionValue`
* structs / arrays → :class:`CompositeValue` (tuple of children)

A *location* names one primitive cell of shared memory: a root plus a
path of child indices (struct field indices or array element indices).
Roots are global variables, allocations, or address-taken locals.

The classes here are built on every step and hashed with every state,
so they derive from :class:`~repro.record.Slotted`: a written-out
``__init__``, with ``==``, ``hash`` and ``repr`` over the field tuple,
as a frozen dataclass's would be.  Each is immutable by convention.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.lang import types as ty
from repro.record import Slotted


# ---------------------------------------------------------------------------
# Roots and locations


class Root(Slotted):
    """The root of one tree in the forest heap.

    ``kind`` is ``"global"`` (a global variable whose address is taken or
    which is shared), ``"alloc"`` (malloc/calloc result), or ``"local"``
    (an address-taken stack variable of one method invocation).
    """

    __slots__ = ("kind", "name", "serial")

    def __init__(self, kind: str, name: str = "", serial: int = 0) -> None:
        self.kind = kind
        self.name = name
        self.serial = serial

    # Hashed and compared with every memory access.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.name, self.serial)
                == (other.kind, other.name, other.serial))

    def __hash__(self) -> int:
        return hash((self.kind, self.name, self.serial))

    def __str__(self) -> str:
        if self.kind == "global":
            return f"&{self.name}"
        if self.kind == "alloc":
            return f"alloc#{self.serial}"
        return f"&{self.name}@frame{self.serial}"


class Location(Slotted):
    """One primitive memory cell: a root and a path of child indices."""

    __slots__ = ("root", "path")

    def __init__(self, root: Root, path: tuple[int, ...] = ()) -> None:
        self.root = root
        self.path = path

    # Hashed and compared with every memory access.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.root, self.path) == (other.root, other.path)

    def __hash__(self) -> int:
        return hash((self.root, self.path))

    def child(self, index: int) -> "Location":
        return Location(self.root, self.path + (index,))

    def __str__(self) -> str:
        suffix = "".join(f".{i}" for i in self.path)
        return f"{self.root}{suffix}"


# ---------------------------------------------------------------------------
# Pointers


class Pointer(Slotted):
    """A pointer value: a location plus the pointee type.

    Armada pointers may point to whole objects, struct fields, or array
    elements (§3.1.1); all are just locations in the forest.
    """

    __slots__ = ("location", "target_type")

    def __init__(self, location: Location, target_type: ty.Type) -> None:
        self.location = location
        self.target_type = target_type

    def __str__(self) -> str:
        return f"ptr({self.location})"


class NullPointer(Slotted):
    """The null pointer.  Every instance equals :data:`NULL`."""

    __slots__ = ()

    def __str__(self) -> str:
        return "null"


NULL = NullPointer()


# ---------------------------------------------------------------------------
# Ghost values


class OptionValue(Slotted):
    """``Some(v)`` or ``None`` for ghost ``option<T>`` values."""

    __slots__ = ("value", "is_some")

    def __init__(self, value: Any = None, is_some: bool = False) -> None:
        self.value = value
        self.is_some = is_some

    def __str__(self) -> str:
        return f"Some({self.value})" if self.is_some else "None"


NONE_OPTION = OptionValue()


def some(value: Any) -> OptionValue:
    return OptionValue(value, True)


class GhostMap:
    """An immutable finite map (ghost ``map<K, V>``)."""

    __slots__ = ("_items", "_hash")

    def __init__(self, items: dict | None = None) -> None:
        self._items = dict(items) if items else {}
        self._hash: int | None = None

    def get(self, key: Any, default: Any = None) -> Any:
        return self._items.get(key, default)

    def __getitem__(self, key: Any) -> Any:
        return self._items[key]

    def __contains__(self, key: Any) -> bool:
        return key in self._items

    def set(self, key: Any, value: Any) -> "GhostMap":
        items = dict(self._items)
        items[key] = value
        return GhostMap(items)

    def remove(self, key: Any) -> "GhostMap":
        items = dict(self._items)
        items.pop(key, None)
        return GhostMap(items)

    def keys(self):
        return self._items.keys()

    def items(self):
        return self._items.items()

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GhostMap) and self._items == other._items

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._items.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self._items.items())
        return f"map[{inner}]"


# ---------------------------------------------------------------------------
# Composite (struct / array) values for non-shared locals


class CompositeValue(Slotted):
    """A struct or array value held by-value in a stack frame.

    Shared (addressed) composites live as individual leaf cells in memory;
    this class is only used for locals whose address is never taken.
    """

    __slots__ = ("children",)

    def __init__(self, children: tuple[Any, ...]) -> None:
        self.children = children

    def with_child(self, index: int, value: Any) -> "CompositeValue":
        children = list(self.children)
        children[index] = value
        return CompositeValue(tuple(children))

    def __str__(self) -> str:
        return "{" + ", ".join(str(c) for c in self.children) + "}"


# ---------------------------------------------------------------------------
# Default values and type structure helpers


def default_value(t: ty.Type) -> Any:
    """The zero/default value of type *t* (used by calloc and globals)."""
    if isinstance(t, ty.IntType) or isinstance(t, ty.MathIntType):
        return 0
    if isinstance(t, ty.BoolType):
        return False
    if isinstance(t, ty.PtrType):
        return NULL
    if isinstance(t, ty.ArrayType):
        return CompositeValue(tuple(default_value(t.element)
                                    for _ in range(t.size)))
    if isinstance(t, ty.StructType):
        return CompositeValue(tuple(default_value(f.type)
                                    for f in t.fields))
    if isinstance(t, ty.SeqType):
        return ()
    if isinstance(t, ty.SetType):
        return frozenset()
    if isinstance(t, ty.MapType):
        return GhostMap()
    if isinstance(t, ty.OptionType):
        return NONE_OPTION
    if isinstance(t, ty.VoidType):
        return None
    raise ValueError(f"no default value for type {t}")


def leaf_locations(root: Root, t: ty.Type) -> list[tuple[Location, ty.Type]]:
    """All primitive (leaf) cells of an object of type *t* rooted at *root*,
    with their types, in declaration order."""
    result: list[tuple[Location, ty.Type]] = []

    def walk(loc: Location, node_type: ty.Type) -> None:
        if isinstance(node_type, ty.ArrayType):
            for i in range(node_type.size):
                walk(loc.child(i), node_type.element)
        elif isinstance(node_type, ty.StructType):
            for i, f in enumerate(node_type.fields):
                walk(loc.child(i), f.type)
        else:
            result.append((loc, node_type))

    walk(Location(root), t)
    return result


def child_type(t: ty.Type, index: int) -> ty.Type:
    """The type of child *index* of an object of composite type *t*."""
    if isinstance(t, ty.ArrayType):
        if not 0 <= index < t.size:
            raise IndexError(index)
        return t.element
    if isinstance(t, ty.StructType):
        return t.fields[index].type
    raise ValueError(f"{t} has no children")


def type_at_path(t: ty.Type, path: tuple[int, ...]) -> ty.Type:
    """The type found by following *path* from an object of type *t*."""
    for index in path:
        t = child_type(t, index)
    return t
