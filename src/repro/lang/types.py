"""The Armada type system (Figure 7, "Types").

Core (compilable) types are fixed-width integers, pointers, arrays, and
structs. Ghost/specification types additionally include mathematical
integers, booleans, sequences, sets, maps, and options — "any type
supported by the theorem prover" (§3.1.2).

Types are immutable and compared structurally, except for structs, which
are nominal (two structs are the same type iff they have the same name).
They are frozen records (:class:`repro.record.FrozenRecord`), which
hash by value and compile no code at import.
"""

from __future__ import annotations

from repro.record import FrozenRecord


class Type(FrozenRecord):
    """Base class for Armada types."""

    def is_core(self) -> bool:
        """Whether this type is part of core (compilable) Armada (§3.1.1)."""
        return False

    def is_integer(self) -> bool:
        return False

    def is_pointer(self) -> bool:
        return False


class IntType(Type):
    """A fixed-width integer type: (u)int8/16/32/64."""

    bits: int
    signed: bool

    def is_core(self) -> bool:
        return True

    def is_integer(self) -> bool:
        return True

    @property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        if self.signed:
            return (1 << (self.bits - 1)) - 1
        return (1 << self.bits) - 1

    def wrap(self, value: int) -> int:
        """Wrap *value* into this type's range (two's complement)."""
        masked = value & ((1 << self.bits) - 1)
        if self.signed and masked >= (1 << (self.bits - 1)):
            masked -= 1 << self.bits
        return masked

    def contains(self, value: int) -> bool:
        return self.min_value <= value <= self.max_value

    def __str__(self) -> str:
        return f"{'' if self.signed else 'u'}int{self.bits}"


class MathIntType(Type):
    """The unbounded mathematical integer type ``int`` (ghost only)."""

    def is_integer(self) -> bool:
        return True

    def __str__(self) -> str:
        return "int"


class BoolType(Type):
    """The boolean type. Compilable as a byte-sized value in core Armada."""

    def is_core(self) -> bool:
        return True

    def __str__(self) -> str:
        return "bool"


class VoidType(Type):
    """Return type of methods that return nothing."""

    def __str__(self) -> str:
        return "void"


class PtrType(Type):
    """``ptr<T>`` — may point to whole objects, struct fields, or array
    elements (§3.1.1)."""

    element: Type

    def is_core(self) -> bool:
        return self.element.is_core()

    def is_pointer(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"ptr<{self.element}>"


class ArrayType(Type):
    """``T[N]`` — single-dimensional array of statically known size."""

    element: Type
    size: int

    def is_core(self) -> bool:
        return self.element.is_core()

    def __str__(self) -> str:
        return f"{self.element}[{self.size}]"


class StructField(FrozenRecord):
    name: str
    type: Type


class StructType(Type):
    """A nominal struct type; arbitrary nesting with arrays is allowed."""

    name: str
    fields: tuple[StructField, ...] = ()

    def is_core(self) -> bool:
        return all(f.type.is_core() for f in self.fields)

    def field_type(self, name: str) -> Type | None:
        for f in self.fields:
            if f.name == name:
                return f.type
        return None

    def field_index(self, name: str) -> int | None:
        for i, f in enumerate(self.fields):
            if f.name == name:
                return i
        return None

    def __str__(self) -> str:
        return f"struct {self.name}"

    # Nominal equality: two StructTypes are equal iff names match.  The
    # resolver guarantees one definition per name.
    def __eq__(self, other: object) -> bool:
        return isinstance(other, StructType) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("struct", self.name))


class SeqType(Type):
    """Ghost sequence type ``seq<T>``."""

    element: Type

    def __str__(self) -> str:
        return f"seq<{self.element}>"


class SetType(Type):
    """Ghost finite set type ``set<T>``."""

    element: Type

    def __str__(self) -> str:
        return f"set<{self.element}>"


class MapType(Type):
    """Ghost finite map type ``map<K, V>``."""

    key: Type
    value: Type

    def __str__(self) -> str:
        return f"map<{self.key}, {self.value}>"


class OptionType(Type):
    """Ghost option type ``option<T>`` (used e.g. for lock holders)."""

    element: Type

    def __str__(self) -> str:
        return f"option<{self.element}>"


# ---------------------------------------------------------------------------
# Singletons and helpers

UINT8 = IntType(8, signed=False)
UINT16 = IntType(16, signed=False)
UINT32 = IntType(32, signed=False)
UINT64 = IntType(64, signed=False)
INT8 = IntType(8, signed=True)
INT16 = IntType(16, signed=True)
INT32 = IntType(32, signed=True)
INT64 = IntType(64, signed=True)
MATHINT = MathIntType()
BOOL = BoolType()
VOID = VoidType()

PRIMITIVES: dict[str, Type] = {
    "uint8": UINT8,
    "uint16": UINT16,
    "uint32": UINT32,
    "uint64": UINT64,
    "int8": INT8,
    "int16": INT16,
    "int32": INT32,
    "int64": INT64,
    "int": MATHINT,
    "bool": BOOL,
    "void": VOID,
}


def assignable(target: Type, source: Type) -> bool:
    """Whether a value of type *source* may be assigned to an lvalue of
    type *target*.

    Armada (like Dafny) allows any fixed-width integer to flow into the
    mathematical ``int``, and nondeterministic havoc (``*``) produces a
    value of any type, which the type checker represents by matching
    types exactly elsewhere.
    """
    if target == source:
        return True
    if isinstance(target, MathIntType) and source.is_integer():
        return True
    if isinstance(target, PtrType) and isinstance(source, PtrType):
        # null pointer literal is given type ptr<void>.
        return isinstance(source.element, VoidType) or target == source
    if isinstance(target, OptionType) and isinstance(source, OptionType):
        return isinstance(source.element, VoidType) or assignable(
            target.element, source.element
        )
    return False


def join_integer(left: Type, right: Type) -> Type | None:
    """The result type of an arithmetic operation on two integer types.

    Same-type operations keep the type; mixing a fixed-width type with
    ``int`` yields ``int``; other mixes are rejected.
    """
    if not (left.is_integer() and right.is_integer()):
        return None
    if left == right:
        return left
    if isinstance(left, MathIntType) or isinstance(right, MathIntType):
        return MATHINT
    return None
