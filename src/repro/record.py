"""A small record base for the classes of ``repro`` that hold data.

``@dataclass`` generates three to six methods per class and compiles
each with ``exec`` when the module is imported, and importing
:mod:`dataclasses` loads :mod:`inspect` and, through it, :mod:`ast`,
:mod:`dis` and :mod:`tokenize`.  This base compiles nothing and imports
nothing: it reads each class's fields from its annotations once, at
class creation, and supplies one generic constructor, ``==``, ``repr``
and ``replace`` for every class, in the manner of the stdlib :mod:`ast`
nodes.  :class:`FrozenRecord` adds hashing by value and immutability.

A field's default is the class attribute of the same name; wrap a
mutable default in :class:`Fresh` to build it anew for each record::

    class Block(Stmt):
        stmts: list[Stmt] = Fresh(list)

Class keywords name the fields that the constructor accepts by keyword
only (``keyword_only=``) and that ``==`` ignores (``uncompared=``).

The classes built once per state, token or step (the values, states and
transitions of :mod:`repro.machine`, :class:`repro.errors.SourceLoc`,
:class:`repro.lang.tokens.Token`) derive from :class:`Slotted` instead:
the generic constructor reads its fields from class tables, which a hot
path cannot afford, so each of them writes out a plain ``__init__``.
A record class built often enough for that to show writes out its
``__init__`` too, with the declared fields' order and defaults, and
keeps the rest of the base: :class:`~repro.machine.program.PcInfo` and
the four commonest steps, 1,164 of the 1,503 records that translating
the case studies' 20 levels builds.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable


class Fresh:
    """A default built anew for each record: ``Fresh(list)``."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[], Any]) -> None:
        self.make = make


class Record:
    """A mutable, unhashable record.

    Positional arguments follow the declaration order, base fields
    first, skipping the keyword-only ones.  ``==`` compares two records
    of the same class field by field; ``repr`` reads
    ``Name(field=value, ...)``.
    """

    #: Every field, base fields first (the ``repr`` and ``==`` order).
    _fields: tuple[str, ...] = ()
    _field_set: frozenset[str] = frozenset()
    #: The fields the constructor accepts positionally, in order.
    _positional: tuple[str, ...] = ()
    _keyword_only: frozenset[str] = frozenset()
    #: The fields ``==`` (and a frozen record's hash) compares.
    _compared: tuple[str, ...] = ()
    #: Plain defaults, shared by every record of the class.
    _defaults: dict[str, Any] = {}
    #: ``(field, factory)`` for each :class:`Fresh` default.
    _factories: tuple[tuple[str, Callable[[], Any]], ...] = ()

    def __init_subclass__(cls, *, keyword_only: tuple[str, ...] = (),
                          uncompared: tuple[str, ...] = (),
                          **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__dict__.get("__annotations__", {})
               if name not in cls._fields]
        fields = cls._fields + tuple(own)
        defaults = dict(cls._defaults)
        factories = list(cls._factories)
        for name in own:
            if name not in cls.__dict__:
                continue
            default = cls.__dict__[name]
            if isinstance(default, Fresh):
                factories.append((name, default.make))
                delattr(cls, name)
            else:
                defaults[name] = default
        cls._keyword_only = cls._keyword_only | frozenset(keyword_only)
        uncompared_names = set(uncompared)
        uncompared_names.update(name for name in cls._fields
                                if name not in cls._compared)
        cls._fields = fields
        cls._field_set = frozenset(fields)
        cls._positional = tuple(
            name for name in fields if name not in cls._keyword_only
        )
        cls._compared = tuple(
            name for name in fields if name not in uncompared_names
        )
        cls._defaults = defaults
        cls._factories = tuple(factories)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        cls = type(self)
        values = self.__dict__
        values.update(cls._defaults)
        for name, make in cls._factories:
            values[name] = make()
        if args:
            positional = cls._positional
            if len(args) > len(positional):
                raise TypeError(
                    f"{cls.__name__}() takes {len(positional)} positional "
                    f"arguments but {len(args)} were given"
                )
            values.update(zip(positional, args))
        if kwargs:
            if not cls._field_set.issuperset(kwargs):
                unexpected = kwargs.keys() - cls._field_set
                raise TypeError(
                    f"{cls.__name__}() got an unexpected keyword argument "
                    f"{min(unexpected)!r}"
                )
            if args and not cls._keyword_only.issuperset(kwargs):
                twice = kwargs.keys() & set(cls._positional[:len(args)])
                if twice:
                    raise TypeError(
                        f"{cls.__name__}() got multiple values for "
                        f"argument {min(twice)!r}"
                    )
            values.update(kwargs)
        if len(values) < len(cls._fields):
            missing = ", ".join(repr(name) for name in cls._fields
                                if name not in values)
            raise TypeError(
                f"{cls.__name__}() missing required argument(s): {missing}"
            )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.__dict__, other.__dict__
        for name in self._compared:
            a, b = mine[name], theirs[name]
            if a is not b and not a == b:
                return False
        return True

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__qualname__}({inner})"

    def replace(self, **changes: Any) -> Any:
        """A copy of this record with *changes* applied."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)


class FrozenRecord(Record):
    """An immutable record that hashes by value."""

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        values = self.__dict__
        return hash(tuple([values[name] for name in self._compared]))


class Slotted:
    """A base for the classes built once per state, token or step.

    A subclass names its fields in ``__slots__``, in constructor order,
    and writes out a plain positional ``__init__``.  The base supplies
    ``==`` (same class only), ``hash`` and a ``Name(field=value, ...)``
    ``repr``, all over the field tuple, as a frozen dataclass's would;
    it reads the fields with one :func:`operator.attrgetter` per class.
    A ``_hash`` slot is not a field: a class may cache its hash there.

    The few classes whose ``==`` and ``hash`` run once per state or
    memory access write those two out over the same tuple: reading the
    fields in written-out code takes half the time ``attrgetter`` does.
    """

    __slots__ = ()

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__["__slots__"]
        cls._fields = fields = tuple(name for name in slots
                                     if name != "_hash")
        # The field tuple of an instance; ``attrgetter`` returns a bare
        # value for one name and needs at least one.
        key: Callable[[Any], tuple]
        if len(fields) > 1:
            key = attrgetter(*fields)
        elif fields:
            get = attrgetter(fields[0])
            key = lambda obj: (get(obj),)  # noqa: E731
        else:
            key = lambda obj: ()  # noqa: E731
        cls._key = staticmethod(key)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._key(self))
        )
        return f"{type(self).__qualname__}({inner})"

    def replace(self, **changes: Any) -> Any:
        """A copy with *changes* applied; it computes its own hash."""
        values = dict(zip(self._fields, self._key(self)))
        values.update(changes)
        return type(self)(**values)
