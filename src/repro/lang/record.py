"""A small record base for the syntax-tree and type classes.

``@dataclass`` generates three to six methods per class and compiles
each with ``exec`` when the module is imported, which made the 67
classes of :mod:`repro.lang.asts` and :mod:`repro.lang.types` the
largest part of the front end's import time.  This base compiles
nothing: it reads each class's fields from its annotations once, at
class creation, and supplies one generic constructor, ``==`` and
``repr`` for every class, in the manner of the stdlib :mod:`ast` nodes.
:class:`FrozenRecord` adds hashing by value and immutability.

A field's default is the class attribute of the same name; wrap a
mutable default in :class:`Fresh` to build it anew for each record::

    class Block(Stmt):
        stmts: list[Stmt] = Fresh(list)

Class keywords name the fields that the constructor accepts by keyword
only (``keyword_only=``) and that ``==`` ignores (``uncompared=``).
"""

from __future__ import annotations

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


class FrozenRecord(Record):
    """An immutable record that hashes by value."""

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        values = self.__dict__
        return hash(tuple([values[name] for name in self._compared]))
