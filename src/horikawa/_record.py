"""Immutable value records, the base of every result and input class.

A record's fields are its `__slots__`, in order.  Two records are equal when
they have the same type and equal fields; the hash is that of the field
tuple; `repr` reads `Name(field=value, ...)`; assigning or deleting a field
raises `AttributeError`.  A record is not a tuple: it never equals one, has
no length unless its class defines one, and is not JSON-serializable.

Subclasses that validate or convert their input, or give fields defaults,
define their own `__init__`, which stores the fields through the generic one
below or through `object.__setattr__`.  The generic `__init__` takes every
field, positionally or by keyword.

These are hand-written `__slots__` classes because generating each class's
methods with the standard library's record decorator, and importing it, cost
about 30 ms at every CLI start, more than the package's own code.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # Each slot's own setter: it bypasses the raising `__setattr__` and
        # is cheaper to call than `object.__setattr__`.
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def __init__(self, *args: object, **kwargs: object) -> None:
        if kwargs or len(args) != len(self.__slots__):
            args = self._bind(args, kwargs)
        for store, value in zip(self._setters, args):
            store(self, value)

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The field values in slot order, from positional and keyword arguments."""
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{type(self).__name__} got an unexpected or repeated field {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{type(self).__name__} is missing fields {missing}")
        return tuple(values[name] for name in names)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self) -> tuple:
        return _restore, (type(self), self._values())


def _restore(cls: type, values: tuple) -> Record:
    """Rebuild a pickled or copied record without running its checks again."""
    record = object.__new__(cls)
    Record.__init__(record, *values)
    return record
