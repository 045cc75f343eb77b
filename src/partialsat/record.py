"""The immutable base of the package's value types: plain `__slots__`
classes, so that importing the package loads no `dataclasses` (with
`inspect`, `ast` and `dis`) and generates no code per class."""
from __future__ import annotations


class Record:
    """Immutable value object whose fields are its class's `__slots__`, set
    once in `__init__` by `_set` or `object.__setattr__`.  Records of the
    same exact class are equal when their fields are; the hash is that of
    the field tuple and the repr is `Name(field=value, ...)`, built on an
    explicit stack so that records nested to any depth print.  Assigning
    or deleting an attribute raises; copies and pickles are rebuilt through
    `__init__`."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        out: list[str] = []
        todo: list = [self]
        while todo:
            item = todo.pop()
            if type(item) is str:
                out.append(item)
                continue
            todo.append(")")
            for i in reversed(range(len(item.__slots__))):
                name = item.__slots__[i]
                value = getattr(item, name)
                if type(value).__repr__ is not Record.__repr__:
                    value = repr(value)
                todo += (value, f"{', ' if i else ''}{name}=")
            todo.append(f"{type(item).__qualname__}(")
        return "".join(out)

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
