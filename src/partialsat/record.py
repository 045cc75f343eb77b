"""The immutable base of the package's value types: plain `__slots__`
classes, so that importing the package loads no `dataclasses` (with
`inspect`, `ast` and `dis`) and generates no code per class.  A record
declares its fields once, in `__slots__`, and its defaults once, in `_defaults`."""
from __future__ import annotations

_init = object.__setattr__
_MISSING = object()


class Record:
    """Immutable value object whose fields are the `__slots__` along its
    class's MRO, base classes first.  `__init__` binds positional and
    keyword arguments to the fields, fills a missing one from `_defaults`,
    and raises `TypeError` for a field that is missing, given twice or
    unknown.  Records of the same exact class are equal when their fields
    are; the hash is that of the field tuple and the repr is
    `Name(field=value, ...)`, built on an explicit stack so that records
    nested to any depth print.  Assigning or deleting an attribute raises;
    copies and pickles are rebuilt through `__init__`."""

    __slots__ = ()
    _field_names: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._field_names = tuple(name for klass in reversed(cls.__mro__)
                                 for name in klass.__dict__.get("__slots__", ()))

    def __init__(self, *args, **kwargs):
        names = self._field_names
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            _init(self, name, value)
        for name in names[len(args):]:
            value = kwargs.pop(name, self._defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{type(self).__name__}() is missing field {name!r}")
            _init(self, name, value)
        if kwargs:
            name = next(iter(kwargs))
            problem = "given twice" if name in names else "unknown"
            raise TypeError(f"{type(self).__name__}() field {name!r} is {problem}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self._field_names])

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
            for i in reversed(range(len(item._field_names))):
                name = item._field_names[i]
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
