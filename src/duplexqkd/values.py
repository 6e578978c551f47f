"""Value types built without generated code.

``@value`` turns a class whose body annotates its fields into a value type.
It gets an ``__init__`` that takes the fields by position or keyword,
applies the class-body defaults (a ``factory(dict)`` default is built afresh
for each instance) and then calls ``__post_init__`` if the class has one.
It also gets equality that needs the exact type, the repr
``Name(field=value, ...)`` and a reduce hook, so pickle and copy rebuild an
equal value through ``__init__``.  A frozen class (the default) refuses
assignment and deletion and hashes by value; ``frozen=False`` makes it
mutable and unhashable.  The field names, in declaration order, are the
class attribute ``_fields``.

Every method is a closure over the class's field names, so building a class
compiles no code.  Writing each method's source and ``exec``-ing it costs
about 1.2 ms a class, which every CLI process would pay at import.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["factory", "value"]


class factory:
    """A field default built for each instance by calling ``make()``."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        self.make = make


def value(cls=None, /, *, frozen: bool = True):
    """Make ``cls`` a value type; use as ``@value`` or ``@value(frozen=False)``."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _build(cls: type, frozen: bool) -> type:
    names = tuple(cls.__annotations__)
    qualname = cls.__qualname__
    ns = {key: item for key, item in cls.__dict__.items() if key not in ("__dict__", "__weakref__")}
    defaults = {name: ns.pop(name) for name in names if name in ns}
    post_init = ns.get("__post_init__")
    n = len(names)
    # attrgetter gives a bare value for one name and takes no fewer.
    field_values = attrgetter(*names) if n > 1 else lambda obj: tuple(getattr(obj, name) for name in names)

    def bind(args: tuple, kwargs: dict) -> list:
        if len(args) > n:
            raise TypeError(f"{qualname}() takes {n} arguments but {len(args)} were given")
        bound = list(args)
        for name in names[len(args) :]:
            if name in kwargs:
                bound.append(kwargs.pop(name))
            elif name in defaults:
                default = defaults[name]
                bound.append(default.make() if type(default) is factory else default)
            else:
                raise TypeError(f"{qualname}() missing argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{qualname}() got {problem} argument {name!r}")
        return bound

    # Fields go straight into the instance dict, past any __setattr__.
    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return field_values(self) == field_values(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={item!r}" for name, item in zip(names, field_values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), field_values(self)

    ns.update(
        __qualname__=qualname, _fields=names, __init__=__init__, __eq__=__eq__, __repr__=__repr__,
        __reduce__=__reduce__,
    )
    if frozen:

        def __hash__(self) -> int:
            return hash(field_values(self))

        def __setattr__(self, name: str, item) -> None:
            raise AttributeError(f"{qualname} is frozen: cannot assign to {name!r}")

        def __delattr__(self, name: str) -> None:
            raise AttributeError(f"{qualname} is frozen: cannot delete {name!r}")

        ns.update(__hash__=__hash__, __setattr__=__setattr__, __delattr__=__delattr__)
    else:
        ns["__hash__"] = None
    return type(cls)(cls.__name__, cls.__bases__, ns)
