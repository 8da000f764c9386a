"""Immutable value records, the form of every value class of the package.

`record` takes a class whose body annotates its fields, in order, with
no defaults, and gives it:

- an `__init__` with exactly those parameters, positional or keyword,
  which calls `__post_init__` when the class defines one;
- equality between instances of the very same class, field by field,
  and a hash of the field values; with ``eq=False``, identity for both;
- the repr ``Name(field=value, ...)``, unless the class writes its own;
- AttributeError on any assignment or deletion (`__post_init__` sets a
  field with `object.__setattr__`).

Only `__init__` is compiled, once per class, so that it takes its
arguments as a plain function does; equality and hash read the fields
through one `operator.attrgetter` per class.  Instances keep a
`__dict__`, so `functools.cached_property`, `copy` and `pickle` work as
on any plain object.  The module imports only `operator`: the standard
library's decorator for such classes imports `inspect`, which took
longer to load than the rest of the package.
"""

from __future__ import annotations

import operator

__all__ = ["record"]


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls=None, *, eq: bool = True):
    """Make `cls` an immutable record; use as ``@record`` or ``@record(eq=False)``."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    params = "".join(f", {name}" for name in names)
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    namespace = {"_set": object.__setattr__}
    exec(f"def __init__(self{params}):{body}", namespace)
    methods = [namespace["__init__"]]

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"

    if "__repr__" not in cls.__dict__:
        methods.append(__repr__)
    if eq:
        values = operator.attrgetter(*names)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self) -> int:
            return hash(values(self))

        methods += [__eq__, __hash__]
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls
