"""Immutable value records, the form of every value class of the package.

`record` takes a class whose body annotates its fields, in order, with
no defaults, and gives it:

- an `__init__` with exactly those parameters, positional or keyword,
  which calls `__post_init__` when the class defines one;
- equality between instances of the very same class, field by field,
  and a hash of the field values; with ``eq=False``, identity for both;
- the repr ``Name(field=value, ...)``, unless the class writes its own;
- AttributeError on any assignment or deletion (`__post_init__` sets a
  field with `object.__setattr__`);
- when the class defines `__post_init__`, a private classmethod
  `_trusted`, with the parameters of `__init__`, that sets the fields
  in order and does not call `__post_init__`.

`_trusted` is for values the package computed itself from checked input,
already in the form `__post_init__` would store (a tuple of ints where it
would coerce to one) and already meeting its conditions: the factors an
elimination read off its pivots, an element it reduced, a graph whose
wire form `graph_from_dict` checked.  It is never for anything read from
outside the package, a caller's argument included: those go through the
class itself, whose checks and messages `_trusted` leaves unchanged.

Only `__init__` and `_trusted` are compiled, once per class, so that
they take their arguments as a plain function does (a class without
checks gets no `_trusted`, which would only repeat its `__init__` at
the cost of one more compile on import); equality and hash read the
fields through one `operator.attrgetter` per class.  Instances keep a
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
    namespace = {"_set": object.__setattr__, "_new": object.__new__}
    if hasattr(cls, "__post_init__"):
        exec(
            f"def __init__(self{params}):{body}\n    self.__post_init__()\n"
            f"def _trusted(cls{params}):\n    self = _new(cls){body}\n    return self",
            namespace,
        )
        trusted = namespace["_trusted"]
        trusted.__qualname__ = f"{cls.__qualname__}._trusted"
        cls._trusted = classmethod(trusted)
    else:
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
