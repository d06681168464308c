"""Frozen value records, built from a class's annotations.

``@record`` gives a class what ``@dataclass(frozen=True)`` would, without
generating source and executing it for each class, which cost about 5 ms of
every command's start:

- ``__init__`` over the annotated fields, in order, positional or keyword,
  trailing fields taking their class-level default, then ``__post_init__``
  if the class has one;
- ``__repr__`` as ``Name(field=value, ...)``, and ``__eq__`` and
  ``__hash__`` over the tuple of the same fields;
- ``AttributeError`` on assignment or deletion;
- ``__signature__`` and ``__match_args__`` for introspection.

A record is its constructor arguments: repr, ==, hash, pickle and copy see
nothing else. ``__post_init__`` checks, and returns what it normalises or
caches (a dict, or None); the class docstring names each cached value. One
setter stores the fields, then that dict, each array read-only: a writable
field as a copy, an array ``__post_init__`` made from the fields in place.
== and hash compare arrays bitwise, by dtype, shape and bytes: -0.0 differs
from 0.0, and a NaN equals itself.
"""

import inspect

import numpy as np

_KIND = inspect.Parameter.POSITIONAL_OR_KEYWORD
_EMPTY = inspect.Parameter.empty
# __init__ sets the fields one by one: reading self.__dict__ instead would
# give each instance a dict of its own and make every attribute read ~4x slower
_set = object.__setattr__


def _store(self, name, value, made=False):
    if isinstance(value, np.ndarray) and value.flags.writeable:
        value = value if made else value.copy(order="K")
        value.flags.writeable = False
    _set(self, name, value)


def _bits(value):
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to attribute {name!r}")


def _refuse_del(self, name):
    raise AttributeError(f"cannot delete attribute {name!r}")


def record(cls):
    """Make cls a frozen value record over its annotated fields."""
    signature = inspect.Signature([      # raises on a default before a required field
        inspect.Parameter(name, _KIND, default=cls.__dict__.get(name, _EMPTY))
        for name in cls.__annotations__])
    names = tuple(signature.parameters)
    n = len(names)
    tails = [set(names[k:]) for k in range(n + 1)]     # the fields after k positional arguments
    post_init = getattr(cls, "__post_init__", lambda self: None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            k = len(args)
            if k <= n and kwargs.keys() == tails[k]:        # the rest all by keyword
                args += tuple([kwargs[name] for name in names[k:]])
            else:                                           # defaults, or a TypeError
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                args = bound.args
        for name, value in zip(names, args):
            _store(self, name, value)
        for name, value in (post_init(self) or {}).items():
            _store(self, name, value, made=True)

    def key(self):
        return tuple([_bits(getattr(self, name)) for name in names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in names])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    for method in (__init__, __eq__, __hash__, __reduce__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_del
    cls.__signature__, cls.__match_args__ = signature, names
    return cls
