"""Record classes, declared without generating code.

``@record`` or ``@record(frozen=True)`` turns a class's annotated fields, its
base record's first, into an ``__init__`` that takes them positionally or by
keyword in field order and then runs ``__post_init__``; a value ``__eq__``
and ``__repr__``; ``replace(**changes)``, a changed copy built through
``__init__``; and, when frozen, a ``__hash__`` and
``dataclasses.FrozenInstanceError`` on assignment or deletion.  A field's
default is a plain value or a ``dataclasses.field`` with a ``default``, a
per-instance ``default_factory``, or ``init``, ``repr`` or ``compare`` False.

It replaces ``dataclasses.dataclass``, which writes and compiles the source
of these methods for each class it decorates.  On the package's 31 records
that took a median 0.6-0.8 ms per frozen class and 0.5 ms per mutable one,
17-26 ms per import on a shared 2-vCPU VM, where all of ``geodyn run``'s
set-up took about 80 ms.  Here every record shares the functions below, which read the field
table kept on its class, so declaring one compiles nothing;
``tests/test_records.py`` keeps it so.
"""

from __future__ import annotations

from dataclasses import MISSING, Field, FrozenInstanceError, field

__all__ = ["record"]


def record(cls=None, /, *, frozen: bool = False):
    """Make ``cls`` a record class; usable bare or as ``record(frozen=True)``."""
    if cls is None:
        return lambda c: _make_record(c, frozen)
    return _make_record(cls, frozen)


def _make_record(cls, frozen: bool):
    fields = {f.name: f for f in getattr(cls, "_record_fields", ())}
    for name in vars(cls).get("__annotations__", {}):
        spec = vars(cls).get(name, MISSING)
        if not isinstance(spec, Field):
            spec = field(default=spec)
        spec.name = name
        if spec.default is MISSING:
            if name in vars(cls):
                delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
        fields[name] = spec
    cls._record_fields = tuple(fields.values())
    cls._record_params = tuple(f.name for f in cls._record_fields if f.init)
    cls.__init__ = _init
    cls.__repr__ = _repr
    cls.__eq__ = _eq
    cls.replace = _replace
    if frozen:
        cls.__hash__ = _hash
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    else:
        cls.__hash__ = None
    return cls


def _init(self, *args, **kwargs):
    cls = type(self)
    params = cls._record_params
    given = dict(zip(params, args))
    if len(args) > len(params) or not given.keys().isdisjoint(kwargs) \
            or not set(kwargs).issubset(params):
        raise TypeError(f"{cls.__name__}() takes ({', '.join(params)}); got "
                        f"{len(args)} positional and {sorted(kwargs)} by keyword")
    given.update(kwargs)
    for f in cls._record_fields:
        if f.name in given:
            value = given[f.name]
        elif f.default is not MISSING:
            value = f.default
        elif f.default_factory is not MISSING:
            value = f.default_factory()
        else:
            raise TypeError(f"{cls.__name__}() missing required argument {f.name!r}")
        # not through self.__dict__: on CPython 3.11 that turns the instance's
        # inline attribute values into a dict, and every later attribute read
        # gets about three times slower
        object.__setattr__(self, f.name, value)
    if hasattr(cls, "__post_init__"):
        self.__post_init__()


def _compared(self) -> tuple:
    return tuple(getattr(self, f.name) for f in self._record_fields if f.compare)


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _compared(self) == _compared(other)


def _hash(self):
    return hash(_compared(self))


def _repr(self) -> str:
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                      for f in self._record_fields if f.repr)
    return f"{type(self).__qualname__}({shown})"


def _replace(self, **changes):
    for name in self._record_params:
        changes.setdefault(name, getattr(self, name))
    return type(self)(**changes)


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")
