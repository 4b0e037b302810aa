"""Frozen value classes, made by one small decorator instead of ``dataclasses``.

Importing :mod:`dataclasses` pulls in :mod:`inspect`, and its decorator
compiles six methods per class from generated source; together that was
most of ``import margcouple``, which every run of the command line pays
before any work.  :func:`record` generates no code at all: each class
writes its own ``__init__``, and the decorator reads the field names off
that ``__init__``'s code object and attaches methods made from functions
compiled with this module.  What it keeps:

* The fields are the parameters of the class's own ``__init__``, in order,
  after ``self``.  Every one is required and taken by position or keyword,
  so a missing, extra or repeated argument is the interpreter's own
  ``TypeError``.  ``__init__`` checks and normalises its arguments and
  stores each field with :data:`setfield`, which is ``object.__setattr__``.
  :func:`record` refuses, with a ``TypeError`` naming the class, a class
  without its own ``__init__`` and an ``__init__`` with a default,
  ``*args``, ``**kwargs``, a keyword-only or positional-only parameter, or
  no field at all.
* Freezing: assigning or deleting any attribute raises
  :class:`FrozenInstanceError`, an ``AttributeError``.  ``functools.cached_property``
  still works, since it writes the instance ``__dict__`` directly.
* ``__eq__`` and ``__hash__`` over the tuple of fields, as dataclasses
  compute them, so equal records hash alike and a record never equals one
  of another class (``NotImplemented``).  A dict-valued field makes the
  record unhashable, as before.
* The repr ``Name(field=value, ...)``, which error messages embed.
* The field names, in order, as the class attribute ``_fields``, which only
  the repr reads; documents declare their own fields, in document order.

``__eq__`` and ``__hash__`` carry the class's module name and qualified
name, so they look like methods written in the class body to anything that
walks the package.  Nothing else of dataclasses is kept: no ordering, no
``__match_args__``, no generated docstring, no ``replace`` or ``asdict``,
no recursive-repr guard (records never contain themselves) and no field
inheritance (no record subclasses another).
"""

from operator import attrgetter

_STARRED = 0x04 | 0x08  # the code flags CO_VARARGS | CO_VARKEYWORDS: *args, **kwargs

# how a record's __init__ stores its fields past the frozen __setattr__: one
# global name, so each store is one lookup, not two (object, then __setattr__)
setfield = object.__setattr__


class FrozenInstanceError(AttributeError):
    """A field of a frozen record was assigned or deleted."""


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{self.__class__.__qualname__}({fields})"


def record(cls):
    """Make ``cls`` a frozen record of its ``__init__``'s fields; see the module docstring."""
    init = vars(cls).get("__init__")
    code = getattr(init, "__code__", None)
    if (
        code is None
        or init.__defaults__
        or code.co_flags & _STARRED
        or code.co_kwonlyargcount
        or code.co_posonlyargcount
        or code.co_argcount < 2
    ):
        raise TypeError(
            f"record {cls.__qualname__} needs its own __init__ taking each field "
            "as a required positional-or-keyword parameter"
        )
    names = code.co_varnames[1 : code.co_argcount]
    fields = attrgetter(*names)
    # the tuple of fields, a 1-tuple for one field, so hash(r) == hash(field tuple)
    key = fields if len(names) > 1 else lambda r: (fields(r),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    for method in (__eq__, __hash__):
        method.__module__ = cls.__module__
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls._fields = names
    cls.__repr__ = _repr
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls
