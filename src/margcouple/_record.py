"""Frozen value classes, made by one small decorator instead of ``dataclasses``.

Importing :mod:`dataclasses` pulls in :mod:`inspect`, and its decorator
compiles six methods per class from generated source; together that was
most of ``import margcouple``, which every run of the command line pays
before any work.  :func:`record` gives the package's value classes the
behaviour they used, from one ``exec`` of three methods per class and
three methods shared by all.  What it keeps:

* ``__init__`` taking every annotated field, in order, positionally or by
  keyword.  No field has a default, so a missing, extra or repeated
  argument is the interpreter's own ``TypeError``.  ``__post_init__`` runs
  last, when the class has one, and may set fields with
  ``object.__setattr__``.
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

The generated functions carry the class's module name and qualified name,
so they look like methods written in the class body to anything that walks
the package.  Nothing else of dataclasses is kept: no ordering, no
``__match_args__``, no generated docstring, no ``replace`` or ``asdict``,
no recursive-repr guard (records never contain themselves) and no field
inheritance (no record subclasses another).
"""


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
    """Make ``cls`` a frozen record of its annotated fields; see the module docstring."""
    names = tuple(cls.__annotations__)
    ns = {"__name__": cls.__module__, "_set": object.__setattr__}
    body = [f"    _set(self, {name!r}, {name})\n" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()\n")
    mine = "".join(f"self.{name}," for name in names)
    theirs = "".join(f"other.{name}," for name in names)
    exec(
        f"def __init__(self, {', '.join(names)}):\n{''.join(body)}"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash(({mine}))\n",
        ns,
    )
    for method in ("__init__", "__eq__", "__hash__"):
        ns[method].__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, ns[method])
    cls._fields = names
    cls.__repr__ = _repr
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls
