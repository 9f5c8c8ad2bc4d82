"""Immutable value classes built without generated code.

A subclass of ``Value`` takes its annotated attributes, other than the
``ClassVar`` ones, as its fields and their class values as defaults, in the
order ``dataclasses`` uses.  It gets positional and keyword construction, a
call to its ``__post_init__`` if it has one, equality (same class only), hash
and ``Name(field=value, ...)`` repr by field value, and attributes that
refuse assignment and deletion.  Instances keep a ``__dict__``, so
``functools.cached_property`` works on them.  ``dataclasses`` would import
``inspect`` and compile each class's methods with ``exec``; this costs
neither.
"""


class Value:
    """Base of an immutable record; equality and hash read ``_values``, the
    tuple of field values built once per instance."""

    _fields = ()
    _values = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        annotations = {}
        for klass in reversed(cls.__mro__):
            annotations.update(klass.__dict__.get("__annotations__", {}))
        cls._fields = names = tuple(
            name for name, kind in annotations.items()
            if not str(kind).startswith(("ClassVar", "typing.ClassVar")))
        if names and "__init__" not in cls.__dict__:
            cls.__init__ = _initializer(cls, names)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"


#: Sets an instance's ``__dict__`` past ``Value.__setattr__``.
_set_state = Value.__dict__["__dict__"].__set__


def _initializer(cls, names):
    """``cls.__init__``: a dict bound from the arguments and the defaults
    becomes the instance's ``__dict__``, with its values in field order as
    ``_values``; a call that does not bind every field once raises the
    ``TypeError`` a generated ``__init__`` would."""
    n = len(names)
    defaults = {name: getattr(cls, name) for name in names
                if hasattr(cls, name)}
    post_init = getattr(cls, "__post_init__", None)
    title = cls.__qualname__

    def __init__(self, *args, **kwargs):
        if len(args) > n:
            raise TypeError(f"{title}() takes {n} positional arguments but "
                            f"{len(args)} were given")
        state = dict(zip(names, args))
        for name in kwargs:
            if name in state:
                raise TypeError(
                    f"{title}() got multiple values for argument {name!r}")
            if name not in names:
                raise TypeError(
                    f"{title}() got an unexpected keyword argument {name!r}")
        state = {**defaults, **state, **kwargs}
        if len(state) < n:
            missing = next(name for name in names if name not in state)
            raise TypeError(f"{title}() missing required argument {missing!r}")
        state["_values"] = tuple([state[name] for name in names])
        _set_state(self, state)
        if post_init is not None:
            post_init(self)

    return __init__
