"""Frozen value records: the one base class of every result type.

A subclass lists its fields as annotated names in its class body, in
order, with a class attribute as the default where there is one; a field
without a default may not follow one with a default (``TypeError``).
Only the class's own annotations count, records do not subclass each
other, and names that begin with an underscore are the base's own.
Each subclass gets one generated ``__init__`` with the
positional-or-keyword signature of its fields; it loads the instance
dict once, writes each field into it with one store, and then calls
``__post_init__`` when the class defines one.  Instances are frozen:
assignment and deletion raise ``AttributeError``.  ``==`` and ``hash``
act on the tuple of field values, read by a generated ``_values`` with
one attribute load per field, and ``==`` against an instance of any
other class is ``NotImplemented``.  ``repr`` reads
``Name(field=value, ...)``.  Records are cache keys, so the hash is
computed once per instance and kept in its dict as ``_hash``, which a
frozen record cannot make stale; an unhashable field raises
``TypeError`` on every ``hash`` and keeps nothing.  String hashes differ
between processes, so records are not pickled.

The standard library's frozen record decorator gives the same
semantics, but its module imports ``inspect`` and it ``exec``s six
methods per class; this base imports nothing and ``exec``s two, which
keeps the cold start of every CLI process short.
"""

from __future__ import annotations

_MISSING = object()


class Record:
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", {}))
        params, env = [], {}
        seen_default = False
        for name in fields:
            default = cls.__dict__.get(name, _MISSING)
            if default is _MISSING:
                if seen_default:
                    raise TypeError(
                        f"non-default field {name!r} follows a default field in {cls.__name__}")
                params.append(name)
            else:
                seen_default = True
                env[f"_d_{name}"] = default
                params.append(f"{name}=_d_{name}")
        body = ["    _d = self.__dict__", *(f"    _d[{name!r}] = {name}" for name in fields)]
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()")
        src = (f"def __init__({', '.join(['self', *params])}):\n" + "\n".join(body)
               + "\ndef _values(self):\n    return (" + "".join(f"self.{n}, " for n in fields) + ")")
        exec(src, env)
        for name in ("__init__", "_values"):
            fn = env[name]
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            fn.__module__ = cls.__module__
            setattr(cls, name, fn)
        cls._fields = fields

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self.__dict__["_hash"] = hash(self._values())
            return h

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")
