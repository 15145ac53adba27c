"""Error types, the frozen record base and the linear-space underflow
floor shared across the library.

Argument and domain violations raise plain ValueError; the classes here
cover failures of the numerical machinery itself.
"""

from dataclasses import FrozenInstanceError, dataclass, fields

UNDERFLOW_LIMIT = 1e-300           # probabilities below this exist only in log space


class Record:
    """Frozen base of the library's records.

    A record is declared by subclassing this class alone, with annotated
    fields.  __init_subclass__ makes the subclass a dataclass that
    generates no method (init=False, repr=False, eq=False), so
    dataclasses.fields, replace and asdict work on it, while the methods
    the decorator would generate, and compile with exec at every import,
    come from here: __init__ (positional or keyword, every field
    required, then __post_init__ where defined), __setattr__ and
    __delattr__ raising FrozenInstanceError, the dataclass repr, and
    equality and hash by the field values.  A record compared by
    identity sets __eq__ = object.__eq__ and __hash__ = object.__hash__
    in its body.
    """

    def __init_subclass__(cls):
        dataclass(cls, init=False, repr=False, eq=False)
        # (field names in declaration order, __post_init__ or None)
        cls._spec = (tuple(f.name for f in fields(cls)), getattr(cls, "__post_init__", None))

    def __init__(self, *args, **kwargs):
        names, post = self._spec
        values = kwargs
        if args:
            if len(args) > len(names) or not kwargs.keys().isdisjoint(names[:len(args)]):
                raise _arguments_error(self, args, kwargs)
            values = dict(zip(names, args), **kwargs)
        if len(values) != len(names):
            raise _arguments_error(self, args, kwargs)
        # one store per field into the instance dict, in field order: as
        # fast as the generated __init__, where building a dict first and
        # updating __dict__ with it took twice as long (Python 3.11)
        state = self.__dict__
        try:
            for name in names:
                state[name] = values[name]
        except KeyError:
            raise _arguments_error(self, args, kwargs) from None
        if post is not None:
            post(self)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple(map(self.__dict__.__getitem__, self._spec[0]))

    def __repr__(self):
        cells = map("{}={!r}".format, self._spec[0], self._values())
        return f"{type(self).__qualname__}({', '.join(cells)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


def _arguments_error(record, args, kwargs):
    names = ", ".join(record._spec[0])
    return TypeError(f"{type(record).__qualname__}() takes each of its fields ({names}) "
                     f"once, got {len(args)} positional and the keywords {sorted(kwargs)}")


class SolverError(RuntimeError):
    """An iterative solver stopped without reaching its tolerance.

    Carries the iteration count, the last iterate, and the residuals at
    that iterate so callers can diagnose or restart.
    """

    def __init__(self, message, iterations=None, last_iterate=None, residuals=None):
        super().__init__(message)
        self.iterations = iterations
        self.last_iterate = last_iterate
        self.residuals = residuals


class NumericalError(RuntimeError):
    """A computed quantity failed a validity check (positivity, spectral
    bounds, consistency gates, quadrature termination)."""
