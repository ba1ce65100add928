"""The immutable record base of the package's value types: the fields are the
class annotations, in order; equality, hash and repr follow the field tuple.
`is_integer` is the records' one integer rule, and `freeze` their one table
rule: it checks a cell or a table, with its sizes and keys, and returns a
frozen copy of it."""
from types import MappingProxyType

from .errors import SchemaError


def is_integer(x: object) -> bool:
    """An int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def container(value, where: str, level):
    """value, if a table level `level` takes it: a list or a tuple (a JSON array)
    for `tuple` or for an int n, then of exactly n entries; a dict or a read-only
    mapping (an object) for `MappingProxyType` or for a tuple of names, then
    with exactly those keys."""
    array = level is tuple or is_integer(level)
    if not isinstance(value, (list, tuple) if array else (dict, MappingProxyType)):
        raise SchemaError(f"{where} must be {'an array' if array else 'an object'}")
    if is_integer(level) and len(value) != level:
        raise SchemaError(f"{where} must have {level} entries")
    if isinstance(level, tuple) and value.keys() != set(level):
        raise SchemaError(f"{where} must have the keys {', '.join(level)}")
    return value


def freeze(value, where: str, levels: tuple = ()):
    """value as `levels` of containers (outermost first, each a `container`
    level) over ints that are not bools, each level copied.  A container of the
    wrong kind, size or keys is named (`d8.defs.D1 must be an object`,
    `d8.gram[2] must have 8 entries`), a bad cell is named by its path and
    printed (`chi_matrix[0][0]: 1.0 is not an integer`)."""
    if not levels:
        if not is_integer(value):
            raise SchemaError(f"{where}: {value!r} is not an integer")
        return value
    if isinstance(container(value, where, levels[0]), (list, tuple)):
        return tuple(freeze(x, f"{where}[{i}]", levels[1:]) for i, x in enumerate(value))
    return MappingProxyType({k: freeze(x, f"{where}.{k}", levels[1:]) for k, x in value.items()})


class Record:
    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            values = dict(zip(names, args), **kwargs)
            if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields {names}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):   # not via __dict__, which slows every read
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"
