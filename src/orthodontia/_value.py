"""The base of ``Permutation``, ``Diagram`` and ``Polynomial``: values that
cannot change, and that copy and pickle through their checks; and the one
rule by which the library takes an int: ``_int``, ``_ints`` and ``_count``
take values through ``operator.index``, so ``True`` is taken as 1, and a
float or a string raises ``ValueError``, never truncated.

>>> _count(1.5, "rank")
Traceback (most recent call last):
...
ValueError: rank 1.5 is not an int
"""

import operator
from typing import Iterable


def _int(value: int, what: str) -> int:
    """value as an int; a float or a string is refused, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an int") from None


def _ints(values: Iterable[int], what: str) -> tuple[int, ...]:
    """values as a tuple of ints, refused as a whole if one is not an int."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} {values!r} has a value that is not an int") from None


def _count(value: int, what: str) -> int:
    """value as an int of at least 1."""
    value = _int(value, what)
    if value < 1:
        raise ValueError(f"{what} must be at least 1")
    return value


class Value:
    """A value that ``__init__`` checks and stores in ``__slots__``, in argument order.

    >>> import copy, pickle
    >>> from orthodontia.polynomial import Polynomial
    >>> f = Polynomial(3, {(2, 1, 0): 2, (0, 0, 1): -1, (0, 0, 0): 1})
    >>> pickle.loads(pickle.dumps(f)) == f == copy.deepcopy(f)
    True
    >>> del f.terms
    Traceback (most recent call last):
    ...
    AttributeError: Polynomial is immutable
    """

    __slots__ = ()

    def __setattr__(self, *_: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        return self.__reduce__() == other.__reduce__() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self.__reduce__()[1])
        return f"{type(self).__name__}({', '.join(f'{name}={value!r}' for name, value in fields)})"
