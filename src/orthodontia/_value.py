"""The base of ``Permutation``, ``Diagram`` and ``Polynomial``: values that
cannot change, and that copy and pickle through their checks."""


class Value:
    """A value that ``__init__`` checks and stores in ``__slots__``, in argument order.

    >>> import copy, pickle
    >>> from orthodontia.polynomial import Polynomial
    >>> f = Polynomial.parse("2*x1^2*x2 - x3 + 1", 3)
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
