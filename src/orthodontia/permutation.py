"""Permutations of [n] = {1, ..., n} in one-line notation.

A permutation w is stored as the tuple (w(1), ..., w(n)).  All group
operations act on the right and switch positions, not values: w * s_j is
w with the entries in positions j and j+1 swapped.

Permutations are immutable values; every operation returns a new one.
Permutations of different ranks never interact -- there is no implicit
embedding of S_n into S_{n+1}.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator, Sequence

from orthodontia._value import Value


class Permutation(Value):
    """An element of S_n, as the tuple of its one-line notation values."""

    __slots__ = ("word",)

    def __init__(self, word: Sequence[int]) -> None:
        word = tuple(word)
        n = len(word)
        if n == 0:
            raise ValueError("permutation must have rank at least 1")
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {word}")
        object.__setattr__(self, "word", word)

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        """The value w(i), for a 1-based position i.

        >>> Permutation((3, 1, 5, 4, 2))(1)
        3
        """
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} out of range for rank {self.n}")
        return self.word[i - 1]

    def inverse(self) -> Permutation:
        """The group inverse.

        >>> Permutation((3, 1, 5, 4, 2)).inverse().word
        (2, 5, 1, 4, 3)
        """
        inv = [0] * self.n
        for i, v in enumerate(self.word):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.word))

    def right_multiply_adjacent(self, j: int) -> Permutation:
        """w * s_j: swap the entries in positions j and j+1.

        >>> Permutation((3, 1, 5, 4, 2)).right_multiply_adjacent(1).word
        (1, 3, 5, 4, 2)
        """
        if not 1 <= j <= self.n - 1:
            raise ValueError(f"adjacent transposition s_{j} out of range for rank {self.n}")
        w = list(self.word)
        w[j - 1], w[j] = w[j], w[j - 1]
        return Permutation(tuple(w))

    def right_multiply_transposition(self, a: int, b: int) -> Permutation:
        """Right-multiply by a transposition: swap the entries in positions a and b.

        >>> Permutation((3, 1, 5, 4, 2)).right_multiply_transposition(1, 3).word
        (5, 1, 3, 4, 2)
        """
        if a == b:
            raise ValueError("transposition needs two distinct positions")
        if not (1 <= a <= self.n and 1 <= b <= self.n):
            raise ValueError(f"positions ({a}, {b}) out of range for rank {self.n}")
        w = list(self.word)
        w[a - 1], w[b - 1] = w[b - 1], w[a - 1]
        return Permutation(tuple(w))

    def length(self) -> int:
        """Number of inversions: pairs i < j with w(i) > w(j).

        >>> Permutation((3, 1, 5, 4, 2)).length()
        5
        """
        w = self.word
        return sum(1 for i in range(self.n) for j in range(i + 1, self.n) if w[i] > w[j])

    def descents(self) -> set[int]:
        """Positions j with w(j) > w(j+1).

        >>> sorted(Permutation((3, 1, 5, 4, 2)).descents())
        [1, 3, 4]
        """
        w = self.word
        return {j + 1 for j in range(self.n - 1) if w[j] > w[j + 1]}

    def ascents(self) -> set[int]:
        """Positions j with w(j) < w(j+1); the complement of the descents in [n-1]."""
        w = self.word
        return {j + 1 for j in range(self.n - 1) if w[j] < w[j + 1]}

    def one_line(self) -> list[int]:
        """One-line notation as a plain list, the JSON wire form."""
        return list(self.word)

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.word)
        return ",".join(str(v) for v in self.word)


def from_one_line(seq: Sequence[int]) -> Permutation:
    """Build a permutation from one-line notation, validating the input.

    Rejects sequences with repeats, gaps, values outside 1..n, or values
    that are not ints: a float or a string is not truncated.

    >>> from_one_line([3, 1, 5, 4, 2]).word
    (3, 1, 5, 4, 2)
    """
    try:
        word = tuple(map(operator.index, seq))
    except TypeError:
        raise ValueError(f"not a sequence of ints: {seq!r}") from None
    return Permutation(word)


def identity(n: int) -> Permutation:
    """The identity permutation in S_n."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    return Permutation(tuple(range(1, n + 1)))


def longest_element(n: int) -> Permutation:
    """The longest permutation n, n-1, ..., 1 in S_n.

    >>> longest_element(3).word
    (3, 2, 1)
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    return Permutation(tuple(range(n, 0, -1)))


def symmetric_group(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order on one-line notation.

    The fixed iteration order keeps exhaustive sweeps reproducible.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation(word)
