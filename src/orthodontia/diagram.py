"""Box diagrams in the n x n grid and the orthodontia algorithm.

A diagram is a sequence of n columns, each a subset of [n]; the box
(i, j) sits in row i of column j, read like matrix indices.

The orthodontia algorithm repeatedly straightens the first nonempty
column by swapping the pair of adjacent rows at its smallest "missing
tooth", stripping standard-interval columns as they appear, and records

- the row-swap positions (one per step),
- the multiplicities of standard-interval columns removed up front, and
- the multiplicity of columns standardized by each swap.

The algorithm itself runs on column masks, one int per column with bit
i-1 standing for row i, and drops each column once it is emptied.
:func:`rothe_masks` builds the masks of a Rothe diagram from the
one-line word, so a caller that starts from a permutation needs no
:class:`Diagram`.  Only :func:`orthodontia_trace` builds diagrams again,
with every column in its place.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from orthodontia.permutation import Permutation
from orthodontia.polynomial import Monomial


class OrthodontiaError(RuntimeError):
    """A nonempty first column without a missing tooth, or more steps than the cap.

    Neither can happen (see :func:`orthodontia`); the error guards that.
    """


def _interval(size: int) -> frozenset[int]:
    return frozenset(range(1, size + 1))


@dataclass(frozen=True)
class Diagram:
    """A subset of the n x n grid, stored column by column."""

    n: int
    columns: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("grid size must be at least 1")
        if len(self.columns) != self.n:
            raise ValueError(f"expected {self.n} columns, got {len(self.columns)}")
        for c in self.columns:
            if any(not 1 <= i <= self.n for i in c):
                raise ValueError(f"column entries {sorted(c)} outside 1..{self.n}")

    @classmethod
    def from_columns(cls, n: int, columns: Iterable[Iterable[int]]) -> Diagram:
        return cls(n, tuple(frozenset(c) for c in columns))

    @classmethod
    def empty(cls, n: int) -> Diagram:
        return cls(n, (frozenset(),) * n)

    def boxes(self) -> Iterator[tuple[int, int]]:
        """All boxes (row, column), column-major, rows ascending."""
        for j, c in enumerate(self.columns, start=1):
            for i in sorted(c):
                yield (i, j)

    def box_count(self) -> int:
        return sum(len(c) for c in self.columns)

    def is_empty(self) -> bool:
        return all(not c for c in self.columns)

    def render_ascii(self) -> str:
        """Rows top to bottom; a box prints as a square, an empty cell as a dot."""
        lines = []
        for i in range(1, self.n + 1):
            lines.append(" ".join("□" if i in c else "·" for c in self.columns))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"n": self.n, "columns": [sorted(c) for c in self.columns]}

    @classmethod
    def from_json(cls, obj: dict) -> Diagram:
        return cls.from_columns(int(obj["n"]), obj["columns"])


@dataclass(frozen=True)
class OrthodonticSequence:
    """Output of the orthodontia algorithm.

    ``teeth``:      row positions of the successive swaps, one per step.
    ``interval_multiplicities``: entry j-1 counts columns equal to {1..j}
                    stripped before any swap.
    ``tooth_multiplicities``: entry t counts columns standardized (and
                    stripped) by swap t.
    """

    teeth: tuple[int, ...]
    interval_multiplicities: tuple[int, ...]
    tooth_multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.teeth) != len(self.tooth_multiplicities):
            raise ValueError("teeth and tooth multiplicities must have equal length")
        if any(v < 0 for v in self.interval_multiplicities) or any(
            v < 0 for v in self.tooth_multiplicities
        ):
            raise ValueError("multiplicities must be nonnegative")

    @property
    def step_count(self) -> int:
        return len(self.teeth)


def rothe_diagram(w: Permutation) -> Diagram:
    """The boxes (i, j) with i < w^{-1}(j) and j < w(i).

    The number of boxes equals the number of inversions of w.
    """
    word = w.word
    n = len(word)
    position = [0] * (n + 1)
    for i, v in enumerate(word, start=1):
        position[v] = i
    cols = tuple(
        frozenset(i for i in range(1, position[j]) if word[i - 1] > j) for j in range(1, n + 1)
    )
    return Diagram(n, cols)


def _rows(mask: int) -> list[int]:
    return [i for i in range(1, mask.bit_length() + 1) if mask >> (i - 1) & 1]


def _column_masks(D: Diagram) -> list[int]:
    return [sum(1 << (i - 1) for i in c) for c in D.columns]


def rothe_masks(word: Sequence[int]) -> list[int]:
    """The column masks of the Rothe diagram of the permutation with one-line word ``word``.

    Bit i-1 of mask j is set when i < w^{-1}(j) and w(i) > j, that is
    when the diagram has the box (i, j).  :func:`mask_orthodontia` and
    :func:`mask_closure` read them, so a caller that starts from the word
    builds no :class:`Diagram`.

    >>> rothe_masks((3, 1, 5, 4, 2))
    [1, 13, 0, 4, 0]
    >>> mask_orthodontia(rothe_masks((3, 1, 5, 4, 2)))
    OrthodonticSequence(teeth=(2, 3, 1), interval_multiplicities=(1, 0, 0, 0, 0), \
tooth_multiplicities=(0, 1, 1))
    """
    n = len(word)
    places = [0] * n  # places[v - 1]: the bit of the row holding v
    for i, v in enumerate(word):
        places[v - 1] = 1 << i
    masks = [0] * n
    larger = 0  # the rows holding a value above j
    for j in range(n - 1, -1, -1):
        place = places[j]
        masks[j] = larger & (place - 1)
        larger |= place
    return masks


def missing_tooth(column: Iterable[int]) -> int | None:
    """Smallest i with i not in the column but i+1 in it, or None.

    Only the empty column and the intervals {1..i} have no missing tooth.

    >>> missing_tooth({1, 2, 6})
    5
    >>> missing_tooth({1, 2, 3}) is None
    True
    """
    c = set(column)
    for i in sorted(c):
        if i - 1 >= 1 and i - 1 not in c:
            return i - 1
    return None


def _run_orthodontia(
    masks: Sequence[int], trace: list[tuple[str, list[int]]] | None
) -> OrthodonticSequence:
    # The columns left to straighten, in their order, with emptied ones
    # dropped.  When trace is a list, each snapshot is appended to it as
    # the masks of all n columns, each in its own place
    n = len(masks)
    interval_mults = [0] * n
    cols = []
    for c in masks:
        if c & (c + 1):
            cols.append(c)
        elif c:
            interval_mults[c.bit_length() - 1] += 1
    if trace is not None:
        places = [j for j, c in enumerate(masks) if c & (c + 1)]

        def snapshot(label: str) -> None:
            full = [0] * n
            for j, c in zip(places, cols):
                full[j] = c
            trace.append((label, full))

        trace.append(("start", list(masks)))
        snapshot("strip standard columns")

    teeth: list[int] = []
    tooth_mults: list[int] = []
    # a safety cap, which no diagram reaches (see orthodontia)
    max_steps = n * n * n + n * n + sum(map(int.bit_count, masks)) + 1
    while cols:
        first = cols[0]
        gaps = first >> 1 & ~first  # bit i-1: row i is empty and row i+1 is not
        if not gaps:
            raise OrthodontiaError(
                f"nonempty column {_rows(first)} has no missing tooth; "
                "columns are not in strongly separated order"
            )
        if len(teeth) >= max_steps:
            raise OrthodontiaError("step limit exceeded; diagram is not strongly separated")
        low = gaps & -gaps  # the tooth's row
        high = low << 1  # the row below it
        tooth = low.bit_length()
        teeth.append(tooth)
        # swap the two rows in each column that has exactly one of them,
        # the columns where adding low carries into high or sets it
        pair = low | high
        cols = [c ^ pair if (c + low) & high else c for c in cols]
        target = high - 1  # the interval {1..tooth}
        count = cols.count(target)
        tooth_mults.append(count)
        if count:
            if trace is not None:
                places = [j for j, c in zip(places, cols) if c != target]
            cols = [c for c in cols if c != target]
        if trace is not None:
            snapshot(f"swap rows {tooth},{tooth + 1}")

    return OrthodonticSequence(tuple(teeth), tuple(interval_mults), tuple(tooth_mults))


def mask_orthodontia(masks: Sequence[int]) -> OrthodonticSequence:
    """:func:`orthodontia` of the diagram whose column masks are ``masks``."""
    return _run_orthodontia(masks, None)


def orthodontia(D: Diagram) -> OrthodonticSequence:
    """Run the orthodontia algorithm on D.

    Every diagram runs to the end.  A swap at tooth t changes only the
    columns holding exactly one of rows t and t+1, so the only interval
    it can make is {1..t}, which is stripped at once: the first nonempty
    column always has a missing tooth.  Each swap lowers that column's
    row sum by one, which bounds the steps.  :class:`OrthodontiaError`
    guards these two facts and is never raised.

    The sequence drives the ascending formulas of
    :mod:`orthodontia.grothendieck`, which give the Schubert and
    Grothendieck polynomials on Rothe diagrams.  On other diagrams it
    is still defined, but the paper assigns it a meaning only when D is
    strongly separated with its columns in the order of
    :func:`sort_columns`.
    """
    return _run_orthodontia(_column_masks(D), None)


def orthodontia_trace(D: Diagram) -> tuple[OrthodonticSequence, list[tuple[str, Diagram]]]:
    """Like :func:`orthodontia`, also returning labeled intermediate diagrams.

    Every column keeps its place in the snapshots; a stripped column
    shows as empty.
    """
    snapshots: list[tuple[str, list[int]]] = []
    seq = _run_orthodontia(_column_masks(D), snapshots)
    return seq, [
        (label, Diagram(D.n, tuple(frozenset(_rows(c)) for c in masks)))
        for label, masks in snapshots
    ]


def upper_closure(D: Diagram) -> Diagram:
    """Complete each nonempty column upward to the interval {1..max}."""
    return Diagram(D.n, tuple(_interval(max(c)) if c else frozenset() for c in D.columns))


def closure_monomial(D: Diagram) -> Monomial:
    """The upper-closure monomial: row i counts columns whose lowest box is in row i or below."""
    return mask_closure(_column_masks(D))


def mask_closure(masks: Sequence[int]) -> Monomial:
    """:func:`closure_monomial` of the diagram whose column masks are ``masks``."""
    lowest = [c.bit_length() for c in masks if c]  # each column's lowest row
    return tuple(sum(1 for m in lowest if m >= i) for i in range(1, len(masks) + 1))


def diagram_monomial(D: Diagram) -> Monomial:
    """Exponent vector counting boxes per row: exponent of x_i = #boxes in row i."""
    exps = [0] * D.n
    for c in D.columns:
        for i in c:
            exps[i - 1] += 1
    return tuple(exps)


def _elementwise_leq(r: frozenset[int], s: frozenset[int]) -> bool:
    # R <= S elementwise; vacuously true when either side is empty
    if not r or not s:
        return True
    return max(r) <= min(s)


def _column_pair_ordered(c: frozenset[int], d: frozenset[int]) -> bool:
    return _elementwise_leq(c - d, d - c)


def is_strongly_separated(D: Diagram) -> bool:
    """True iff every pair of columns is comparable under elementwise set difference.

    For columns C, C' this requires C\\C' elementwise <= C'\\C or vice versa.
    Rothe diagrams always qualify.
    """
    cols = D.columns
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            if not (
                _column_pair_ordered(cols[i], cols[j])
                or _column_pair_ordered(cols[j], cols[i])
            ):
                return False
    return True


def sort_columns(D: Diagram) -> Diagram:
    """Reorder columns so earlier \\ later is elementwise below later \\ earlier.

    A diagram whose columns are already in such an order (any Rothe
    diagram, in particular) comes back unchanged.  Otherwise, of two
    columns, the one holding the smallest row of their symmetric
    difference goes first; equal columns keep their order.  This total
    order agrees with every pair that has only one valid order, so it
    orders any strongly separated diagram.  Raises ValueError if D is not
    strongly separated.

    >>> sort_columns(Diagram.from_columns(4, [{1}, {2}, {1, 2}, {1}])).columns
    (frozenset({1, 2}), frozenset({1}), frozenset({1}), frozenset({2}))
    """
    if not is_strongly_separated(D):
        raise ValueError("diagram is not strongly separated")
    if all(_column_pair_ordered(c, d) for c, d in combinations(D.columns, 2)):
        return D
    rows = range(1, D.n + 1)
    return Diagram(D.n, tuple(sorted(D.columns, key=lambda c: [r not in c for r in rows])))
