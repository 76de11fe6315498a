"""Box diagrams in the n x n grid and the orthodontia algorithm.

A :class:`Diagram` is its n column masks, one int per column: bit i-1
of mask j is the box (i, j), in row i of column j, read like matrix
indices.  Everything here works on the masks; only the edges turn them
into rows: :meth:`Diagram.from_columns` and the JSON and ASCII forms, a
derived :attr:`Diagram.columns` of frozensets, and :meth:`Diagram.boxes`.
:func:`rothe_masks` builds a Rothe diagram's masks from the one-line
word, and :func:`mask_orthodontia` and :func:`mask_closure` take bare
masks, so a caller that starts from a permutation needs no
:class:`Diagram`.

The orthodontia algorithm repeatedly straightens the first nonempty
column by swapping the pair of adjacent rows at its smallest "missing
tooth", stripping standard-interval columns as they appear, and records

- the row-swap positions (one per step),
- the multiplicities of standard-interval columns removed up front, and
- the multiplicity of columns standardized by each swap.

It drops each column once it is emptied; :func:`orthodontia_trace`
puts the columns back in their places in its snapshots.
"""

from __future__ import annotations

import operator
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

from orthodontia._value import Value
from orthodontia.permutation import Permutation
from orthodontia.polynomial import Monomial


class OrthodontiaError(RuntimeError):
    """A nonempty first column without a missing tooth, or more steps than the cap.

    Neither can happen (see :func:`orthodontia`); the error guards that.
    """


def _rows(mask: int) -> list[int]:
    # the rows of a column mask, ascending
    return [i for i in range(1, mask.bit_length() + 1) if mask >> (i - 1) & 1]


class Diagram(Value):
    """A subset of the n x n grid: ``masks[j-1]`` has bit i-1 set for the box (i, j)."""

    __slots__ = ("n", "masks")

    def __init__(self, n: int, masks: Sequence[int]) -> None:
        try:
            n, masks = operator.index(n), tuple(map(operator.index, masks))
        except TypeError:
            raise ValueError(f"grid size {n!r} and column masks {masks!r:.40} must be ints") from None
        if n < 1:
            raise ValueError("grid size must be at least 1")
        if len(masks) != n:
            raise ValueError(f"expected {n} columns, got {len(masks)}")
        for c in masks:
            if c < 0 or c >> n:
                raise ValueError(f"column mask {c} outside 0..{(1 << n) - 1}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", masks)

    @classmethod
    def from_columns(cls, n: int, columns: Iterable[Iterable[int]]) -> Diagram:
        """The diagram whose column j holds the rows in ``columns[j-1]``."""
        masks = []
        for j, column in enumerate(columns, start=1):
            try:
                rows = set(map(operator.index, column))
            except TypeError:
                raise ValueError(f"column {j} has a row that is not an int") from None
            if any(not 1 <= i <= n for i in rows):
                raise ValueError(f"column entries {sorted(rows)} outside 1..{n}")
            masks.append(sum(1 << (i - 1) for i in rows))
        return cls(n, tuple(masks))

    @classmethod
    def empty(cls, n: int) -> Diagram:
        return cls(n, (0,) * n)

    @property
    def columns(self) -> tuple[frozenset[int], ...]:
        """Each column as the set of its rows."""
        return tuple(frozenset(_rows(c)) for c in self.masks)

    def boxes(self) -> Iterator[tuple[int, int]]:
        """All boxes (row, column), column-major, rows ascending."""
        for j, c in enumerate(self.masks, start=1):
            for i in _rows(c):
                yield (i, j)

    def box_count(self) -> int:
        return sum(map(int.bit_count, self.masks))

    def is_empty(self) -> bool:
        return not any(self.masks)

    def render_ascii(self) -> str:
        """Rows top to bottom; a box prints as a square, an empty cell as a dot."""
        return "\n".join(
            " ".join("□" if c >> i & 1 else "·" for c in self.masks) for i in range(self.n)
        )

    def to_json(self) -> dict:
        return {"n": self.n, "columns": [_rows(c) for c in self.masks]}

    @classmethod
    def from_json(cls, obj: dict) -> Diagram:
        """The diagram of :meth:`to_json`'s form: an object with n and a
        list of columns, each a list of rows."""
        if not isinstance(obj, dict) or not {"n", "columns"} <= obj.keys():
            raise ValueError(f"diagram JSON {obj!r:.40} is not an object with n and columns")
        if not isinstance(obj["columns"], (list, tuple)):
            raise ValueError(f"diagram columns {obj['columns']!r:.40} are not a list")
        try:
            n = operator.index(obj["n"])
        except TypeError:
            raise ValueError(f"grid size {obj['n']!r} is not an int") from None
        return cls.from_columns(n, obj["columns"])


class _SequenceFields(NamedTuple):
    teeth: tuple[int, ...]
    interval_multiplicities: tuple[int, ...]
    tooth_multiplicities: tuple[int, ...]


class OrthodonticSequence(_SequenceFields):
    """Output of the orthodontia algorithm, a read-only tuple record.

    ``teeth``:      row positions of the successive swaps, one per step.
    ``interval_multiplicities``: entry j-1 counts columns equal to {1..j}
                    stripped before any swap.
    ``tooth_multiplicities``: entry t counts columns standardized (and
                    stripped) by swap t.
    """

    __slots__ = ()

    def __new__(
        cls,
        teeth: tuple[int, ...],
        interval_multiplicities: tuple[int, ...],
        tooth_multiplicities: tuple[int, ...],
    ) -> OrthodonticSequence:
        if len(teeth) != len(tooth_multiplicities):
            raise ValueError("teeth and tooth multiplicities must have equal length")
        if min(interval_multiplicities, default=0) < 0 or min(tooth_multiplicities, default=0) < 0:
            raise ValueError("multiplicities must be nonnegative")
        return tuple.__new__(cls, (teeth, interval_multiplicities, tooth_multiplicities))

    @classmethod
    def _make(cls, iterable) -> OrthodonticSequence:
        # _replace builds through _make, so both go through the checks
        return cls(*iterable)

    @property
    def step_count(self) -> int:
        return len(self.teeth)


def rothe_diagram(w: Permutation) -> Diagram:
    """The boxes (i, j) with i < w^{-1}(j) and j < w(i), from :func:`rothe_masks`.

    The number of boxes equals the number of inversions of w.
    """
    return Diagram(w.n, tuple(rothe_masks(w.word)))


def rothe_masks(word: Sequence[int]) -> list[int]:
    """The column masks of the Rothe diagram of the permutation with one-line word ``word``.

    Bit i-1 of mask j is set when i < w^{-1}(j) and w(i) > j, that is
    when the diagram has the box (i, j).

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


def _run_orthodontia(
    masks: Sequence[int], trace: list[tuple[str, tuple[int, ...]]] | None
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
            trace.append((label, tuple(full)))

        trace.append(("start", tuple(masks)))
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
    return _run_orthodontia(D.masks, None)


def orthodontia_trace(D: Diagram) -> tuple[OrthodonticSequence, list[tuple[str, Diagram]]]:
    """Like :func:`orthodontia`, also returning labeled intermediate diagrams.

    Every column keeps its place in the snapshots; a stripped column
    shows as empty.
    """
    snapshots: list[tuple[str, tuple[int, ...]]] = []
    seq = _run_orthodontia(D.masks, snapshots)
    return seq, [(label, Diagram(D.n, masks)) for label, masks in snapshots]


def upper_closure(D: Diagram) -> Diagram:
    """Complete each nonempty column upward to the interval {1..max}."""
    return Diagram(D.n, tuple((1 << c.bit_length()) - 1 for c in D.masks))


def closure_monomial(D: Diagram) -> Monomial:
    """The upper-closure monomial: row i counts columns whose lowest box is in row i or below."""
    return mask_closure(D.masks)


def mask_closure(masks: Sequence[int]) -> Monomial:
    """:func:`closure_monomial` of the diagram whose column masks are ``masks``."""
    lowest = [c.bit_length() for c in masks if c]  # each column's lowest row
    return tuple(sum(1 for m in lowest if m >= i) for i in range(1, len(masks) + 1))


def diagram_monomial(D: Diagram) -> Monomial:
    """Exponent vector counting boxes per row: exponent of x_i = #boxes in row i."""
    return tuple(sum(c >> i & 1 for c in D.masks) for i in range(D.n))


def _column_pair_ordered(c: int, d: int) -> bool:
    # C\D <= D\C elementwise: every row of C\D is smaller than the
    # smallest row of D\C, vacuously when either side is empty
    rest = d & ~c
    return not rest or c & ~d < rest & -rest


def is_strongly_separated(D: Diagram) -> bool:
    """True iff every pair of columns is comparable under elementwise set difference.

    For columns C, C' this requires C\\C' elementwise <= C'\\C or vice versa.
    Rothe diagrams always qualify.
    """
    return all(
        _column_pair_ordered(c, d) or _column_pair_ordered(d, c)
        for c, d in combinations(D.masks, 2)
    )


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
    if all(_column_pair_ordered(c, d) for c, d in combinations(D.masks, 2)):
        return D
    # lex order on the complemented bits, row 1 first
    return Diagram(D.n, tuple(sorted(D.masks, key=lambda c: [~c >> i & 1 for i in range(D.n)])))
