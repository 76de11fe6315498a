"""Box diagrams in the n x n grid and the orthodontia algorithm.

A diagram is a sequence of n columns, each a subset of [n]; the box
(i, j) sits in row i of column j, read like matrix indices.  Columns are
kept at their original indices throughout -- emptied columns are not
compacted, so positions stay stable while the algorithm rewrites them.

The orthodontia algorithm repeatedly straightens the first nonempty
column by swapping the pair of adjacent rows at its smallest "missing
tooth", stripping standard-interval columns as they appear, and records

- the row-swap positions (one per step),
- the multiplicities of standard-interval columns removed up front, and
- the multiplicity of columns standardized by each swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterable, Iterator

from orthodontia.permutation import Permutation
from orthodontia.polynomial import Monomial


class OrthodontiaError(RuntimeError):
    """The algorithm could not finish; the diagram was not an ordered strongly separated one."""


def _interval(size: int) -> frozenset[int]:
    return frozenset(range(1, size + 1))


def _is_standard(column: frozenset[int]) -> bool:
    return len(column) == 0 or column == _interval(len(column))


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
    D: Diagram, keep_trace: bool
) -> tuple[OrthodonticSequence, list[tuple[str, Diagram]]]:
    n = D.n
    cols = list(D.columns)
    trace: list[tuple[str, Diagram]] = []

    def snapshot(label: str) -> None:
        if keep_trace:
            trace.append((label, Diagram(n, tuple(cols))))

    snapshot("start")
    interval_mults = [0] * n
    for idx, c in enumerate(cols):
        if c and _is_standard(c):
            interval_mults[len(c) - 1] += 1
            cols[idx] = frozenset()
    snapshot("strip standard columns")

    teeth: list[int] = []
    tooth_mults: list[int] = []
    # generous safety cap; ordered strongly separated input stays well below it
    max_steps = n * n * n + n * n + D.box_count() + 1
    while True:
        first = next((c for c in cols if c), None)
        if first is None:
            break
        tooth = missing_tooth(first)
        if tooth is None:
            raise OrthodontiaError(
                f"nonempty column {sorted(first)} has no missing tooth; "
                "columns are not in strongly separated order"
            )
        if len(teeth) >= max_steps:
            raise OrthodontiaError("step limit exceeded; diagram is not strongly separated")
        teeth.append(tooth)
        swapped = []
        for c in cols:
            lo, hi = tooth in c, tooth + 1 in c
            if lo != hi:
                c = (c - {tooth, tooth + 1}) | {tooth if hi else tooth + 1}
            swapped.append(c)
        cols = swapped
        target = _interval(tooth)
        count = sum(1 for c in cols if c == target)
        tooth_mults.append(count)
        if count:
            cols = [frozenset() if c == target else c for c in cols]
        snapshot(f"swap rows {tooth},{tooth + 1}")

    seq = OrthodonticSequence(tuple(teeth), tuple(interval_mults), tuple(tooth_mults))
    return seq, trace


def orthodontia(D: Diagram) -> OrthodonticSequence:
    """Run the orthodontia algorithm on D.

    D must be the Rothe diagram of a permutation, or a strongly separated
    diagram whose columns already satisfy the pairwise order enforced by
    :func:`sort_columns`; otherwise :class:`OrthodontiaError` is raised.
    """
    seq, _ = _run_orthodontia(D, keep_trace=False)
    return seq


def orthodontia_trace(D: Diagram) -> tuple[OrthodonticSequence, list[tuple[str, Diagram]]]:
    """Like :func:`orthodontia`, also returning labeled intermediate diagrams."""
    return _run_orthodontia(D, keep_trace=True)


def upper_closure(D: Diagram) -> Diagram:
    """Complete each nonempty column upward to the interval {1..max}."""
    return Diagram(D.n, tuple(_interval(max(c)) if c else frozenset() for c in D.columns))


def closure_monomial(D: Diagram) -> Monomial:
    """The upper-closure monomial: row i counts columns whose lowest box is in row i or below."""
    maxima = [max(c) for c in D.columns if c]
    return tuple(sum(1 for m in maxima if m >= i) for i in range(1, D.n + 1))


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

    The sort is stable: an already-ordered diagram (any Rothe diagram, in
    particular) comes back unchanged.  Raises ValueError if D is not
    strongly separated.
    """

    def compare(c: frozenset[int], d: frozenset[int]) -> int:
        forward = _column_pair_ordered(c, d)
        backward = _column_pair_ordered(d, c)
        if forward and backward:
            return 0
        if forward:
            return -1
        if backward:
            return 1
        raise ValueError("diagram is not strongly separated")

    ordered = sorted(D.columns, key=cmp_to_key(compare))
    result = Diagram(D.n, tuple(ordered))
    cols = result.columns
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            if not _column_pair_ordered(cols[i], cols[j]):
                raise ValueError("columns admit no strongly separated order")
    return result
