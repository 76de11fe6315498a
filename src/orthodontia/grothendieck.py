"""Schubert and Grothendieck polynomial constructors.

Two independent routes to the same polynomials:

- the classical recursions, descending the weak order from the longest
  element with divided-difference (Schubert) or isobaric (Grothendieck)
  operators, memoized per rank and run as loops, so their depth is not
  bounded by Python's recursion limit;
- the ascending operator formulas driven by the orthodontic sequence of
  the Rothe diagram, with Demazure operators for Schubert polynomials and
  Demazure-Lascoux operators for Grothendieck polynomials.

The two routes agree; the verification suites check this exhaustively at
small rank.  The module also carries the sorting machinery (primary
column data, the dominant projection, the unsorting monomial factor),
the transition expansion of x_j * G_w, and the step relation of the
orthodontic sort order.

A caller that evaluates the ascending formula on many diagrams can pass
a :class:`FormulaChain`, which keeps the polynomials along the last step
sequence so that shared step prefixes are applied once.

The memo caches are plain dicts keyed by one-line words, filled on
demand.  A forked worker fills its own copy.  Each memo value is a
read-only :class:`_Entry` ``(indices, coeffs, degree, max_exponents)``:
two arrays, each of the narrowest typecode that holds that entry's
values, then the polynomial's total degree and the largest exponent of
each variable, as n bytes, both worked out once when the entry is
frozen.  A Schubert entry leaves the exponents empty, since nothing
reads them.  The polynomial's packed keys are stored as indices into
one key table that both memos share: a list from index to key and a dict
from key to index, to which a key is appended when a frozen polynomial
first has it.  The memos of S_n use n! keys, so an index takes 1 byte
up to S_5 and 2 bytes up to S_8.  The coefficients take ``b``, ``h``,
``i`` or ``q`` (1 byte each up to S_6); one outside the signed 64-bit
range is refused, never truncated.  Only this module reads the terms:
:func:`_thaw` rebuilds a polynomial, and :func:`monk_residue_vanishes`
sums target entries into one list indexed by key index, which is all
zeros between calls.  The support checks of :mod:`orthodontia.analysis`
read only the degree and maximum exponents.  ``orthodontia compute``
keeps no memo: it runs the same walk with ``memo=None``, which stores
nothing and holds only the polynomial in hand, because one ``compute``
visits each word of its first-ascent chain once.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from itertools import repeat
from operator import add
from typing import NamedTuple

from orthodontia._value import _int
from orthodontia.diagram import (
    Diagram,
    OrthodonticSequence,
    diagram_monomial,
    mask_orthodontia,
    orthodontia,
    rothe_diagram,
    rothe_masks,
)
from orthodontia.operators import demazure, demazure_lascoux, divided_difference, isobaric
from orthodontia.permutation import Permutation
from orthodontia.polynomial import (
    Monomial,
    Polynomial,
    _Owned,
    _degree,
    _max_exponents,
    fundamental_weight,
)


class RankOverflowError(ValueError):
    """A transition chain left S_n; the caller must re-embed w in a larger rank.

    Its args are j, w and n; the message is formatted only when read, so
    a caller that skips the pair builds no string.
    """

    def __str__(self) -> str:
        j, w, n = self.args
        return (
            f"expansion of x_{j} * G_w for w={w} leaves S_{n} "
            f"(swapping positions {j} and {n + 1} raises the length by one)"
        )


class _Entry(NamedTuple):
    """A memo value: the terms of one polynomial and a summary of them."""

    indices: array  # each term's key, as its index in _KEY_LIST
    coeffs: array  # each term's coefficient, in the same order
    degree: int  # the total degree; 0 for the zero polynomial
    max_exponents: bytes  # the largest exponent of each variable, n bytes; b"" in an S entry


_SCHUBERT_CACHE: dict[tuple[int, ...], _Entry] = {}
_GROTH_CACHE: dict[tuple[int, ...], _Entry] = {}


class _KeyIndex(dict):
    """The index of each packed key in ``_KEY_LIST``.  Looking up a key
    not seen before appends it there."""

    __slots__ = ()

    def __missing__(self, key: int) -> int:
        index = self[key] = len(_KEY_LIST)
        _KEY_LIST.append(key)
        return index


# the memos' key table: index to packed key, and packed key to index
_KEY_LIST: list[int] = []
_KEY_INDEX = _KeyIndex()


def _narrowest(codes: str, values: list[int]) -> array:
    """values as an array of the first typecode in codes that holds them all;
    OverflowError when not even the last one does."""
    for code in codes[:-1]:
        try:
            return array(code, values)
        except OverflowError:
            pass
    return array(codes[-1], values)


def _freeze(f: Polynomial, *, maxima: bool = True) -> _Entry:
    """The memo entry of f; refuses a coefficient outside the signed 64-bit range.

    Without ``maxima`` the entry's maximum exponents are left empty.
    """
    n, terms = f.n, f.terms
    try:
        coeffs = _narrowest("bhiq", list(terms.values()))
    except OverflowError:
        big = next(c for c in terms.values() if not -(1 << 63) <= c < 1 << 63)
        raise OverflowError(
            f"coefficient {big} does not fit a memo entry's signed 64-bit coefficients"
        ) from None
    indices = _narrowest("BHIQ", list(map(_KEY_INDEX.__getitem__, terms)))
    degree = _degree(terms, n) if terms else 0
    if not maxima:
        return _Entry(indices, coeffs, degree, b"")
    return _Entry(indices, coeffs, degree, bytes(_max_exponents(terms, n) if terms else n))


def _keys(entry: _Entry) -> list[int]:
    """The packed keys of a memo entry, in its term order."""
    return list(map(_KEY_LIST.__getitem__, entry.indices))


def _thaw(n: int, entry: _Entry) -> Polynomial:
    """The polynomial in n variables of a memo entry."""
    return Polynomial._raw(n, dict(zip(_keys(entry), entry.coeffs)))


def _first_ascent(word: tuple[int, ...]) -> int | None:
    for j in range(1, len(word)):
        if word[j - 1] < word[j]:
            return j
    return None


def _staircase(n: int) -> Polynomial:
    return Polynomial.monomial(tuple(n - k for k in range(1, n + 1)))


def _descend(
    word: tuple[int, ...], op, memo: dict[tuple[int, ...], _Entry] | None = None
) -> Polynomial:
    # Walk up the weak order by first ascents to a memo hit or w0, then
    # apply op on the way back down, freezing every word's polynomial on
    # the chain into the memo; only the entry the walk continues from is
    # thawed.  Without a memo the walk stores nothing and owns its
    # polynomials (polynomial._Owned): each op empties the polynomial in
    # hand as it builds the next one.
    n = len(word)
    # the support checks read G_w's maximum exponents; nothing reads S_w's
    maxima = memo is _GROTH_CACHE
    chain: list[tuple[tuple[int, ...], int]] = []
    entry = None if memo is None else memo.get(word)
    while entry is None:
        j = _first_ascent(word)
        if j is None:
            poly = _staircase(n)
            if memo is not None:
                memo[word] = _freeze(poly, maxima=maxima)
            break
        chain.append((word, j))
        word = word[: j - 1] + (word[j], word[j - 1]) + word[j + 1 :]
        if memo is not None:
            entry = memo.get(word)
    else:  # the walk stopped at a memo hit
        poly = _thaw(n, entry)
    if memo is None:
        poly = _Owned._raw(n, dict(poly.terms))
    for word, j in reversed(chain):
        poly = op(j, poly)
        if memo is not None:
            memo[word] = _freeze(poly, maxima=maxima)
    return Polynomial._raw(n, poly.terms)


def schubert_recursive(w: Permutation) -> Polynomial:
    """The Schubert polynomial, by divided differences down from the staircase."""
    return _descend(w.word, divided_difference, _SCHUBERT_CACHE)


def grothendieck_recursive(w: Permutation) -> Polynomial:
    """The Grothendieck polynomial, by isobaric operators down from the staircase.

    Its lowest-degree homogeneous component is the Schubert polynomial.
    """
    return _descend(w.word, isobaric, _GROTH_CACHE)


def _schubert_entry(word: tuple[int, ...]) -> _Entry:
    """The memo entry of :func:`schubert_recursive` for the one-line word ``word``."""
    if word not in _SCHUBERT_CACHE:
        _descend(word, divided_difference, _SCHUBERT_CACHE)
    return _SCHUBERT_CACHE[word]


def _grothendieck_entry(word: tuple[int, ...]) -> _Entry:
    """The memo entry of :func:`grothendieck_recursive` for the one-line word ``word``."""
    if word not in _GROTH_CACHE:
        _descend(word, isobaric, _GROTH_CACHE)
    return _GROTH_CACHE[word]


Step = tuple[int, int]


def formula_steps(seq: OrthodonticSequence) -> tuple[Step, ...]:
    """The (tooth, multiplicity) steps of the ascending formula, in the order applied.

    This is the orthodontic sequence read backwards.  Diagrams whose step
    sequences share a prefix share the polynomial after that prefix.
    """
    return tuple(zip(reversed(seq.teeth), reversed(seq.tooth_multiplicities)))


class FormulaChain:
    """The steps of the last sequence evaluated through it, and the polynomial after each.

    Owned by the caller and passed to one kind of ascending formula only.
    Evaluating through the chain reuses the longest step prefix shared
    with the previous sequence and applies only the remaining steps, so
    a caller that visits sequences in step order applies each distinct
    prefix once.  A sequence of another rank starts it afresh.
    """

    __slots__ = ("steps", "polys")

    def __init__(self) -> None:
        self.steps: tuple[Step, ...] = ()
        self.polys: list[Polynomial] = []   # polys[k]: after the first k steps

    def clear(self) -> None:
        self.steps, self.polys = (), []


def _apply_step(f: Polynomial, step: Step, op) -> Polynomial:
    tooth, mult = step
    if mult:
        f = f.mul_monomial(tuple(mult * e for e in fundamental_weight(tooth, f.n)))
    return op(tooth, f)


def _evaluate_formula(
    seq: OrthodonticSequence, op, chain: FormulaChain | None = None
) -> Polynomial:
    n = len(seq.interval_multiplicities)
    steps = formula_steps(seq)
    if chain is None:  # a walk that keeps nothing owns its polynomials
        f = _Owned.one(n)
        for step in steps:
            f = _apply_step(f, step, op)
    else:
        if not chain.polys or chain.polys[0].n != n:
            chain.steps, chain.polys = (), [Polynomial.one(n)]
        polys = chain.polys
        shared = 0
        for old, new in zip(chain.steps, steps):
            if old != new:
                break
            shared += 1
        del polys[shared + 1 :]
        f = polys[shared]
        for step in steps[shared:]:
            f = _apply_step(f, step, op)
            polys.append(f)
        chain.steps = steps
    # prefix of interval-column weights collapses to a single monomial
    suffix_sums = [0] * n
    running = 0
    for j in range(n, 0, -1):
        running += seq.interval_multiplicities[j - 1]
        suffix_sums[j - 1] = running
    return Polynomial._raw(n, f.mul_monomial(tuple(suffix_sums)).terms)


def orthodontia_schubert(D: Diagram) -> Polynomial:
    """Evaluate the ascending Demazure-operator formula on a diagram.

    On Rothe diagrams this equals :func:`schubert_recursive`.  D must be
    strongly separated with its columns already ordered (see
    :func:`orthodontia.diagram.sort_columns`).
    """
    return _evaluate_formula(orthodontia(D), demazure)


def orthodontia_grothendieck(D: Diagram) -> Polynomial:
    """Evaluate the ascending Demazure-Lascoux formula on a diagram.

    On Rothe diagrams this equals :func:`grothendieck_recursive`.
    """
    return _evaluate_formula(orthodontia(D), demazure_lascoux)


def chained_schubert(seq: OrthodonticSequence, chain: FormulaChain) -> Polynomial:
    """:func:`orthodontia_schubert` of the diagram with sequence seq, through chain."""
    return _evaluate_formula(seq, demazure, chain)


def chained_grothendieck(seq: OrthodonticSequence, chain: FormulaChain) -> Polynomial:
    """:func:`orthodontia_grothendieck` of the diagram with sequence seq, through chain."""
    return _evaluate_formula(seq, demazure_lascoux, chain)


class PrimaryColumnData(NamedTuple):
    """Shape data of the primary column, the first Rothe column that is
    neither empty nor an interval {1..k}.

    ``standard_cols``: number of columns before it (n when w is dominant).
    ``prefix``: largest p with {1..p} contained in that column.
    ``tooth``: its smallest missing tooth, the last row of the gap below
        that prefix (n when dominant).
    ``gap``: tooth - prefix, the size of that gap.
    """

    standard_cols: int
    prefix: int
    tooth: int
    gap: int


def primary_column_data(w: Permutation) -> PrimaryColumnData:
    """The primary column data of w, read from its one-line word.

    >>> primary_column_data(Permutation((1, 3, 2)))
    PrimaryColumnData(standard_cols=1, prefix=0, tooth=1, gap=1)
    """
    return _primary_column_data(w.word)


def _primary_column_data(word: tuple[int, ...]) -> PrimaryColumnData:
    # column j holds the rows i above w^-1(j) with w(i) > j: it is standard
    # unless a row without a box sits above one with a box.  Both loops stop
    # at w^-1(j) at the latest, where w(i) = j
    n = len(word)
    for j in range(1, n + 1):
        i = 0
        while word[i] > j:
            i += 1
        prefix = i
        while word[i] < j:
            i += 1
        if word[i] > j:
            return PrimaryColumnData(j - 1, prefix, i, i - prefix)
    return PrimaryColumnData(n, 0, n, n)


def sigma(w: Permutation) -> Permutation:
    """The pattern of w on positions prefix+1..tooth, a dominant permutation.

    w restricts to a bijection from those positions onto an interval of
    values; shifting the values down gives an element of S_gap.  For
    dominant w the restriction is all of w, so sigma(w) = w.  w is called
    sorted when sigma(w) is the identity.
    """
    return Permutation(_sigma(w.word, _primary_column_data(w.word)))


def _sigma(word: tuple[int, ...], data: PrimaryColumnData) -> tuple[int, ...]:
    shift = data.standard_cols - data.gap
    values = tuple(v - shift for v in word[data.prefix : data.tooth])
    if sorted(values) != list(range(1, data.gap + 1)):
        raise AssertionError(
            f"restriction of {word} to positions {data.prefix + 1}..{data.tooth} "
            "is not a bijection onto an interval"
        )
    return values


def is_sorted_permutation(w: Permutation) -> bool:
    """True iff the entries on positions prefix+1..tooth already increase."""
    return _sort(w.word, _primary_column_data(w.word)) == w.word


def sort_permutation(w: Permutation) -> Permutation:
    """Reorder the entries on positions prefix+1..tooth to increase.

    Idempotent; preserves primary column data; maps dominant permutations
    to the identity.
    """
    return Permutation(_sort(w.word, _primary_column_data(w.word)))


def _sort(word: tuple[int, ...], data: PrimaryColumnData) -> tuple[int, ...]:
    p, t = data.prefix, data.tooth
    return word[:p] + tuple(sorted(word[p:t])) + word[t:]


def unsort_factor(w: Permutation) -> Monomial:
    """The monomial with G_w = x^factor * G_{sort(w)}.

    Exponents come from the row lengths of the diagram of sigma(w),
    placed on the variables x_{prefix+1}..x_{tooth}.  Sorted input gives
    the constant monomial.
    """
    data = _primary_column_data(w.word)
    exps = [0] * w.n
    pattern = Permutation(_sigma(w.word, data))
    exps[data.prefix : data.tooth] = diagram_monomial(rothe_diagram(pattern))
    return tuple(exps)


def monk_terms(j: int, w: Permutation) -> dict[tuple[int, ...], int]:
    """The signed targets v with x_j * G_w = sum of sign * G_v, as a dict
    from each target's one-line word to its sign, in no set order.

    Each v arises from w by a chain of position swaps with j: first swaps
    with positions below j (taken in decreasing order), then swaps with
    positions above j (also decreasing), at least one swap in total, each
    raising the length by exactly 1.  The sign is -1 when the number of
    above-j swaps is even, +1 when odd.

    The chains live in S_{n+1}, where w fixes n+1.  A chain escapes S_n
    exactly when it swaps j with position n+1; that swap can only be the
    first above-j swap, and it raises the length by one from some chain
    word iff it does so from w, i.e. iff w(j) exceeds every later entry.
    Then the expansion needs a larger ambient rank and
    :class:`RankOverflowError` is raised before any chain is enumerated.
    """
    word, j = w.word, _int(j, "variable index")
    n = len(word)
    if not 1 <= j <= n:
        raise ValueError(f"variable index {j} out of range for rank {n}")
    if all(v < word[j - 1] for v in word[j:]):
        raise RankOverflowError(j, w, n)
    found: dict[tuple[int, ...], int] = {}
    # depth-first over chains; an entry is a chain's word, the largest
    # position left for a below-j swap (0 once an above-j swap is made),
    # the largest position left for an above-j swap, and the chain's sign
    stack = [(word, j - 1, n, -1)]
    while stack:
        word, below, above, sign = stack.pop()
        wj = word[j - 1]
        # swapping j < b raises the length by one iff no entry between
        # them has a value between theirs
        bound = n + 1
        for b in range(j + 1, above + 1):
            v = word[b - 1]
            if wj < v < bound:
                bound = v
                nxt = word[: j - 1] + (v,) + word[j : b - 1] + (wj,) + word[b:]
                if found.setdefault(nxt, -sign) != -sign:
                    raise AssertionError(f"conflicting signs for target {nxt}")
                stack.append((nxt, 0, b - 1, -sign))
        if not below:
            continue
        bound = 0
        for a in range(j - 1, 0, -1):
            v = word[a - 1]
            if bound < v < wj:
                bound = v
                if a <= below:
                    nxt = word[: a - 1] + (wj,) + word[a : j - 1] + (v,) + word[j:]
                    if found.setdefault(nxt, -1) != -1:
                        raise AssertionError(f"conflicting signs for target {nxt}")
                    stack.append((nxt, a - 1, n, -1))
    return found


# The Monk residue's sums, one slot per index of _KEY_LIST: every slot is 0
# whenever monk_residue_vanishes is not running, and it returns or raises
# only with every slot 0 again.  Every caller in the process shares it, so
# two threads must not run the check at once; forked workers each have
# their own copy.
_RESIDUE: list[int] = []


def monk_residue_vanishes(
    j: int, w: Permutation, targets: Mapping[tuple[int, ...], int]
) -> bool:
    """Does x_j * G_w equal the sum of sign * G_v over ``targets``, the
    dict from target words to signs that :func:`monk_terms` gives?

    Reads G_w and every G_v from the recursive memo, filling it on
    demand, and builds no polynomial: the residue x_j * G_w minus every
    sign * G_v is summed in ``_RESIDUE``, one slot per key index, and the
    identity holds iff every slot ends at 0.  A monomial of x_j * G_w that
    no G_v has gets a slot of its own, which no target brings back to 0.
    """
    entries = [(_grothendieck_entry(v), sign) for v, sign in targets.items()]
    base = _grothendieck_entry(w.word)
    (x_j,) = Polynomial.variable(j, w.n).terms
    # the key of x_j times a monomial is the sum of their keys
    shifted = list(map(_KEY_INDEX.__getitem__, map(add, _keys(base), repeat(x_j))))
    residue = _RESIDUE
    # after every lookup, so there is a slot for each key index
    residue.extend(repeat(0, len(_KEY_LIST) - len(residue)))
    vanishes = False
    try:
        # the keys of x_j * G_w are distinct, and every slot starts at 0
        for i, c in zip(shifted, base.coeffs):
            residue[i] = c
        for entry, sign in entries:
            if sign > 0:
                for i, c in zip(entry.indices, entry.coeffs):
                    residue[i] -= c
            else:
                for i, c in zip(entry.indices, entry.coeffs):
                    residue[i] += c
        vanishes = residue.count(0) == len(residue)
    finally:
        if not vanishes:
            residue[:] = [0] * len(residue)
    return vanishes


def os_predecessor(w: Permutation) -> Permutation:
    """One step down in the orthodontic sort order.

    Unsorted w steps to sort(w); sorted nonidentity w steps to
    w * s_tooth * ... * s_{prefix+1}, which lies above w in the weak
    order but strictly drops the number of fallen boxes.  Iterating
    always reaches the identity.
    """
    if w.is_identity():
        raise ValueError("the identity has no predecessor")
    word = w.word
    data = _primary_column_data(word)
    sorted_word = _sort(word, data)
    return Permutation(_sorted_step_up(word, data) if sorted_word == word else sorted_word)


def _sorted_step_up(word: tuple[int, ...], data: PrimaryColumnData) -> tuple[int, ...]:
    # w * s_tooth * ... * s_{prefix+1}: move the entry at position tooth+1 to prefix+1
    p, t = data.prefix, data.tooth
    return word[:p] + (word[t],) + word[p:t] + word[t + 1 :]


def _sequence(word: tuple[int, ...]) -> OrthodonticSequence:
    # the orthodontic sequence of the word's Rothe diagram, from its column masks
    return mask_orthodontia(rothe_masks(word))


class SortedStepCheck(NamedTuple):
    """The step relations of the orthodontic sort order, checked for one w.

    ``is_sorted``: whether w is sorted.
    ``unsort_ok``: the orthodontic sequences of w and sort(w) share teeth
        and tooth multiplicities, and their interval multiplicities
        differ by those of the pattern sigma(w).
    ``parts_ok``: for sorted nonidentity w, the five relations (i)-(v)
        between w and its predecessor u; None for other w.
    """

    is_sorted: bool
    unsort_ok: bool
    parts_ok: bool | None


def check_sorted_step(
    w: Permutation, seq: OrthodonticSequence, known: Mapping[tuple[int, ...], OrthodonticSequence]
) -> SortedStepCheck:
    """Check the sorted-step relations for w, whose orthodontic sequence is ``seq``.

    ``known`` is read only through ``known.get(word)``, which gives the
    orthodontic sequence of the one-line word ``word`` or None; a dict
    from words to sequences serves, and so does any object with such a
    ``get``.  The sequences of sort(w), w's sorted-step predecessor and
    the pattern sigma(w) come from it where it has them and are built from
    the words' column masks otherwise, so ``{}`` builds every one.
    """

    def sequence(v: tuple[int, ...]) -> OrthodonticSequence:
        return known.get(v) or _sequence(v)

    word = w.word
    data = primary_column_data(w)
    _, p, tooth, gap = data
    sorted_word = _sort(word, data)
    is_sorted = sorted_word == word
    seq_sorted = seq if is_sorted else sequence(sorted_word)
    # the sequences of w and sort(w) agree except for the interval counts,
    # which shift by the interval counts of the pattern sigma(w), placed on
    # positions p+1..tooth
    pattern_counts = sequence(_sigma(word, data)).interval_multiplicities
    expected_k = list(seq_sorted.interval_multiplicities)
    if p > 0:
        expected_k[p - 1] -= sum(pattern_counts)
    expected_k[p:tooth] = map(add, expected_k[p:tooth], pattern_counts)
    unsort_ok = (
        seq.teeth == seq_sorted.teeth
        and seq.tooth_multiplicities == seq_sorted.tooth_multiplicities
        and list(seq.interval_multiplicities) == expected_k
    )

    parts_ok: bool | None = None
    # a dominant w is its own pattern, so the only sorted dominant w is the
    # identity, and a sorted w with fewer standard columns than n is not it
    if is_sorted and data.standard_cols < len(word):
        teeth, k, m = seq
        # part (i) gives w's sequence at least gap teeth, which parts (iv)
        # and (v) index, so the rest is read only when it holds
        parts_ok = (
            teeth[:gap] == tuple(range(tooth, tooth - gap, -1))
            and (p == 0 or k[p - 1] >= gap)
            and not any(k[p:tooth])
            and not any(m[: gap - 1])
        )
        if parts_ok:
            seq_up = sequence(_sorted_step_up(word, data))
            expected_up_k = list(k)
            if p > 0:
                expected_up_k[p - 1] -= gap
            expected_up_k[p] = gap + m[gap - 1]
            parts_ok = (
                seq_up.teeth == teeth[gap:]
                and seq_up.tooth_multiplicities == m[gap:]
                and list(seq_up.interval_multiplicities) == expected_up_k
            )

    return SortedStepCheck(is_sorted, unsort_ok, parts_ok)
