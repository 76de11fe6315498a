"""Independent oracles the tests check library code against.

The library computes every operator monomial by monomial from closed
forms, on packed exponent keys.  The oracles here take the other route,
on exponent tuples and without the library's arithmetic: they form the
whole numerator f - s_j.f and divide it exactly by x_j - x_{j+1} with
synthetic division, so agreement between the two is a genuine
cross-check, not a tautology.

The support checks in the library compare per-variable maximum
exponents against a bound; the oracle for them tests every monomial in
canonical order.

The library decides a Monk expansion's overflow before enumerating and
finds covering swaps by one scan per chain word; the oracle enumerates
every chain in S_{n+1} by recursion, testing each swap from the
definition, and reads the overflow off the targets.

The library builds G_w from the four operators, by recursion and by the
ascending formula; the pipe-dream oracle uses no operator at all, only
the K-theoretic pipe-dream sum.

The library reads primary column data, and so dominance, off the
one-line word in one scan per column; the oracles build the Rothe
diagram column by column from its definition and read the data off it,
and test dominance as 132 avoidance.

The library builds Rothe diagrams as column bitmasks from the one-line
word in one pass over the values, and runs the orthodontia algorithm on
those masks, dropping each column once it is emptied and finding the
tooth with a bit trick; the oracles build the diagram as sets of rows
from its definition, and run the algorithm on sets of rows, with every
column kept in its place and the tooth found by scanning the rows.

The library writes a polynomial's text a chunk of terms at a time, in
an order it takes from sorting packed keys, and formats each half of a
term's exponent vector once per distinct half; the oracle sorts the
exponent tuples by degree and vector itself and formats every term
exponent by exponent.  The JSON oracle builds the JSON form's object in
the same order, for ``json.dumps`` to write.

The library takes every term from outside through one kernel that packs
each exponent vector into an int key and adds coefficients into a dict
of keys; the oracle adds them up on exponent tuples with a plain dict.

The library's ascending Schubert formula on a strongly separated diagram
is checked against the character of the diagram's flagged Weyl module,
which uses no operator: the dimension of each weight space of a span of
products of minors, found by exact elimination over the rationals.

Five proof tools that no library code needs live only here: exact
division by a monomial, on exponent tuples; the fallen boxes of a Rothe
diagram, on its sets of rows; G_w of a dominant w, the monomial of its
diagram's row counts; the swap of two positions of a word or exponent
vector; and s_j.f, which the operator tests compare with f to test
symmetry, its swapped exponent tuples summed by the constructor.  The
oracles take only the ``Polynomial`` and ``Monomial`` types from the
library.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterable

from orthodontia.polynomial import Monomial, Polynomial


class DivisionRemainderError(ArithmeticError):
    """An exact division left a nonzero remainder; the caller broke a contract."""


def exact_divide_linear(f: Polynomial, j: int) -> Polynomial:
    """Divide f exactly by (x_j - x_{j+1}).

    Runs synthetic division of f, viewed as a polynomial in x_j over the
    ring generated by the remaining variables.  A nonzero remainder means
    the caller violated the divisibility precondition and raises
    :class:`DivisionRemainderError`.
    """
    return Polynomial(f.n, _divide_linear(dict(f.sorted_terms()), f.n, j))


def _divide_linear(terms: dict[Monomial, int], n: int, j: int) -> dict[Monomial, int]:
    # exact_divide_linear on a map from exponent tuples to coefficients,
    # which may hold exponents above the library's bound
    if not 1 <= j <= n - 1:
        raise ValueError(f"division index {j} out of range for n={n}")
    if not terms:
        return {}
    a = j - 1
    layers: dict[int, dict[Monomial, int]] = {}
    for exps, c in terms.items():
        key = exps[:a] + (0,) + exps[a + 1:]
        layers.setdefault(exps[a], {})[key] = c
    top = max(layers)
    if top == 0:
        raise DivisionRemainderError(f"{terms} is not divisible by x{j} - x{j + 1}")
    out: dict[Monomial, int] = {}

    def emit(layer: dict[Monomial, int], deg: int) -> None:
        for key, c in layer.items():
            out[key[:a] + (deg,) + key[a + 1:]] = c

    current = dict(layers.get(top, {}))
    emit(current, top - 1)
    for d in range(top - 1, -1, -1):
        shifted: dict[Monomial, int] = {}
        for key, c in current.items():
            k2 = key[: a + 1] + (key[a + 1] + 1,) + key[a + 2:]
            shifted[k2] = c
        current = shifted
        for key, c in layers.get(d, {}).items():
            s = current.get(key, 0) + c
            if s:
                current[key] = s
            else:
                current.pop(key, None)
        if d > 0:
            emit(current, d - 1)
    if current:
        raise DivisionRemainderError(f"nonzero remainder dividing by x{j} - x{j + 1}")
    return out


def exact_divide_monomial(f: Polynomial, exps: Monomial) -> Polynomial:
    """Divide f exactly by the monomial x^exps, exponent by exponent.

    Every term of f must be divisible by x^exps; otherwise the caller
    broke the contract and :class:`DivisionRemainderError` is raised.
    """
    out: dict[Monomial, int] = {}
    for term, c in f.sorted_terms():
        quotient = tuple(a - b for a, b in zip(term, exps, strict=True))
        if min(quotient) < 0:
            raise DivisionRemainderError(f"term x^{term} not divisible by x^{exps}")
        out[quotient] = c
    return Polynomial(f.n, out)


# The kernels work on exponent tuples throughout, with no library
# arithmetic, so x_j f may pass the library's exponent bound on the way.

def _times(terms: dict[Monomial, int], *indices: int) -> dict[Monomial, int]:
    # terms times the product of x_i over the given indices
    return {tuple(e + (i + 1 in indices) for i, e in enumerate(exps)): c for exps, c in terms.items()}


def _divided_difference(j: int, n: int, terms: dict[Monomial, int]) -> Polynomial:
    a = j - 1
    numerator = dict(terms)
    for exps, c in terms.items():
        swapped = exps[:a] + (exps[a + 1], exps[a]) + exps[a + 2:]
        numerator[swapped] = numerator.get(swapped, 0) - c
    return Polynomial(n, _divide_linear({e: c for e, c in numerator.items() if c}, n, j))


def _minus(f: dict[Monomial, int], g: dict[Monomial, int]) -> dict[Monomial, int]:
    out = dict(f)
    for exps, c in g.items():
        out[exps] = out.get(exps, 0) - c
    return {e: c for e, c in out.items() if c}


def divided_difference_kernel(j: int, f: Polynomial) -> Polynomial:
    """(f - s_j.f) / (x_j - x_{j+1}) by exact division."""
    return _divided_difference(j, f.n, dict(f.sorted_terms()))


def demazure_kernel(j: int, f: Polynomial) -> Polynomial:
    """d_j(x_j f)."""
    return _divided_difference(j, f.n, _times(dict(f.sorted_terms()), j))


def isobaric_kernel(j: int, f: Polynomial) -> Polynomial:
    """d_j((1 - x_{j+1}) f)."""
    terms = dict(f.sorted_terms())
    return _divided_difference(j, f.n, _minus(terms, _times(terms, j + 1)))


def demazure_lascoux_kernel(j: int, f: Polynomial) -> Polynomial:
    """d_j(x_j (1 - x_{j+1}) f)."""
    xj = _times(dict(f.sorted_terms()), j)
    return _divided_difference(j, f.n, _minus(xj, _times(xj, j + 1)))


def text_oracle(f: Polynomial) -> str:
    """The text form of f, term by term and exponent by exponent.

    Terms go by ascending total degree, ties by descending exponent
    vector.  A term is its coefficient's magnitude, left out when it is 1
    and the term has a variable, then x_i^e for each nonzero exponent (x_i
    when e = 1), joined by "*"; terms are joined by " + " or " - ", and a
    negative leading term starts with "-".
    """
    terms = _canonical_terms(f)
    if not terms:
        return "0"
    parts: list[str] = []
    for exps, c in terms:
        factors = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps, 1) if e]
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        parts.append(" - " if c < 0 else " + ")
        parts.append("*".join(factors))
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


def json_oracle(f: Polynomial) -> dict:
    """The JSON form of f as an object: {"n": n, "terms": [[coeff, [e1,
    ..., en]], ...]}, its terms in the order of :func:`text_oracle`."""
    return {"n": f.n, "terms": [[c, list(exps)] for exps, c in _canonical_terms(f)]}


def _canonical_terms(f: Polynomial) -> list[tuple[Monomial, int]]:
    # (exponents, coefficient) by ascending total degree, ties by
    # descending exponent vector, sorted here and not by the library
    return sorted(f.sorted_terms(), key=lambda term: (sum(term[0]), [-x for x in term[0]]))


def summed_terms(pairs: Iterable[tuple[Monomial, int]]) -> dict[Monomial, int]:
    """The sum of (exponent vector, coefficient) pairs, zeros dropped."""
    total: dict[Monomial, int] = {}
    for exps, c in pairs:
        total[tuple(exps)] = total.get(tuple(exps), 0) + c
    return {exps: c for exps, c in total.items() if c}


def inversions_by_enumeration(word: tuple[int, ...]) -> int:
    """Brute-force inversion count straight from the definition."""
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


def support_witness_scan(f: Polynomial, bound: Monomial) -> Monomial | None:
    """The first monomial of f in canonical order not dividing x^bound, by testing each."""
    for exps in f.monomials():
        if not all(a <= b for a, b in zip(exps, bound, strict=True)):
            return exps
    return None


def _covers(word: tuple[int, ...], x: int, y: int) -> bool:
    # swapping positions x < y raises the length by exactly 1
    wx, wy = word[x - 1], word[y - 1]
    if wx >= wy:
        return False
    return all(not wx < word[p - 1] < wy for p in range(x + 1, y))


def swap_positions(entries: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """entries with the ones at 1-based positions a and b exchanged.

    On a one-line word it is w times the transposition (a b) on the
    right; on an exponent vector, the exchange of x_a and x_b.
    """
    lst = list(entries)
    lst[a - 1], lst[b - 1] = lst[b - 1], lst[a - 1]
    return tuple(lst)


def swap_variables(f: Polynomial, j: int) -> Polynomial:
    """s_j.f: f with x_j and x_{j+1} exchanged in every monomial (1 <= j <= n-1)."""
    if not 1 <= j <= f.n - 1:
        raise ValueError(f"swap index {j} out of range for n={f.n}")
    return Polynomial(f.n, [(swap_positions(exps, j, j + 1), c) for exps, c in f.sorted_terms()])


def monk_terms_oracle(j: int, word: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Every target of the transition chains of x_j * G_w in S_{n+1}, with its sign.

    The expansion overflows S_n iff some target moves n + 1.
    """
    n = len(word)
    found: dict[tuple[int, ...], int] = {}

    def record(target: tuple[int, ...], above_swaps: int) -> None:
        sign = 1 if above_swaps % 2 == 1 else -1
        prior = found.get(target)
        if prior is not None and prior != sign:
            raise AssertionError(f"conflicting signs for target {target}")
        found[target] = sign

    def extend_above(current: tuple[int, ...], cap: int, above_swaps: int) -> None:
        for b in range(cap, j, -1):
            if _covers(current, j, b):
                nxt = swap_positions(current, j, b)
                record(nxt, above_swaps + 1)
                extend_above(nxt, b - 1, above_swaps + 1)

    def extend_below(current: tuple[int, ...], cap: int) -> None:
        extend_above(current, n + 1, 0)
        for a in range(cap, 0, -1):
            if _covers(current, a, j):
                nxt = swap_positions(current, a, j)
                record(nxt, 0)
                extend_below(nxt, a - 1)

    extend_below(word + (n + 1,), j - 1)
    return found


def pipe_dream_grothendiecks(n: int) -> dict[tuple[int, ...], Polynomial]:
    """G_w for every w in S_n, summed over K-theoretic pipe dreams.

    A pipe dream P is a set of crosses on the staircase cells (i, j) with
    i + j <= n.  Read row by row from the top, each row right to left, the
    cross at (i, j) stands for s_(i+j-1), and the Demazure product of the
    word applies s_k only where it raises the length.  Then G_w is the sum
    of (-1)^(|P| - l(w)) x^wt(P) over the P whose product is w, where
    wt(P)_i counts the crosses in row i (Fomin-Kirillov; Knutson-Miller).
    """
    return pipe_dream_sums(n, [(i, j) for i in range(1, n) for j in range(n - i, 0, -1)])


def pipe_dream_sums(n: int, cells: list[tuple[int, int]]) -> dict[tuple[int, ...], Polynomial]:
    """The sums of :func:`pipe_dream_grothendiecks`, with the crosses read
    in the order of ``cells``.

    A depth-first walk over the cells decides at each one whether P has a
    cross there.  It keeps the Demazure product of the crosses so far,
    the row weight and |P|, and undoes each cross on return, so it reaches
    every P once.
    """
    word = list(range(1, n + 1))
    weight = [0] * n
    # w -> exponent vector -> the sum of (-1)^|P|
    sums: dict[tuple[int, ...], dict[Monomial, int]] = {}

    def walk(index: int, size: int) -> None:
        if index == len(cells):
            terms = sums.setdefault(tuple(word), {})
            exps = tuple(weight)
            terms[exps] = terms.get(exps, 0) + (-1) ** size
            return
        walk(index + 1, size)
        i, j = cells[index]
        k = i + j - 1
        raises = word[k - 1] < word[k]
        if raises:
            word[k - 1], word[k] = word[k], word[k - 1]
        weight[i - 1] += 1
        walk(index + 1, size + 1)
        weight[i - 1] -= 1
        if raises:
            word[k - 1], word[k] = word[k], word[k - 1]

    walk(0, 0)
    return {
        w: Polynomial(n, {e: c * (-1) ** inversions_by_enumeration(w) for e, c in terms.items()})
        for w, terms in sums.items()
    }


def primary_column_oracle(word: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(standard_cols, prefix, tooth, gap) of the first Rothe column that is
    neither empty nor an interval {1..k}, read off the diagram.

    Column j holds the rows i with i < w^-1(j) and j < w(i).  standard_cols
    counts the columns before it, prefix is the largest p with {1..p} in
    it, and tooth is its smallest missing tooth.  A dominant w, which has
    no such column, gives (n, 0, n, n).
    """
    n = len(word)
    for j, c in enumerate(rothe_oracle(word), start=1):
        if c == set(range(1, len(c) + 1)):
            continue
        prefix = 0
        while prefix + 1 in c:
            prefix += 1
        tooth = missing_tooth(c)
        assert tooth > prefix
        assert not any(i in c for i in range(prefix + 1, tooth + 1))
        assert tooth + 1 in c
        return j - 1, prefix, tooth, tooth - prefix
    return n, 0, n, n


def avoids_132(word: tuple[int, ...]) -> bool:
    """True iff no positions i < j < k have word[i] < word[k] < word[j]."""
    n = len(word)
    return not any(
        word[i] < word[k] < word[j]
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


Columns = tuple[frozenset[int], ...]


def rothe_oracle(word: tuple[int, ...]) -> Columns:
    """The columns of the Rothe diagram of w, sets of rows: column j holds
    the rows i with i < w^-1(j) and w(i) > j."""
    return tuple(
        frozenset(i for i in range(1, word.index(j) + 1) if word[i - 1] > j)
        for j in range(1, len(word) + 1)
    )


def fallen_boxes(word: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """The boxes (i, j) of the Rothe diagram of w that sit below their
    top-aligned place: row i exceeds the box's rank within column j, so
    some row above it in the column is empty.  A dominant w has none."""
    return frozenset(
        (i, j)
        for j, column in enumerate(rothe_oracle(word), start=1)
        for rank, i in enumerate(sorted(column), start=1)
        if i > rank
    )


def dominant_grothendieck(word: tuple[int, ...]) -> Polynomial:
    """G_w of a dominant (132-avoiding) w: the one monomial whose exponent
    of x_i counts the boxes in row i of the Rothe diagram."""
    if not avoids_132(word):
        raise ValueError(f"{word} is not dominant")
    columns = rothe_oracle(word)
    rows = tuple(sum(i in c for c in columns) for i in range(1, len(word) + 1))
    return Polynomial(len(word), {rows: 1})


def missing_tooth(column: Iterable[int]) -> int | None:
    """Smallest i with i not in the column but i+1 in it, or None.

    Only the empty column and the intervals {1..i} have no missing tooth.
    """
    c = set(column)
    for i in sorted(c):
        if i - 1 >= 1 and i - 1 not in c:
            return i - 1
    return None


def orthodontia_oracle(
    columns: Columns, count_before_swap: bool = False
) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], list[tuple[str, Columns]]]:
    """The orthodontia algorithm on a diagram given by its columns, sets of rows.

    Returns (teeth, interval multiplicities, tooth multiplicities) and
    the labeled snapshots of all columns, each column in its place.  The
    columns that are intervals {1..k} are stripped first.  Then, while a
    column is nonempty, the rows t and t+1 of the smallest missing tooth
    t of the first nonempty column are swapped in every column holding
    exactly one of them, and the columns that became {1..t} are counted
    and stripped.  ``count_before_swap`` counts them before the swap
    instead, a deliberate fault for mutation tests.
    """
    n = len(columns)
    cols = list(columns)
    trace = [("start", tuple(cols))]
    interval_mults = [0] * n
    for idx, c in enumerate(cols):
        if c and c == frozenset(range(1, len(c) + 1)):
            interval_mults[len(c) - 1] += 1
            cols[idx] = frozenset()
    trace.append(("strip standard columns", tuple(cols)))

    teeth: list[int] = []
    tooth_mults: list[int] = []
    max_steps = n * n * n + n * n + sum(len(c) for c in columns) + 1
    while True:
        first = next((c for c in cols if c), None)
        if first is None:
            break
        tooth = missing_tooth(first)
        if tooth is None or len(teeth) >= max_steps:
            raise AssertionError(f"orthodontia stuck at column {sorted(first)}")
        teeth.append(tooth)
        target = frozenset(range(1, tooth + 1))
        early = sum(1 for c in cols if c == target)
        swapped = []
        for c in cols:
            if (tooth in c) != (tooth + 1 in c):
                c = c ^ {tooth, tooth + 1}
            swapped.append(c)
        cols = swapped
        count = sum(1 for c in cols if c == target)
        tooth_mults.append(early if count_before_swap else count)
        cols = [frozenset() if c == target else c for c in cols]
        trace.append((f"swap rows {tooth},{tooth + 1}", tuple(cols)))
    return (tuple(teeth), tuple(interval_mults), tuple(tooth_mults)), trace


# A polynomial in the entries y_rc of a generic upper-triangular matrix:
# each monomial is the sorted tuple of its cells (r, c), one per factor.
YPolynomial = dict[tuple[tuple[int, int], ...], int]


def _minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> YPolynomial:
    # det Y[rows, cols] by the Leibniz expansion, where y_rc = 0 for r > c;
    # distinct permutations use distinct cells, so no two terms cancel
    out = {}
    for perm in permutations(range(len(cols))):
        cells = tuple(sorted((r, cols[p]) for r, p in zip(rows, perm)))
        if all(r <= c for r, c in cells):
            out[cells] = (-1) ** inversions_by_enumeration(perm)
    return out


def _times_y(f: YPolynomial, g: YPolynomial) -> YPolynomial:
    out: YPolynomial = {}
    for a, x in f.items():
        for b, y in g.items():
            key = tuple(sorted(a + b))
            out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _rank(vectors: list[YPolynomial]) -> int:
    # rank over Q by elimination on leading monomials: each pivot row is
    # scaled to lead with 1, and reducing by it adds only smaller monomials
    pivots: dict[tuple, dict[tuple, Fraction]] = {}
    for vector in vectors:
        v = {k: Fraction(c) for k, c in vector.items()}
        while v:
            lead = max(v)
            row = pivots.get(lead)
            if row is None:
                pivots[lead] = {k: c / v[lead] for k, c in v.items()}
                break
            factor = v[lead]
            for k, c in row.items():
                x = v.get(k, 0) - factor * c
                if x:
                    v[k] = x
                else:
                    v.pop(k, None)
    return len(pivots)


def flagged_weyl_character(n: int, columns: Iterable[Iterable[int]]) -> Polynomial:
    """The character of the flagged Weyl module of the diagram with these columns.

    Y is the generic upper-triangular n x n matrix, with a variable y_rc
    for each r <= c.  For each column C_j, R_j ranges over the row sets
    of size |C_j| that lie elementwise at or below C_j (the k-th smallest
    row of R_j is at most the k-th smallest of C_j); the other row sets
    give a zero minor.  The module is spanned by the products
    prod_j det Y[R_j, C_j], and such a product has weight a, where a_i
    counts the j with i in R_j.  The coefficient of x^a is the dimension
    of the span of the products of weight a, their rank over Q.

    For a strongly separated diagram this is the Schubert polynomial of
    the diagram (Magyar 1998; for Rothe diagrams, Kraskiewicz-Pragacz).
    """
    choices = []
    for column in columns:
        c = tuple(sorted(column))
        choices.append([
            (r, _minor(r, c))
            for r in combinations(range(1, n + 1), len(c))
            if all(x <= y for x, y in zip(r, c))
        ])
    groups: dict[Monomial, list[YPolynomial]] = {}
    for picks in product(*choices):
        weight = [0] * n
        f: YPolynomial = {(): 1}
        for rows, minor in picks:
            for i in rows:
                weight[i - 1] += 1
            f = _times_y(f, minor)
        groups.setdefault(tuple(weight), []).append(f)
    return Polynomial(n, {a: _rank(fs) for a, fs in groups.items()})
