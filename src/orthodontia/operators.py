"""Difference operators on polynomials.

Four families, all indexed by j in [n-1]:

- divided difference:   d_j(f) = (f - s_j.f) / (x_j - x_{j+1})
- Demazure:             pi_j(f) = d_j(x_j f)
- isobaric:             ibar_j(f) = d_j((1 - x_{j+1}) f)
- Demazure-Lascoux:     pibar_j(f) = d_j(x_j (1 - x_{j+1}) f)

All four are computed monomial by monomial from the closed form of d_j.
With a, b the exponents of x_j, x_{j+1} and a > b,

    d_j(x_j^a x_{j+1}^b) = sum_{p=b}^{a-1} x_j^p x_{j+1}^{a+b-1-p},

d_j is zero on a == b and changes sign when a and b trade places; the
other variables factor straight through.  The other three operators
multiply by x_j, x_{j+1} or both first, which only shifts a and b, so
each operator makes one pass over f and adds every contribution into a
single output dict.  Where a term's contributions land depends only on
its a and b, so each call works out those output-key offsets once per
distinct (a, b) in f, and the pass adds each term's coefficient at its
pair's offsets.  The tests check all four against the exact-division
kernel in ``tests/oracles.py``, derived independently.  All operators
are stateless pure functions, but for one exception: an input of the
private owned type of :mod:`orthodontia.polynomial`, which only a walk
inside :mod:`orthodontia.grothendieck` makes, is emptied as its terms
are read, and the result is of that type too.
"""

from __future__ import annotations

from itertools import repeat
from operator import and_

from orthodontia.polynomial import _FIELD, MAX_EXPONENT, Polynomial


def _apply(j: int, f: Polynomial, shifts: tuple[tuple[int, int, int], ...]) -> Polynomial:
    """Sum of sign * d_j(x_j^da x_{j+1}^db f) over the (da, db, sign) in shifts."""
    n = f.n
    if not 1 <= j <= n - 1:
        raise ValueError(f"operator index {j} out of range for n={n}")
    # packed keys (see orthodontia.polynomial): x_{j+1} in the field at sb,
    # x_j in the field above it, the total degree above every field.  A
    # contribution's key is the term's key with the two fields set to p and
    # a + b - 1 - p, plus the degree change da + db - 1, so its offset from
    # the term's key depends only on the term's two fields.  The plan of
    # each distinct field pair lists, once per call, those offsets and the
    # sign of each shift's contributions.  No field can overflow: every
    # output exponent is below high <= MAX_EXPONENT + 1.
    sb = _FIELD * (n - j - 1)
    sa = sb + _FIELD
    step = (1 << sa) - (1 << sb)  # p -> p + 1
    m = MAX_EXPONENT
    pair = m << sa | m << sb
    terms = f.terms
    plans = {}
    for fields in set(map(and_, terms, repeat(pair))):
        ea, eb = fields >> sa, fields >> sb & m
        plan = []
        for da, db, sign in shifts:
            a, b = ea + da, eb + db
            if a > b:
                low, high = b, a
            elif a < b:
                low, high, sign = a, b, -sign
            else:
                continue
            first = ((da + db - 1) << _FIELD * n) + low * step + (a + b - 1 << sb) - fields
            plan.append((list(range(first, first + (high - low) * step, step)), sign))
        plans[fields] = plan
    out: dict[int, int] = {}
    get = out.get
    for chunk in f._chunks():
        for k, c in chunk:
            for offsets, sign in plans[k & pair]:
                coeff = c * sign
                for offset in offsets:
                    key = k + offset
                    s = get(key, 0) + coeff
                    if s:
                        out[key] = s
                    else:
                        del out[key]
    return type(f)._raw(n, out)


def divided_difference(j: int, f: Polynomial) -> Polynomial:
    """(f - s_j.f) / (x_j - x_{j+1}); lowers degree by one, kills symmetric input."""
    return _apply(j, f, ((0, 0, 1),))


def demazure(j: int, f: Polynomial) -> Polynomial:
    """d_j(x_j f)."""
    return _apply(j, f, ((1, 0, 1),))


def isobaric(j: int, f: Polynomial) -> Polynomial:
    """d_j((1 - x_{j+1}) f); idempotent, with image symmetric in x_j, x_{j+1}."""
    return _apply(j, f, ((0, 0, 1), (0, 1, -1)))


def demazure_lascoux(j: int, f: Polynomial) -> Polynomial:
    """d_j(x_j (1 - x_{j+1}) f); raises degree by at most one."""
    return _apply(j, f, ((1, 0, 1), (1, 1, -1)))
