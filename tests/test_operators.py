"""Operator laws, checked on seeded random polynomials and exact closed forms.

The randomized suites draw at least 200 samples per law (n up to 5,
degree up to 6 via exponents up to 3 across up to 6 terms).  The
exact-division kernel in ``oracles.py`` keeps the library's closed forms
honest.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from orthodontia.operators import demazure, demazure_lascoux, divided_difference, isobaric
from orthodontia.polynomial import MAX_EXPONENT, Polynomial
from orthodontia.grothendieck import (
    grothendieck_recursive,
    is_sorted_permutation,
    os_predecessor,
    primary_column_data,
    schubert_recursive,
)
from orthodontia.permutation import from_one_line, symmetric_group
from conftest import random_polynomial
from oracles import (
    demazure_kernel,
    demazure_lascoux_kernel,
    divided_difference_kernel,
    exact_divide_monomial,
    isobaric_kernel,
    swap_variables,
)

SAMPLES = 200


def _cases(seed=1):
    rng = random.Random(seed)
    for _ in range(SAMPLES):
        n = rng.randint(2, 5)
        f = random_polynomial(rng, n)
        j = rng.randint(1, n - 1)
        yield n, f, j, rng


def _xj(n, j, power=1):
    return tuple(power if i == j - 1 else 0 for i in range(n))


def test_divided_difference_golden():
    x1 = Polynomial.variable(1, 2)
    assert divided_difference(1, x1) == Polynomial.one(2)
    assert divided_difference(1, Polynomial.monomial((1, 1))).is_zero
    assert divided_difference(1, Polynomial.monomial((2, 0))) == Polynomial(
        2, {(1, 0): 1, (0, 1): 1}
    )


def test_demazure_golden():
    assert demazure(1, Polynomial.variable(1, 2)) == Polynomial(2, {(1, 0): 1, (0, 1): 1})
    assert demazure(1, Polynomial.one(2)) == Polynomial.one(2)


def test_demazure_formula_reproduces_schubert_31542():
    n = 5
    f = demazure(1, Polynomial.variable(1, n))
    f = demazure(3, f.mul_monomial((1, 1, 1, 0, 0)))
    f = demazure(2, f)
    f = f.mul_monomial((1, 0, 0, 0, 0))
    assert f == schubert_recursive(from_one_line([3, 1, 5, 4, 2]))


def test_isobaric_golden():
    # frozen from the definition: ibar_1(x1) = d_1(x1 - x1 x2) = 1
    assert isobaric(1, Polynomial.variable(1, 2)) == Polynomial.one(2)
    assert isobaric(1, Polynomial.constant(2, 5)) == Polynomial.constant(2, 5)


def test_demazure_lascoux_golden():
    assert demazure_lascoux(1, Polynomial.monomial((1, 1))) == Polynomial.monomial((1, 1))
    # exponents (0, 2): result x1*x2^2 + x1^2*x2 - x1*x2
    assert demazure_lascoux(1, Polynomial.monomial((0, 2))) == Polynomial(
        2, {(1, 2): 1, (2, 1): 1, (1, 1): -1}
    )
    assert demazure_lascoux(1, Polynomial.one(2)) == Polynomial.one(2)


OPERATORS = (
    (divided_difference, divided_difference_kernel),
    (demazure, demazure_kernel),
    (isobaric, isobaric_kernel),
    (demazure_lascoux, demazure_lascoux_kernel),
)


def test_demazure_lascoux_at_the_exponent_bound():
    # x_j (1 - x_{j+1}) f passes the bound on the way; the result does not
    top = Polynomial.monomial((MAX_EXPONENT, MAX_EXPONENT))
    assert demazure_lascoux(1, top) == demazure_lascoux_kernel(1, top) == top
    f = Polynomial(3, {(MAX_EXPONENT, MAX_EXPONENT, 0): 2, (0, MAX_EXPONENT, MAX_EXPONENT): -1})
    for j in (1, 2):
        for op, kernel in OPERATORS:
            assert op(j, f) == kernel(j, f)


@st.composite
def near_bound(draw):
    # exponents anywhere in range, most of them within 8 of the bound
    n = draw(st.integers(2, 12))
    exponent = st.one_of(st.integers(MAX_EXPONENT - 8, MAX_EXPONENT), st.integers(0, MAX_EXPONENT))
    terms = draw(st.dictionaries(st.tuples(*[exponent] * n), st.integers(-3, 3), max_size=3))
    return Polynomial(n, terms), draw(st.integers(1, n - 1))


@settings(max_examples=60, deadline=None)
@given(near_bound())
def test_operators_match_kernel_oracle_near_the_exponent_bound(case):
    f, j = case
    terms = dict(f.terms)
    for op, kernel in OPERATORS:
        assert op(j, f) == kernel(j, f)
        assert f.terms == terms  # the caller's polynomial is only read
    if not f.is_zero:
        assert f.max_exponents() == tuple(map(max, zip(*f.monomials())))


def test_index_out_of_range():
    f = Polynomial.one(3)
    for op in (divided_difference, demazure, isobaric, demazure_lascoux):
        with pytest.raises(ValueError):
            op(0, f)
        with pytest.raises(ValueError):
            op(3, f)


def test_divided_difference_matches_kernel_oracle():
    for n, f, j, _ in _cases(seed=2):
        assert divided_difference(j, f) == divided_difference_kernel(j, f)


def test_demazure_matches_kernel_oracle():
    for n, f, j, _ in _cases(seed=16):
        assert demazure(j, f) == demazure_kernel(j, f)


def test_isobaric_matches_kernel_oracle():
    for n, f, j, _ in _cases(seed=17):
        assert isobaric(j, f) == isobaric_kernel(j, f)


def test_demazure_lascoux_matches_kernel_oracle():
    for n, f, j, _ in _cases(seed=3):
        assert demazure_lascoux(j, f) == demazure_lascoux_kernel(j, f)


def test_divided_difference_squares_to_zero():
    for n, f, j, _ in _cases(seed=4):
        assert divided_difference(j, divided_difference(j, f)).is_zero


def test_divided_difference_far_commutation():
    rng = random.Random(5)
    for _ in range(SAMPLES):
        f = random_polynomial(rng, 5)
        j, k = rng.choice([(1, 3), (1, 4), (2, 4), (3, 1), (4, 2)])
        assert divided_difference(j, divided_difference(k, f)) == divided_difference(
            k, divided_difference(j, f)
        )


def test_divided_difference_braid():
    rng = random.Random(6)
    for _ in range(SAMPLES):
        n = rng.randint(3, 5)
        f = random_polynomial(rng, n)
        j = rng.randint(1, n - 2)
        lhs = divided_difference(j, divided_difference(j + 1, divided_difference(j, f)))
        rhs = divided_difference(j + 1, divided_difference(j, divided_difference(j + 1, f)))
        assert lhs == rhs


def test_kernel_is_symmetric_polynomials():
    # d_j(f) = 0 iff f is symmetric in x_j, x_{j+1}
    for n, f, j, _ in _cases(seed=7):
        symmetric = swap_variables(f, j) == f
        assert divided_difference(j, f).is_zero == symmetric
        symmetrized = f + swap_variables(f, j)
        assert divided_difference(j, symmetrized).is_zero
    assert not divided_difference(1, Polynomial.variable(1, 2)).is_zero


def test_symmetric_factor_pulls_out():
    # if d_j(f) = 0 then d_j(f g) = f d_j(g)
    rng = random.Random(8)
    for _ in range(SAMPLES):
        n = rng.randint(2, 5)
        j = rng.randint(1, n - 1)
        f = random_polynomial(rng, n, max_terms=3)
        f = f + swap_variables(f, j)
        g = random_polynomial(rng, n, max_terms=3)
        assert divided_difference(j, f * g) == f * divided_difference(j, g)


def test_divided_difference_output_in_kernel():
    for n, f, j, _ in _cases(seed=9):
        assert divided_difference(j, divided_difference(j, f)).is_zero


def test_isobaric_idempotent():
    for n, f, j, _ in _cases(seed=10):
        once = isobaric(j, f)
        assert isobaric(j, once) == once


def test_isobaric_far_commutation():
    rng = random.Random(11)
    for _ in range(SAMPLES):
        f = random_polynomial(rng, 5)
        j, k = rng.choice([(1, 3), (1, 4), (2, 4)])
        assert isobaric(j, isobaric(k, f)) == isobaric(k, isobaric(j, f))


def test_isobaric_braid():
    rng = random.Random(12)
    for _ in range(SAMPLES):
        n = rng.randint(3, 5)
        f = random_polynomial(rng, n)
        j = rng.randint(1, n - 2)
        lhs = isobaric(j, isobaric(j + 1, isobaric(j, f)))
        rhs = isobaric(j + 1, isobaric(j, isobaric(j + 1, f)))
        assert lhs == rhs


def test_isobaric_image_is_symmetric():
    for n, f, j, _ in _cases(seed=13):
        g = isobaric(j, f)
        assert swap_variables(g, j) == g


def _expansion_rhs(j, delta, g):
    # d_j(g)*(x_{j+1}^delta - x_j*x_{j+1}^delta)
    #   + g * sum_{q=0}^{delta-1} x_j^q x_{j+1}^{delta-1-q}
    #   - g * sum_{q=0}^{delta-2} x_j^{q+1} x_{j+1}^{delta-1-q}
    n = g.n

    def mono(a, b):
        e = [0] * n
        e[j - 1] += a
        e[j] += b
        return tuple(e)

    dg = divided_difference(j, g)
    total = dg.mul_monomial(mono(0, delta)) - dg.mul_monomial(mono(1, delta))
    for q in range(delta):
        total = total + g.mul_monomial(mono(q, delta - 1 - q))
    for q in range(delta - 1):
        total = total - g.mul_monomial(mono(q + 1, delta - 1 - q))
    return total


def test_isobaric_power_expansion_identity():
    # ibar_j(x_j^delta g) expands into d_j(g) and shifted copies of g
    rng = random.Random(14)
    for _ in range(SAMPLES):
        n = rng.randint(2, 5)
        g = random_polynomial(rng, n)
        j = rng.randint(1, n - 1)
        delta = rng.randint(1, 5)
        lhs = isobaric(j, g.mul_monomial(_xj(n, j, delta)))
        assert lhs == _expansion_rhs(j, delta, g)


def _hypothesis_family(n=5):
    """Sorted nonidentity w with the exact quotient g of the raised Grothendieck polynomial.

    Yields (w, g, start, gap) where g satisfies ibar_k(g) = g and
    d_k(g) = 0 for k in [start+1, start+gap-1].
    """
    for w in symmetric_group(n):
        if w.is_identity() or not is_sorted_permutation(w):
            continue
        data = primary_column_data(w)
        raised = grothendieck_recursive(os_predecessor(w))
        g = exact_divide_monomial(raised, _xj(n, data.prefix + 1, data.gap))
        yield w, g, data.prefix + 1, data.gap


def test_quotient_family_satisfies_operator_hypotheses():
    # exact division succeeds and the quotient is fixed by the inner operators
    count = 0
    for w, g, start, gap in _hypothesis_family():
        for k in range(start + 1, start + gap):
            assert isobaric(k, g) == g
            assert divided_difference(k, g).is_zero
        count += 1
    assert count > 0


def test_collapse_identity_within_operator_range():
    # ibar_{start+gap-1} ... ibar_{start+1} (x_{start+1}^delta g) = g
    # holds for delta up to gap-1, the range the ascending formula ever needs
    for w, g, start, gap in _hypothesis_family():
        if gap < 2:
            continue
        n = g.n
        for delta in range(gap):
            t = g.mul_monomial(_xj(n, start + 1, delta))
            for k in range(start + 1, start + gap):
                t = isobaric(k, t)
            assert t == g, (w, delta)


def test_collapse_identity_sharpness():
    # delta = gap genuinely escapes the identity: frozen counterexample
    # g = x1, chain = ibar_2, delta = 2:
    # ibar_2(x1 x2^2) = x1*(x2 + x3 - x2*x3) != x1
    g = Polynomial.variable(1, 3)
    assert isobaric(2, g) == g and divided_difference(2, g).is_zero
    out = isobaric(2, g.mul_monomial((0, 2, 0)))
    assert out == Polynomial(3, {(1, 1, 0): 1, (1, 0, 1): 1, (1, 1, 1): -1})
    assert out != g


def test_shifted_quotient_keeps_hypotheses():
    # g' = pibar_start(g) satisfies the same identities one step in
    for w, g, start, gap in _hypothesis_family():
        if gap < 2:
            continue
        shifted = demazure_lascoux(start, g)
        for k in range(start + 2, start + gap):
            assert isobaric(k, shifted) == shifted
            assert divided_difference(k, shifted).is_zero


def test_ladder_equality_isobaric_vs_demazure_lascoux():
    # ibar_{start+gap-1} ... ibar_start (x_start^gap g)
    #   = pibar_{start+gap-1} ... pibar_start (g)
    for w, g, start, gap in _hypothesis_family():
        n = g.n
        lhs = g.mul_monomial(_xj(n, start, gap))
        for k in range(start, start + gap):
            lhs = isobaric(k, lhs)
        rhs = g
        for k in range(start, start + gap):
            rhs = demazure_lascoux(k, rhs)
        assert lhs == rhs, w


def test_ladder_equality_base_case_random():
    # gap = 1 reduces to ibar_j(x_j g) = pibar_j(g), true for every g
    rng = random.Random(15)
    for _ in range(SAMPLES):
        n = rng.randint(2, 5)
        g = random_polynomial(rng, n)
        j = rng.randint(1, n - 1)
        assert isobaric(j, g.mul_monomial(_xj(n, j))) == demazure_lascoux(j, g)


def test_demazure_lascoux_divisibility_bound():
    # every monomial of pibar_j(x_j^a x_{j+1}^b) divides x_j^max x_{j+1}^max
    for a in range(7):
        for b in range(7):
            out = demazure_lascoux(1, Polynomial.monomial((a, b, 0)))
            cap = max(a, b)
            for exps in out.monomials():
                assert exps[0] <= cap and exps[1] <= cap
