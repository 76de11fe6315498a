from __future__ import annotations

import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from orthodontia import polynomial
from orthodontia.polynomial import (
    _FIELD,
    MAX_EXPONENT,
    Polynomial,
    RankMismatchError,
    _pack,
    _unpack,
    fundamental_weight,
    monomial_divides,
)
from conftest import random_polynomial
from oracles import (
    DivisionRemainderError,
    exact_divide_linear,
    exact_divide_monomial,
    json_oracle,
    summed_terms,
    swap_variables,
    text_oracle,
)


def json_text(f):
    out = io.StringIO()
    f.write_json(out)
    return out.getvalue()


def P(n, terms):
    return Polynomial(n, terms)


@st.composite
def polynomials(draw, min_n=1, max_n=4):
    n = draw(st.integers(min_n, max_n))
    n_terms = draw(st.integers(0, 6))
    return Polynomial(n, [
        (tuple(draw(st.integers(0, 3)) for _ in range(n)), draw(st.integers(-5, 5)))
        for _ in range(n_terms)
    ])


@st.composite
def polynomial_triples(draw):
    f = draw(polynomials())
    g = draw(polynomials(min_n=f.n, max_n=f.n))
    h = draw(polynomials(min_n=f.n, max_n=f.n))
    return f, g, h


def test_arithmetic_golden():
    x1 = Polynomial.variable(1, 2)
    x2 = Polynomial.variable(2, 2)
    f = 3 * x1 * x1 * x2 - x2
    assert (f + (-f)).is_zero
    assert x1 * (x1 * x2) == Polynomial.monomial((2, 1))
    assert (1 - x2) * (1 + x2) == 1 - x2 * x2
    assert f - f == Polynomial.zero(2)
    assert f - 3 == Polynomial(2, {(2, 1): 3, (0, 1): -1, (0, 0): -3})
    assert (f * 0).is_zero
    # an operand that is neither an int nor a polynomial is refused by Python
    for make in (lambda: f + "x", lambda: f - "x", lambda: "x" - f, lambda: f * 1.5):
        with pytest.raises(TypeError):
            make()
    assert not f == 0


def test_rank_mismatch():
    with pytest.raises(RankMismatchError):
        Polynomial.one(2) + Polynomial.one(3)
    with pytest.raises(RankMismatchError):
        Polynomial.one(2) * Polynomial.one(3)
    with pytest.raises(RankMismatchError):
        monomial_divides((1, 0), (1, 0, 0))
    x1 = Polynomial.variable(1, 2)
    with pytest.raises(RankMismatchError):
        x1.mul_monomial((1, 0, 0))
    with pytest.raises(RankMismatchError):
        Polynomial(2, {(1, 0, 0): 1})


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        Polynomial.monomial((0, -2))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Polynomial(0),
        lambda: Polynomial.zero(0),
        lambda: Polynomial.one(0),
        lambda: Polynomial.constant(0, 3),
        lambda: Polynomial.monomial(()),
    ],
)
def test_no_variables_rejected(make):
    with pytest.raises(ValueError, match="variable count must be at least 1"):
        make()


def test_zero_coefficients_pruned():
    f = Polynomial(2, {(1, 0): 0, (0, 1): 2})
    assert list(f.monomials()) == [(0, 1)]
    assert Polynomial.constant(3, 0).is_zero


def test_swap_variables_golden():
    f = Polynomial.monomial((2, 1, 0))
    assert swap_variables(f, 1) == Polynomial.monomial((1, 2, 0))
    sym = Polynomial.monomial((1, 1, 1))
    assert swap_variables(sym, 2) == sym
    with pytest.raises(ValueError):
        swap_variables(f, 3)


@settings(max_examples=200, deadline=None)
@given(polynomials(min_n=2), st.data())
def test_swap_variables_involution(f, data):
    j = data.draw(st.integers(1, f.n - 1))
    assert swap_variables(swap_variables(f, j), j) == f


def test_fundamental_weight():
    assert fundamental_weight(3, 5) == (1, 1, 1, 0, 0)
    assert fundamental_weight(0, 4) == (0, 0, 0, 0)
    assert fundamental_weight(5, 5) == (1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        fundamental_weight(6, 5)


def test_lowest_degree_component():
    x1 = Polynomial.variable(1, 2)
    x2 = Polynomial.variable(2, 2)
    assert (x1 + x1 * x2).lowest_degree_component() == x1
    homogeneous = x1 * x2 + 2 * x1 * x1
    assert homogeneous.lowest_degree_component() == homogeneous
    with pytest.raises(ValueError):
        Polynomial.zero(2).lowest_degree_component()


def test_monomial_divides():
    assert monomial_divides((1, 1, 0), (2, 1, 0))
    assert not monomial_divides((0, 0, 1), (1, 1, 0))
    assert monomial_divides((2, 3), (2, 3))


def test_exact_divide_linear_golden():
    n = 2
    x1 = Polynomial.variable(1, n)
    x2 = Polynomial.variable(2, n)
    assert exact_divide_linear(x1 - x2, 1) == Polynomial.one(n)
    assert exact_divide_linear(x1 * x1 - x2 * x2, 1) == x1 + x2
    assert exact_divide_linear(x1 * x1 * x2 - x1 * x2 * x2, 1) == x1 * x2


def test_exact_divide_linear_remainder_is_contract_error():
    x1 = Polynomial.variable(1, 2)
    with pytest.raises(DivisionRemainderError):
        exact_divide_linear(x1, 1)
    with pytest.raises(DivisionRemainderError):
        exact_divide_linear(Polynomial.one(2), 1)


@settings(max_examples=200, deadline=None)
@given(polynomials(min_n=2), st.data())
def test_exact_divide_linear_inverts_multiplication(f, data):
    j = data.draw(st.integers(1, f.n - 1))
    xj = Polynomial.variable(j, f.n)
    xj1 = Polynomial.variable(j + 1, f.n)
    assert exact_divide_linear(f * (xj - xj1), j) == f


def test_exact_divide_monomial():
    f = Polynomial(3, {(2, 1, 0): 3, (1, 1, 1): -2})
    assert exact_divide_monomial(f, (1, 1, 0)) == Polynomial(3, {(1, 0, 0): 3, (0, 0, 1): -2})
    with pytest.raises(DivisionRemainderError):
        exact_divide_monomial(f, (0, 0, 1))
    # a missing power of a middle or the first variable, next to fields that do divide
    with pytest.raises(DivisionRemainderError):
        exact_divide_monomial(Polynomial.monomial((1, 0, 5)), (0, 1, 0))
    with pytest.raises(DivisionRemainderError):
        exact_divide_monomial(Polynomial.monomial((0, 255, 255)), (1, 0, 0))


@settings(max_examples=200, deadline=None)
@given(polynomial_triples())
def test_ring_axioms(triple):
    f, g, h = triple
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=200, deadline=None)
@given(polynomials(), st.data())
def test_mul_monomial_is_the_product_and_leaves_its_input(f, data):
    exps = data.draw(st.tuples(*[st.integers(0, 3)] * f.n))
    terms = dict(f.terms)
    product = f.mul_monomial(exps)
    assert type(product) is Polynomial and product == f * Polynomial.monomial(exps)
    assert f.terms == terms


@settings(max_examples=200, deadline=None)
@given(polynomials())
def test_json_round_trip(f):
    written = io.StringIO()
    f.write_json(written)
    assert written.getvalue() == json.dumps(json_oracle(f), sort_keys=True, separators=(",", ":"))


@st.composite
def term_lists(draw):
    # (exponent vector, coefficient) pairs over a few vectors, so that
    # vectors repeat, with some pairs negated and appended to cancel
    n = draw(st.integers(1, 4))
    vectors = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=4))
    coeffs = st.integers(-3, 3) | st.sampled_from([2**64, -(3**50)])
    pairs = draw(st.lists(st.tuples(st.sampled_from(vectors), coeffs), max_size=10))
    cancel = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return n, draw(st.permutations(pairs + [(exps, -c) for exps, c in cancel]))


@settings(max_examples=300, deadline=None)
@given(term_lists())
def test_every_way_in_adds_terms_up(case):
    n, pairs = case
    expected = summed_terms(pairs)
    ways = {
        "+": sum((Polynomial.monomial(exps, c) for exps, c in pairs), Polynomial.zero(n)),
        "constructor": Polynomial(n, pairs),
    }
    for way, f in ways.items():
        assert dict(f.sorted_terms()) == expected, way


def test_repeated_terms_add_up():
    f = Polynomial(1, [((1,), 1), ((1,), 2)])
    assert str(f) == "3*x1"
    assert f == Polynomial.monomial((1,), 3)
    assert Polynomial(1, [((1,), 1), ((1,), -1)]).is_zero


@pytest.mark.parametrize(
    "make, problem",
    [
        (lambda: Polynomial(2, {(1, 0): 1.5}), "not an int"),
        (lambda: Polynomial(2, {("1", 0): 1}), "not an int"),
        (lambda: Polynomial(2.5), "not an int"),
        (lambda: Polynomial(2.0), "not an int"),
        (lambda: Polynomial.monomial((1.0, 0)), "not an int"),
        (lambda: Polynomial.zero(2.5), "not an int"),
        (lambda: Polynomial.one(2.5), "not an int"),
        (lambda: Polynomial.constant(2.5, 3), "not an int"),
        (lambda: Polynomial.variable(1, 2.5), "not an int"),
        (lambda: Polynomial.variable(1.0, 2), "not an int"),
        (lambda: Polynomial.one("2"), "not an int"),
        # terms given as (exponents, coefficient) pairs
        (lambda: Polynomial(1, [((1.7,), 1)]), "not an int"),
        (lambda: Polynomial(1, [((1,), 2.9)]), "not an int"),
        (lambda: Polynomial(1, [((1,), "2")]), "not an int"),
        (lambda: Polynomial(2, [([1, "0"], 1)]), "not an int"),
        (lambda: Polynomial.monomial((1, 0), 2.9), "not an int"),
        (lambda: Polynomial.constant(2, 1.5), "not an int"),
        # exponent vectors of another length, or below 0
        (lambda: Polynomial(2, {(1, 0, 0): 1}), "wrong length for n=2"),
        (lambda: Polynomial(2, [((-1, 0), 1)]), "negative exponent"),
        # monomial arguments
        (lambda: Polynomial.variable(1, 2).mul_monomial((1.5, 0)), "not an int"),
        (lambda: Polynomial.variable(1, 2).mul_monomial(("1", 0)), "not an int"),
        (lambda: Polynomial.variable(1, 2).coefficient((1.5, 0)), "not an int"),
        (lambda: Polynomial.variable(1, 2).coefficient(("1", 0)), "not an int"),
        # variable indices out of range
        (lambda: Polynomial.variable(3, 2), "variable index 3 out of range"),
    ],
)
def test_non_int_input_is_refused(make, problem):
    with pytest.raises(ValueError, match=problem):
        make()


def test_canonical_serialization_is_stable():
    f = Polynomial(2, {(1, 0): 1, (0, 1): 1, (2, 0): -1})
    g = Polynomial(2, {(2, 0): -1, (0, 1): 1, (1, 0): 1})
    assert f == g and hash(f) == hash(g)
    assert str(f) == str(g)
    assert json_text(f) == json_text(g)


def test_text_form_examples():
    assert str(Polynomial.zero(3)) == "0"
    assert str(Polynomial.one(3)) == "1"
    assert str(Polynomial.constant(3, -4)) == "-4"
    f = Polynomial(3, {(2, 1, 0): 3, (0, 0, 1): -1})
    assert str(f) == "-x3 + 3*x1^2*x2"
    assert str(Polynomial.monomial((0, 1, 0), -1)) == "-x2"


# coefficients of magnitude 1, small ones, and ones beyond 64 bits
_COEFFS = (1, -1, 2, -3, 12, 2**63, -(2**63) - 1, 7**40, -(10**30))


def _random_polynomial(rng: random.Random, n: int, terms: int, top: int = 4) -> Polynomial:
    return Polynomial(n, {
        tuple(rng.choice((0, 0, 1, 2, top)) for _ in range(n)): rng.choice(_COEFFS)
        for _ in range(terms)
    })


def _written(f: Polynomial) -> str:
    out = io.StringIO()
    f.write_text(out)
    return out.getvalue()


@pytest.mark.parametrize("chunk", [1, 3, polynomial._CHUNK])
def test_text_form_matches_the_oracle(monkeypatch, chunk):
    # n = 1..10 covers odd n and, at n = 1, an empty low half of fields;
    # a chunk of 1 or 3 terms puts the leading term alone or not at the
    # start of the first chunk
    monkeypatch.setattr(polynomial, "_CHUNK", chunk)
    rng = random.Random(chunk)
    cases = [Polynomial.zero(3), Polynomial.constant(1, -1), Polynomial.constant(2, 2**64)]
    for n in range(1, 11):
        cases += [Polynomial.one(n), Polynomial.variable(n, n) * -1 + 2]
        cases += [_random_polynomial(rng, n, rng.randint(1, 12), rng.choice((4, 255))) for _ in range(12)]
    assert any(str(f).startswith("-") for f in cases)
    for f in cases:
        text = text_oracle(f)
        assert str(f) == text and _written(f) == text and repr(f) == f"Polynomial({f.n}, {text})"


def test_text_form_of_many_chunks_matches_the_oracle():
    rng = random.Random(5)
    f = Polynomial(5, {
        tuple(rng.randrange(10) for _ in range(5)): rng.choice(_COEFFS)
        for _ in range(3 * polynomial._CHUNK)
    })
    assert len(f.terms) > 2 * polynomial._CHUNK
    assert _written(f) == str(f) == text_oracle(f)


@pytest.mark.parametrize("chunk", [2, polynomial._CHUNK])
def test_snapshots_are_equal_iff_the_polynomials_are(monkeypatch, chunk):
    monkeypatch.setattr(polynomial, "_CHUNK", chunk)
    rng = random.Random(chunk)
    for n in range(1, 7):
        f = _random_polynomial(rng, n, 9)
        assert f.snapshot() == Polynomial(n, dict(reversed(f.sorted_terms()))).snapshot()
        for exps, c in f.sorted_terms():
            # the same keys with one coefficient changed, past 64 bits too
            for other in (2 * c, -c, c + 2**64):
                g = f + Polynomial.monomial(exps, other - c)
                assert g.terms.keys() == f.terms.keys()
                assert g.snapshot() != f.snapshot()
            # the same coefficients with one key moved to a monomial not in f
            moved = next(e for e in _monomials_near(exps) if f.coefficient(e) == 0)
            g = f - Polynomial.monomial(exps, c) + Polynomial.monomial(moved, c)
            assert sorted(g.terms.values()) == sorted(f.terms.values())
            assert g.snapshot() != f.snapshot()
        g = _random_polynomial(rng, n, 3)
        assert (f.snapshot() == g.snapshot()) == (f == g)
    assert Polynomial.one(2).snapshot() != Polynomial.one(3).snapshot()
    assert Polynomial.zero(2).snapshot() == Polynomial.zero(2).snapshot() != Polynomial.one(2).snapshot()


def _monomials_near(exps):
    for i in range(len(exps)):
        for e in range(6):
            yield exps[:i] + (e,) + exps[i + 1 :]


def _x(*pairs, n=10):
    """Exponent vector from (variable, exponent) pairs."""
    exps = [0] * n
    for var, e in pairs:
        exps[var - 1] = e
    return tuple(exps)


def test_text_and_json_golden():
    # ascending degree; within a degree, descending exponent vectors,
    # so x1*x10 > x2^2 > x10^2 (a tie in degree 2) and x1 > x10
    f = Polynomial(10, {
        _x((3, 1), (10, 2)): -1,
        _x((10, 2)): 12,
        _x((2, 2)): -1,
        _x((1, 1), (10, 1)): 2,
        _x((10, 1)): -1,
        _x((1, 1)): 1,
        _x(): -3,
    })
    text = "-3 + x1 - x10 + 2*x1*x10 - x2^2 + 12*x10^2 - x3*x10^2"
    assert str(f) == text
    assert json.loads(json_text(f)) == {"n": 10, "terms": [
        [-3, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]],
        [1, [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]],
        [-1, [0, 0, 0, 0, 0, 0, 0, 0, 0, 1]],
        [2, [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]],
        [-1, [0, 2, 0, 0, 0, 0, 0, 0, 0, 0]],
        [12, [0, 0, 0, 0, 0, 0, 0, 0, 0, 2]],
        [-1, [0, 0, 1, 0, 0, 0, 0, 0, 0, 2]],
    ]}
    assert list(f.monomials()) == [tuple(exps) for _, exps in json.loads(json_text(f))["terms"]]
    # a negative leading coefficient of magnitude 1 and of magnitude > 1,
    # and a bare positive constant in front
    g = Polynomial(2, {(0, 1): -1, (2, 0): -3})
    assert str(g) == "-x2 - 3*x1^2"
    h = Polynomial(2, {(1, 1): -1, (0, 0): 1, (1, 0): -2})
    assert str(h) == "1 - 2*x1 - x1*x2"
    assert json.loads(json_text(h)) == {"n": 2, "terms": [[1, [0, 0]], [-2, [1, 0]], [-1, [1, 1]]]}


def test_power(rng):
    x1 = Polynomial.variable(1, 2)
    assert (1 + x1) ** 0 == Polynomial.one(2)
    assert (1 + x1) ** 3 == 1 + 3 * x1 + 3 * x1 * x1 + x1 * x1 * x1
    for _ in range(20):
        n = rng.randint(1, 3)
        f = random_polynomial(rng, n, max_terms=4)
        assert f ** 0 == Polynomial.one(n)
        product = Polynomial.one(n)
        for k in range(1, 6):
            product = product * f
            assert f ** k == product
    with pytest.raises(ValueError, match="power -1 is negative"):
        x1 ** -1
    for k in (2.0, "2", None):
        with pytest.raises(ValueError, match=f"power {k!r} is not an int"):
            x1 ** k
    # a power past the exponent bound fails in its product, not wrapped
    # into the next field
    with pytest.raises(ValueError, match=f"above the exponent bound {MAX_EXPONENT}"):
        (1 + x1) ** (MAX_EXPONENT + 1)
    with pytest.raises(ValueError, match=f"above the exponent bound {MAX_EXPONENT}"):
        Polynomial.monomial((100, 1)) ** 3


def test_degree_and_min_degree():
    f = Polynomial(2, {(1, 0): 1, (2, 3): 7})
    assert f.degree() == 5
    assert f.min_degree() == 1
    with pytest.raises(ValueError):
        Polynomial.zero(2).degree()
    assert f.max_exponents() == (2, 3)
    with pytest.raises(ValueError):
        Polynomial.zero(2).max_exponents()


def test_coefficient():
    f = Polynomial(2, {(0, 1): 3})
    assert f.coefficient((0, 1)) == 3
    assert f.coefficient([0, 1]) == 3
    assert f.coefficient((1, 0)) == 0
    # a vector of another length names no monomial of f
    for exps in ((1,), (0, 1, 0)):
        with pytest.raises(RankMismatchError):
            f.coefficient(exps)
    # nor does one outside the exponent range
    assert f.coefficient((-1, 1)) == 0
    assert f.coefficient((0, MAX_EXPONENT + 1)) == 0
    assert f.coefficient((MAX_EXPONENT + 1, 1)) == 0


TOP = (MAX_EXPONENT, 0, MAX_EXPONENT)


@pytest.mark.parametrize(
    "make",
    [
        lambda exps: Polynomial(3, {exps: 2}),
        lambda exps: Polynomial.monomial(exps, 2),
        lambda exps: Polynomial(3, [(exps, 2)]),
        lambda exps: Polynomial.monomial(exps) + Polynomial.monomial(exps),
    ],
)
def test_exponent_bound(make):
    f = make(TOP)
    assert f.sorted_terms() == [(TOP, 2)]
    assert f.coefficient(TOP) == 2
    assert f.degree() == 2 * MAX_EXPONENT
    assert str(f) == f"2*x1^{MAX_EXPONENT}*x3^{MAX_EXPONENT}"
    for above in ((MAX_EXPONENT + 1, 0, 0), (0, 0, MAX_EXPONENT + 1)):
        with pytest.raises(ValueError, match=f"above {MAX_EXPONENT}"):
            make(above)


def test_products_past_the_bound_are_refused():
    x1, x2 = Polynomial.variable(1, 2), Polynomial.variable(2, 2)
    low = Polynomial.monomial((0, MAX_EXPONENT))  # a carry would land in x1's field
    high = Polynomial.monomial((MAX_EXPONENT, 0))  # a carry would land in the degree
    for f, x in ((low, x2), (high, x1), (low + x1, x2), (high - x2, x1)):
        with pytest.raises(ValueError, match=f"above the exponent bound {MAX_EXPONENT}"):
            f * x
        with pytest.raises(ValueError, match=f"above the exponent bound {MAX_EXPONENT}"):
            x * f
        with pytest.raises(ValueError, match=f"above the exponent bound {MAX_EXPONENT}"):
            f.mul_monomial(next(x.monomials()))
    with pytest.raises(ValueError, match=f"above the exponent bound {MAX_EXPONENT}"):
        x1 ** (MAX_EXPONENT + 1)
    with pytest.raises(ValueError, match=f"above {MAX_EXPONENT}"):
        x1.mul_monomial((MAX_EXPONENT + 1, 0))
    # products that reach the bound but stay within it
    assert x1 ** MAX_EXPONENT == high
    assert low * x1 == Polynomial.monomial((1, MAX_EXPONENT))
    assert high.mul_monomial((0, MAX_EXPONENT)) == Polynomial.monomial((MAX_EXPONENT, MAX_EXPONENT))
    # degrees past the bound with every exponent within it
    f = Polynomial.monomial((200, 0)) + Polynomial.monomial((0, 100))
    g = Polynomial.monomial((0, 155))
    assert f * g == Polynomial(2, {(200, 155): 1, (0, MAX_EXPONENT): 1})
    assert f.mul_monomial((55, 155)) == Polynomial(2, {(MAX_EXPONENT, 155): 1, (55, MAX_EXPONENT): 1})


def _vectors():
    # lists of exponent vectors of one length, entries over the whole range
    return st.integers(1, 12).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, MAX_EXPONENT)] * n), min_size=1, max_size=8)
    )


@settings(max_examples=300, deadline=None)
@given(_vectors())
def test_packed_key_layout(vectors):
    n = len(vectors[0])
    keys = [_pack(v) for v in vectors]
    fields = (1 << _FIELD * n) - 1
    for v, k in zip(vectors, keys):
        assert _unpack(k, n) == v
        assert k >> _FIELD * n == sum(v)
        assert Polynomial.monomial(v).degree() == sum(v)
    # the exponent fields order as lex order, whole keys as degree, then lex
    assert [_unpack(k, n) for k in sorted(keys, key=fields.__and__)] == sorted(vectors)
    assert [_unpack(k, n) for k in sorted(keys)] == sorted(vectors, key=lambda v: (sum(v), v))
    # the key of a product of monomials is the sum of their keys, up to
    # exponents at the bound
    for a, b in zip(vectors, vectors[1:]):
        a, b = tuple(x // 2 for x in a), tuple(y // 2 for y in b)
        assert _pack(a) + _pack(b) == _pack(tuple(x + y for x, y in zip(a, b)))
    rest = tuple(MAX_EXPONENT - x for x in vectors[0])
    assert _pack(vectors[0]) + _pack(rest) == _pack((MAX_EXPONENT,) * n)
