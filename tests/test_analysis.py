from __future__ import annotations

import pytest

from orthodontia.analysis import (
    SupportVectors,
    check_conjecture,
    check_divisibility,
    degree_report,
    exponent_change_check,
    support_vectors,
    support_witness,
)
from orthodontia.diagram import (
    closure_monomial,
    diagram_monomial,
    orthodontia,
    rothe_diagram,
    upper_closure,
)
from orthodontia.grothendieck import (
    grothendieck_recursive,
    is_sorted_permutation,
    os_predecessor,
)
from orthodontia.permutation import from_one_line, identity, longest_element, symmetric_group
from orthodontia.polynomial import Polynomial, monomial_divides

from oracles import support_witness_scan


def facts(w):
    """The orthodontic sequence and upper-closure monomial the checks take."""
    D = rothe_diagram(w)
    return orthodontia(D), closure_monomial(D)


def test_check_divisibility_identity():
    w = identity(3)
    assert check_divisibility(w, facts(w)[1]) == (True, None)


def test_check_divisibility_14532():
    w = from_one_line([1, 4, 5, 3, 2])
    bound = diagram_monomial(upper_closure(rothe_diagram(w)))
    assert bound == (2, 2, 2, 1, 0)
    for exps in grothendieck_recursive(w).monomials():
        assert monomial_divides(exps, bound)
    assert check_divisibility(w, facts(w)[1]) == (True, None)


def test_check_divisibility_s5():
    for w in symmetric_group(5):
        assert check_divisibility(w, facts(w)[1]) == (True, None)


def test_support_checks_match_scan_oracle_s5():
    for w in symmetric_group(5):
        # the checks take the library's closure monomial; the oracle's bound
        # comes from the closure diagram itself
        seq, closure = facts(w)
        groth = grothendieck_recursive(w)
        witness = support_witness_scan(groth, diagram_monomial(upper_closure(rothe_diagram(w))))
        assert check_divisibility(w, closure) == (witness is None, witness)
        vectors = support_vectors(seq, closure)
        conjectured = tuple(t + x for t, x in zip(vectors.theta, vectors.xi))
        witness = support_witness_scan(groth, conjectured)
        assert check_conjecture(w, seq, closure) == (witness is None, witness)


def test_support_witness_with_shrunken_bound():
    # lowering one entry of the tight bound below its maximum exponent forces
    # the canonical-order scan, which must find the oracle's first witness
    shrunk = 0
    for w in symmetric_group(4):
        groth = grothendieck_recursive(w)
        maxima = tuple(map(max, zip(*groth.monomials())))
        assert support_witness(groth, maxima) is None
        for i, top in enumerate(maxima):
            if top:
                bound = maxima[:i] + (top - 1,) + maxima[i + 1 :]
                witness = support_witness(groth, bound)
                assert witness is not None and witness[i] == top
                assert witness == support_witness_scan(groth, bound)
                shrunk += 1
    assert shrunk > 0
    assert support_witness(Polynomial.zero(3), (0, 0, 0)) is None


def test_degree_report_identity():
    w = identity(4)
    r = degree_report(w, *facts(w))
    assert (r.deg_groth, r.deg_schub, r.ortho_length, r.upper_closure_size) == (0, 0, 0, 0)
    assert r.bound_prop == 0 and r.bound_cor == 0


def test_degree_report_14532():
    w = from_one_line([1, 4, 5, 3, 2])
    r = degree_report(w, *facts(w))
    assert r.deg_groth == 7
    assert r.deg_schub == 5
    assert r.ortho_length == 3
    assert r.upper_closure_size == 7
    assert r.bound_prop == 8
    assert r.bound_cor == 7


def test_degree_report_longest():
    w = longest_element(4)
    r = degree_report(w, *facts(w))
    assert r.deg_groth == 6 and r.deg_schub == 6


def test_degree_bounds_s5():
    for w in symmetric_group(5):
        r = degree_report(w, *facts(w))
        assert r.deg_groth <= r.bound_prop and r.deg_groth <= r.bound_cor, w


def test_exponent_change_check_s5():
    seen = 0
    for w in symmetric_group(5):
        if w.is_identity() or not is_sorted_permutation(w):
            continue
        seen += 1
        assert exponent_change_check(w), w
    assert seen > 0


def test_exponent_change_single_variable_case():
    # gap = 1: the trailing product has a single factor
    w = from_one_line([3, 1, 4, 2])
    assert is_sorted_permutation(w)
    from orthodontia.grothendieck import primary_column_data

    assert primary_column_data(w).gap == 1
    assert exponent_change_check(w)


def test_exponent_change_golden_923854761():
    # both closure monomials recomputed from scratch; the step relation
    # holds with shift count 2 on variables x3, x4 against x2^2
    w = from_one_line([9, 2, 3, 8, 5, 4, 7, 6, 1])
    assert is_sorted_permutation(w)
    u = os_predecessor(w)
    assert u.word == (9, 8, 2, 3, 5, 4, 7, 6, 1)
    mw = diagram_monomial(upper_closure(rothe_diagram(w)))
    mu = diagram_monomial(upper_closure(rothe_diagram(u)))
    assert mw == (8, 5, 5, 5, 3, 2, 2, 1, 0)
    assert mu == (8, 7, 3, 3, 3, 2, 2, 1, 0)
    # mw * x2^2 == mu * x3^2 * x4^2
    lhs = list(mw)
    lhs[1] += 2
    rhs = list(mu)
    rhs[2] += 2
    rhs[3] += 2
    assert lhs == rhs
    assert exponent_change_check(w)


def test_exponent_change_rejects_bad_input():
    with pytest.raises(ValueError):
        exponent_change_check(identity(3))
    with pytest.raises(ValueError):
        exponent_change_check(from_one_line([6, 8, 4, 3, 2, 7, 5, 1]))  # unsorted


def test_support_vectors_identity():
    v = support_vectors(*facts(identity(4)))
    assert v.theta == (0, 0, 0, 0)
    assert v.xi == (0, 0, 0, 0)


def test_support_vectors_14532():
    v = support_vectors(*facts(from_one_line([1, 4, 5, 3, 2])))
    assert v.theta == (2, 2, 2, 1, 0)
    assert v.xi == (1, 1, 1, 0, 0)


def test_support_vectors_refuse_negative_entries():
    vectors = SupportVectors((1, 0), (0, 2))
    assert vectors == ((1, 0), (0, 2))
    for theta, xi in [((1, -1), (0, 0)), ((0, 0), (-1, 0)), ((-2,), (-1,))]:
        with pytest.raises(ValueError, match="support vectors must be nonnegative"):
            SupportVectors(theta, xi)
    # the tuple methods build through the checks too
    for build in (lambda: vectors._replace(xi=(0, -2)), lambda: SupportVectors._make([(1, 0), (-1, 0)])):
        with pytest.raises(ValueError, match="support vectors must be nonnegative"):
            build()
    for build in (
        lambda: SupportVectors((1,), (0, 2)),
        lambda: vectors._replace(theta=(1,)),
        lambda: SupportVectors._make([(1, 0, 0), (0, 2)]),
    ):
        with pytest.raises(ValueError, match="theta and xi must have equal length"):
            build()
    assert type(vectors._replace(xi=(3, 0))) is SupportVectors


def test_support_vectors_s5_consistency():
    for w in symmetric_group(5):
        v = support_vectors(*facts(w))
        closed = upper_closure(rothe_diagram(w))
        assert sum(v.theta) == closed.box_count()
        # theta is exactly the closure monomial, row by row
        assert v.theta == diagram_monomial(closed)
        assert sum(v.xi) == orthodontia(rothe_diagram(w)).step_count


def test_check_conjecture_identity_and_14532():
    e = identity(3)
    assert check_conjecture(e, *facts(e)) == (True, None)
    w = from_one_line([1, 4, 5, 3, 2])
    ok, witness = check_conjecture(w, *facts(w))
    assert ok and witness is None
    v = support_vectors(*facts(w))
    assert tuple(t + x for t, x in zip(v.theta, v.xi)) == (3, 3, 3, 1, 0)
