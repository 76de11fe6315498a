from __future__ import annotations

import pytest

from orthodontia.analysis import (
    _check_conjecture_from,
    _check_divisibility_from,
    _degree_report_from,
    check_conjecture,
    check_divisibility,
    degree_report,
    exponent_change_check,
    support_vectors,
    support_witness,
)
from orthodontia.diagram import diagram_monomial, orthodontia, rothe_diagram, upper_closure
from orthodontia.grothendieck import (
    grothendieck_recursive,
    is_sorted_permutation,
    os_predecessor,
)
from orthodontia.permutation import from_one_line, identity, longest_element, symmetric_group
from orthodontia.polynomial import Polynomial, monomial_divides

from oracles import support_witness_scan


def test_check_divisibility_identity():
    assert check_divisibility(identity(3)) == (True, None)


def test_check_divisibility_14532():
    w = from_one_line([1, 4, 5, 3, 2])
    bound = diagram_monomial(upper_closure(rothe_diagram(w)))
    assert bound == (2, 2, 2, 1, 0)
    for exps in grothendieck_recursive(w).monomials():
        assert monomial_divides(exps, bound)
    assert check_divisibility(w) == (True, None)


def test_check_divisibility_s5():
    for w in symmetric_group(5):
        assert check_divisibility(w) == (True, None)


def test_support_checks_match_scan_oracle_s5():
    for w in symmetric_group(5):
        groth = grothendieck_recursive(w)
        closure = diagram_monomial(upper_closure(rothe_diagram(w)))
        witness = support_witness_scan(groth, closure)
        assert check_divisibility(w) == (witness is None, witness)
        vectors = support_vectors(w)
        conjectured = tuple(t + x for t, x in zip(vectors.theta, vectors.xi))
        witness = support_witness_scan(groth, conjectured)
        assert check_conjecture(w) == (witness is None, witness)


def test_support_witness_with_shrunken_bound():
    # lowering one entry of the tight bound below its maximum exponent forces
    # the canonical-order scan, which must find the oracle's first witness
    shrunk = 0
    for w in symmetric_group(4):
        groth = grothendieck_recursive(w)
        maxima = tuple(map(max, zip(*groth.terms)))
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


def test_fact_taking_forms_match_the_public_checks_s1_to_s6():
    # the closure monomial comes from the closure diagram itself here
    for n in range(1, 7):
        for w in symmetric_group(n):
            D = rothe_diagram(w)
            seq, closure = orthodontia(D), diagram_monomial(upper_closure(D))
            assert _check_divisibility_from(w, closure) == check_divisibility(w), w
            assert _degree_report_from(w, seq, closure) == degree_report(w), w
            assert _check_conjecture_from(w, seq, closure) == check_conjecture(w), w


def test_degree_report_identity():
    r = degree_report(identity(4))
    assert (r.deg_groth, r.deg_schub, r.ortho_length, r.upper_closure_size) == (0, 0, 0, 0)
    assert r.bound_prop == 0 and r.bound_cor == 0


def test_degree_report_14532():
    r = degree_report(from_one_line([1, 4, 5, 3, 2]))
    assert r.deg_groth == 7
    assert r.deg_schub == 5
    assert r.ortho_length == 3
    assert r.upper_closure_size == 7
    assert r.bound_prop == 8
    assert r.bound_cor == 7


def test_degree_report_longest():
    r = degree_report(longest_element(4))
    assert r.deg_groth == 6 and r.deg_schub == 6


def test_degree_bounds_s5():
    for w in symmetric_group(5):
        r = degree_report(w)
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
    v = support_vectors(identity(4))
    assert v.theta == (0, 0, 0, 0)
    assert v.xi == (0, 0, 0, 0)


def test_support_vectors_14532():
    v = support_vectors(from_one_line([1, 4, 5, 3, 2]))
    assert v.theta == (2, 2, 2, 1, 0)
    assert v.xi == (1, 1, 1, 0, 0)


def test_support_vectors_s5_consistency():
    from orthodontia.diagram import orthodontia

    for w in symmetric_group(5):
        v = support_vectors(w)
        closed = upper_closure(rothe_diagram(w))
        assert sum(v.theta) == closed.box_count()
        # theta is exactly the closure monomial, row by row
        assert v.theta == diagram_monomial(closed)
        assert sum(v.xi) == orthodontia(rothe_diagram(w)).step_count


def test_check_conjecture_identity_and_14532():
    assert check_conjecture(identity(3)) == (True, None)
    w = from_one_line([1, 4, 5, 3, 2])
    ok, witness = check_conjecture(w)
    assert ok and witness is None
    v = support_vectors(w)
    assert tuple(t + x for t, x in zip(v.theta, v.xi)) == (3, 3, 3, 1, 0)
