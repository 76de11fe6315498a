from __future__ import annotations

import pytest

from orthodontia import analysis
from orthodontia.analysis import (
    check_conjecture,
    check_divisibility,
    degree_report,
    exponent_change_check,
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

from oracles import orthodontia_oracle, rothe_oracle, support_witness_scan


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
        theta = diagram_monomial(upper_closure(rothe_diagram(w)))
        witness = support_witness_scan(groth, theta)
        assert check_divisibility(w, closure) == (witness is None, witness)
        # xi counts the oracle's steps that swap each row with the next
        (teeth, _, _), _ = orthodontia_oracle(rothe_oracle(w.word))
        conjectured = tuple(t + teeth.count(j) for j, t in enumerate(theta, start=1))
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
    assert r == (0, 0, 0, 0)


def test_degree_report_14532():
    w = from_one_line([1, 4, 5, 3, 2])
    r = degree_report(w, *facts(w))
    assert r.deg_groth == 7
    assert r.deg_schub == 5
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


def test_check_conjecture_identity_and_14532(monkeypatch):
    e = identity(3)
    assert check_conjecture(e, *facts(e)) == (True, None)
    w = from_one_line([1, 4, 5, 3, 2])
    ok, witness = check_conjecture(w, *facts(w))
    assert ok and witness is None
    # theta = (2, 2, 2, 1, 0) plus xi = (1, 1, 1, 0, 0): the three steps swap rows 1, 2 and 3
    bounds = []
    monkeypatch.setattr(analysis, "_grothendieck_witness", lambda w, bound: bounds.append(bound))
    check_conjecture(w, *facts(w))
    assert bounds == [(3, 3, 3, 1, 0)]
