"""Support and degree analysis for Grothendieck polynomials.

Each check takes w together with the facts of its Rothe diagram that it
reads: the orthodontic sequence (:func:`orthodontia.diagram.orthodontia`)
and the upper-closure monomial
(:func:`orthodontia.diagram.closure_monomial`).  A caller builds them once
per word and may share them across checks, as verify does.

Two facts are verified exhaustively by the test and verify suites:

- every monomial of G_w divides the monomial of the upper closure of the
  diagram of w;
- deg G_w is bounded both by deg S_w + (number of orthodontia steps) and
  by the box count of the upper closure.

The theta + xi bound is checked as an experiment only: a counterexample
is reported, never a build failure.  It is not sharper than the first
fact but weaker: theta is the upper-closure monomial itself (row i of
the closure has a box in column c iff max(c) >= i) and xi >= 0, so
x^(theta + xi) is a multiple of x^closure, and the experiment passes
wherever the divisibility check does.
"""

from __future__ import annotations

from typing import NamedTuple

from orthodontia.diagram import OrthodonticSequence, mask_closure, rothe_masks
from orthodontia.grothendieck import (
    _grothendieck_entry,
    _schubert_entry,
    grothendieck_recursive,
    is_sorted_permutation,
    os_predecessor,
    primary_column_data,
)
from orthodontia.permutation import Permutation
from orthodontia.polynomial import Monomial, Polynomial, monomial_divides


class DegreeReport(NamedTuple):
    """Degree of G_w against the two combinatorial upper bounds.

    ``bound_prop`` is deg S_w plus the orthodontia step count;
    ``bound_cor`` is the box count of the upper closure.  Both bounds are
    theorems; the report records them, and the verify ``degree`` check judges them.
    """

    deg_groth: int
    deg_schub: int
    bound_prop: int
    bound_cor: int


def support_witness(f: Polynomial, bound: Monomial) -> Monomial | None:
    """The first monomial of f, in canonical order, that does not divide x^bound.

    None when every monomial divides it (vacuously for f = 0).  Every
    monomial divides x^bound iff the per-variable maximum exponents do,
    so the canonical-order scan runs only when there is a witness.
    """
    if f.is_zero or monomial_divides(f.max_exponents(), bound):
        return None
    for exps in f.monomials():
        if not monomial_divides(exps, bound):
            return exps
    raise AssertionError("maximum exponents exceed the bound but no monomial does")


def _grothendieck_witness(w: Permutation, bound: Monomial) -> Monomial | None:
    # support_witness of G_w, with the maximum exponents its memo entry
    # keeps, so G_w is built only to name a witness
    if monomial_divides(tuple(_grothendieck_entry(w.word).max_exponents), bound):
        return None
    return support_witness(grothendieck_recursive(w), bound)


def check_divisibility(w: Permutation, closure: Monomial) -> tuple[bool, Monomial | None]:
    """Does every monomial of G_w divide x^closure, the upper-closure monomial of w?

    Returns (True, None), or (False, offending exponent vector).
    """
    witness = _grothendieck_witness(w, closure)
    return witness is None, witness


def degree_report(w: Permutation, seq: OrthodonticSequence, closure: Monomial) -> DegreeReport:
    """Degree of G_w and both bounds, given the orthodontic sequence and
    upper-closure monomial of w; never raises on a failed bound.

    The degrees are the ones the memo entries of G_w and S_w keep.
    """
    deg_schub = _schubert_entry(w.word).degree
    return DegreeReport(
        deg_groth=_grothendieck_entry(w.word).degree,
        deg_schub=deg_schub,
        bound_prop=deg_schub + seq.step_count,
        bound_cor=sum(closure),
    )


def exponent_change_check(w: Permutation) -> bool:
    """Verify how the upper-closure monomial changes one sorted step up.

    For sorted nonidentity w with primary column data (prefix, tooth,
    gap), let u = w * s_tooth * ... * s_{prefix+1} and let gamma count
    the columns right of the leading standard block whose lowest box sits
    in row tooth+1.  Then, written without negative exponents,

        x^closure(w) * x_{prefix+1}^gap
            = x^closure(u) * (x_{prefix+2} * ... * x_{tooth+1})^gamma,

    and the exponents c_p of x^closure(u) satisfy
    c_{prefix+1} - gap = c_p + gamma for p in prefix+2..tooth+1.
    """
    if w.is_identity():
        raise ValueError("w must be a nonidentity sorted permutation")
    if not is_sorted_permutation(w):
        raise ValueError(f"{w} is not sorted")
    data = primary_column_data(w)
    masks = rothe_masks(w.word)
    gamma = sum(1 for c in masks[data.standard_cols :] if c.bit_length() == data.tooth + 1)
    # for sorted nonidentity w, the predecessor is u, one sorted step up
    mu = mask_closure(rothe_masks(os_predecessor(w).word))
    lhs = list(mask_closure(masks))
    lhs[data.prefix] += data.gap
    rhs = list(mu)
    for p in range(data.prefix + 2, data.tooth + 2):
        rhs[p - 1] += gamma
    if lhs != rhs:
        return False
    head = mu[data.prefix] - data.gap
    return all(head == mu[p - 1] + gamma for p in range(data.prefix + 2, data.tooth + 2))


def check_conjecture(
    w: Permutation, seq: OrthodonticSequence, closure: Monomial
) -> tuple[bool, Monomial | None]:
    """Experimental check: do all monomials of G_w divide x^(theta + xi)?

    ``seq`` and ``closure`` are the orthodontic sequence and upper-closure
    monomial of w.  theta is ``closure`` itself, and entry j of xi counts
    the steps of ``seq`` that swapped rows j, j+1.  Since xi >= 0, this
    follows from :func:`check_divisibility`: it can fail only where that
    check fails.  Callers must not fail a build on (False, witness).
    """
    bound = tuple(theta + seq.teeth.count(j) for j, theta in enumerate(closure, start=1))
    witness = _grothendieck_witness(w, bound)
    return witness is None, witness
