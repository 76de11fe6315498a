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

from orthodontia.diagram import OrthodonticSequence, closure_monomial, rothe_diagram
from orthodontia.grothendieck import (
    _grothendieck_entry,
    _is_sorted,
    _primary_column_data,
    _schubert_entry,
    _sorted_step_up,
    grothendieck_recursive,
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
    ortho_length: int
    upper_closure_size: int
    bound_prop: int
    bound_cor: int


class _SupportFields(NamedTuple):
    theta: tuple[int, ...]
    xi: tuple[int, ...]


class SupportVectors(_SupportFields):
    """The two exponent vectors whose sum is the conjecture experiment's bound,
    a read-only tuple record.

    ``theta``: the upper-closure monomial; entry j counts columns reaching row j or lower.
    ``xi``: entry j counts orthodontia steps that swapped rows j, j+1.
    """

    __slots__ = ()

    def __new__(cls, theta: tuple[int, ...], xi: tuple[int, ...]) -> SupportVectors:
        if len(theta) != len(xi):
            raise ValueError("theta and xi must have equal length")
        if min(theta, default=0) < 0 or min(xi, default=0) < 0:
            raise ValueError("support vectors must be nonnegative")
        return tuple.__new__(cls, (theta, xi))

    @classmethod
    def _make(cls, iterable) -> SupportVectors:
        # _replace builds through _make, so both go through the checks
        return cls(*iterable)


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
    deg_groth = _grothendieck_entry(w.word).degree
    deg_schub = _schubert_entry(w.word).degree
    length = seq.step_count
    closure_size = sum(closure)
    return DegreeReport(
        deg_groth=deg_groth,
        deg_schub=deg_schub,
        ortho_length=length,
        upper_closure_size=closure_size,
        bound_prop=deg_schub + length,
        bound_cor=closure_size,
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
    data = _primary_column_data(w.word)
    if not _is_sorted(w.word, data):
        raise ValueError(f"{w} is not sorted")
    u = _sorted_step_up(w, data)
    D = rothe_diagram(w)
    gamma = sum(1 for c in D.masks[data.standard_cols :] if c.bit_length() == data.tooth + 1)
    mu = closure_monomial(rothe_diagram(u))
    lhs = list(closure_monomial(D))
    lhs[data.prefix] += data.gap
    rhs = list(mu)
    for p in range(data.prefix + 2, data.tooth + 2):
        rhs[p - 1] += gamma
    if lhs != rhs:
        return False
    head = mu[data.prefix] - data.gap
    return all(head == mu[p - 1] + gamma for p in range(data.prefix + 2, data.tooth + 2))


def support_vectors(seq: OrthodonticSequence, closure: Monomial) -> SupportVectors:
    """theta and xi of the orthodontic sequence and upper-closure monomial of one w."""
    teeth = seq.teeth
    xi = tuple(sum(1 for t in teeth if t == j) for j in range(1, len(closure) + 1))
    return SupportVectors(closure, xi)


def check_conjecture(
    w: Permutation, seq: OrthodonticSequence, closure: Monomial
) -> tuple[bool, Monomial | None]:
    """Experimental check: do all monomials of G_w divide x^(theta + xi)?

    ``seq`` and ``closure`` are the orthodontic sequence and upper-closure
    monomial of w.  Since theta is the upper-closure monomial and xi >= 0,
    this follows from :func:`check_divisibility`: it can fail only where
    that check fails.  Callers must not fail a build on (False, witness).
    """
    vectors = support_vectors(seq, closure)
    bound = tuple(t + x for t, x in zip(vectors.theta, vectors.xi))
    witness = _grothendieck_witness(w, bound)
    return witness is None, witness
