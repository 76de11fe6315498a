"""Fault matrix: which suites of ``verify`` fail when one library function is wrong.

Each row monkeypatches one function that ``verify`` reads, runs every
suite over S_5 in-process from empty memos, and names the suites whose
summary counts failed records.  A row whose set is empty is one of two
kinds, and its comment says which.  An escape is a fault that changes
what the library computes but that no suite catches; it is kept with its
reason so that a suite that learns to catch it must update the row.  An
equivalent mutant changes nothing ``verify`` can see: on every input the
sweep gives it, the patched function returns what the real one does, so
no suite could fail.  A row may name an exception instead, when a check
of the library stops the run before any suite can fail a record;
``main`` reports it and exits 2.
"""

from __future__ import annotations

import io
import json

import pytest

from orthodontia import cli, diagram, grothendieck, operators, polynomial
from orthodontia.cli import SUITES, cmd_verify
from orthodontia.grothendieck import PrimaryColumnData
from orthodontia.permutation import Permutation
from orthodontia.polynomial import Polynomial
from test_cli import closure_minus_one, fresh_memos


def isobaric_plus(j, f):
    # d_j((1 + x_{j+1}) f) in place of d_j((1 - x_{j+1}) f)
    return operators._apply(j, f, ((0, 0, 1), (0, 1, 1)))


def staircase_times_x_n(n, real=grothendieck._staircase):
    return real(n) * Polynomial.variable(n, n)


def monk_terms_dropping_one(j, w, real=grothendieck.monk_terms):
    targets = real(j, w)
    if len(targets) >= 2:
        targets.popitem()
    return targets


def freeze_dropping_highest_key(f, real=grothendieck._freeze, **options):
    # a one-term polynomial keeps its term; the next fault empties those
    terms = dict(f.terms)
    if len(terms) >= 2:
        del terms[max(terms)]
    return real(Polynomial._raw(f.n, terms), **options)


def freeze_emptying_one_term(f, real=grothendieck._freeze, **options):
    # memo entries of 0, for the staircase and every other monomial
    return real(Polynomial.zero(f.n) if len(f.terms) == 1 else f, **options)


def step_up_from_tooth(w, data):
    # moves the entry at position tooth, not tooth + 1, to prefix + 1
    word, p, t = w.word, data.prefix, data.tooth
    return Permutation(word[:p] + (word[t - 1],) + word[p : t - 1] + word[t:])


def sigma_reversed(w, data, real=grothendieck._sigma):
    return Permutation(real(w, data).word[::-1])


def closure_plus_x_1(masks, real=cli.mask_closure):
    first, *rest = real(masks)
    return (first + 1, *rest)


def masks_of_inverse(word, real=diagram.rothe_masks):
    # rows and columns mixed up: the diagram of w^-1 is the transpose of w's
    inverse = [0] * len(word)
    for i, v in enumerate(word, start=1):
        inverse[v - 1] = i
    return real(inverse)


def orthodontia_dropping_last_step(masks, real=diagram.mask_orthodontia):
    seq = real(masks)
    if not seq.teeth:
        return seq
    return seq._replace(teeth=seq.teeth[:-1], tooth_multiplicities=seq.tooth_multiplicities[:-1])


def masks_dropping_last_box(word, real=diagram.rothe_masks):
    # the lowest box of the last nonempty column goes
    masks = real(word)
    for j in reversed(range(len(masks))):
        if masks[j]:
            masks[j] ^= 1 << (masks[j].bit_length() - 1)
            break
    return masks


def degree_plus_one(keys, n, real=grothendieck._degree):
    return real(keys, n) + 1


def max_exponents_x_1_minus_one(keys, n, real=grothendieck._max_exponents):
    first, *rest = real(keys, n)
    return (max(first - 1, 0), *rest)


def lowest_component_is_everything(f):
    return f


def primary_tooth_one_short(word, real=grothendieck._primary_column_data):
    # the gap below the prefix ends a row early
    data = real(word)
    return PrimaryColumnData(data.standard_cols, data.prefix, data.tooth - 1, data.gap - 1)


def apply_step_without_weight(f, step, op):
    # each step's operator runs without the multiply by x_1...x_tooth
    return op(step[0], f)


# (name, module, attribute, replacement, suites with failed records or
# the exception that stops the run)
FAULTS = [
    ("isobaric_plus", grothendieck, "isobaric", isobaric_plus, {"main", "monk"}),
    ("lascoux_is_demazure", grothendieck, "demazure_lascoux", operators.demazure, {"main"}),
    (
        "staircase_times_x_n",
        grothendieck,
        "_staircase",
        staircase_times_x_n,
        {"main", "divisibility", "degree", "monk", "conjecture"},
    ),
    ("monk_terms_dropping_one", cli, "monk_terms", monk_terms_dropping_one, {"monk"}),
    ("freeze_dropping_highest_key", grothendieck, "_freeze", freeze_dropping_highest_key, {"main", "monk"}),
    # G_w = 0 fails main's records; the support suites read a zero entry's
    # degree and exponents, which no bound refuses
    ("freeze_emptying_one_term", grothendieck, "_freeze", freeze_emptying_one_term, {"main"}),
    ("step_up_from_tooth", grothendieck, "_sorted_step_up", step_up_from_tooth, {"sorted"}),
    ("sigma_reversed", grothendieck, "_sigma", sigma_reversed, {"sorted"}),
    # an escape: divisibility and degree check only that G_w's support lies
    # under the closure, so a closure too large passes every suite
    ("closure_plus_x_1", cli, "mask_closure", closure_plus_x_1, set()),
    # the failed counts are pinned by a test in test_cli.py
    ("closure_minus_one", cli, "mask_closure", closure_minus_one, {"divisibility", "degree", "conjecture"}),
    # the fact pass: every word's sequence and closure, which sorted reads too
    ("masks_of_inverse", cli, "rothe_masks", masks_of_inverse, {"main", "divisibility", "sorted", "conjecture"}),
    ("masks_of_inverse_in_sorted", grothendieck, "rothe_masks", masks_of_inverse, {"sorted"}),
    (
        "orthodontia_dropping_last_step",
        cli,
        "mask_orthodontia",
        orthodontia_dropping_last_step,
        {"main", "degree", "sorted"},
    ),
    # an equivalent mutant: with every suite, the fact pass gives sorted
    # each word's sequence, so it builds only the patterns sigma(w); each
    # is dominant, so every column of its diagram is an interval, its
    # sequence has no teeth, and the patched function returns it unchanged
    (
        "orthodontia_dropping_last_step_in_sorted",
        grothendieck,
        "mask_orthodontia",
        orthodontia_dropping_last_step,
        set(),
    ),
    # sigma(w) asserts that w maps the gap onto an interval of values; no
    # primary column data that breaks it reaches a suite
    ("primary_tooth_one_short", grothendieck, "_primary_column_data", primary_tooth_one_short, AssertionError),
    ("apply_step_without_weight", grothendieck, "_apply_step", apply_step_without_weight, {"main"}),
    # the fact pass: a sequence with fewer teeth than its word's gap fails
    # sorted's part (i), and the parts that index those teeth are not read
    (
        "masks_dropping_last_box",
        cli,
        "rothe_masks",
        masks_dropping_last_box,
        {"main", "divisibility", "degree", "sorted", "conjecture"},
    ),
    ("masks_dropping_last_box_in_sorted", grothendieck, "rothe_masks", masks_dropping_last_box, {"sorted"}),
    ("divided_difference_is_demazure", grothendieck, "divided_difference", operators.demazure, {"main"}),
    ("demazure_is_isobaric", grothendieck, "demazure", operators.isobaric, {"main"}),
    ("degree_plus_one", grothendieck, "_degree", degree_plus_one, {"degree"}),
    (
        "lowest_component_is_everything",
        Polynomial,
        "lowest_degree_component",
        lowest_component_is_everything,
        {"main"},
    ),
    # the ownership rule: reading every polynomial as a walk-owned one
    # empties the FormulaChain prefixes that main's ascending formulas reuse
    ("every_polynomial_owned", Polynomial, "_chunks", polynomial._Owned._chunks, {"main"}),
    # an escape: divisibility checks only that each maximum exponent is at
    # most the closure's, which one too small still is; a suite that checks
    # the maxima equal the closure, not yet written, should catch it
    ("max_exponents_x_1_minus_one", grothendieck, "_max_exponents", max_exponents_x_1_minus_one, set()),
]


def verify_5() -> tuple[int, dict[str, int]]:
    """The exit code of verify over S_5 with every suite, and each suite's failed count."""
    out, err = io.StringIO(), io.StringIO()
    code = cmd_verify(5, list(SUITES), 1, None, out, err)
    summaries = [record for record in map(json.loads, out.getvalue().splitlines()) if record.get("summary")]
    return code, {summary["suite"]: summary["failed"] for summary in summaries}


def test_verify_5_passes_every_suite_without_a_fault(monkeypatch):
    fresh_memos(monkeypatch)
    assert verify_5() == (0, dict.fromkeys(SUITES, 0))


@pytest.mark.parametrize(
    ("module", "attribute", "replacement", "failing"),
    [row[1:] for row in FAULTS],
    ids=[row[0] for row in FAULTS],
)
def test_verify_5_fails_exactly_the_suites_that_catch_the_fault(
    monkeypatch, module, attribute, replacement, failing
):
    fresh_memos(monkeypatch)
    monkeypatch.setattr(module, attribute, replacement)
    if isinstance(failing, type):
        with pytest.raises(failing):
            verify_5()
        return
    code, failed = verify_5()
    assert failed.keys() == set(SUITES)
    assert {suite for suite, count in failed.items() if count} == failing, failed
    # conjecture is an experiment: its counterexamples never fail the run
    assert code == (1 if failing - {"conjecture"} else 0)
