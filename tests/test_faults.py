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

Every function that the verify, the analysis or the grothendieck module
binds from another module of the package has a row that patches that
binding, or sits in ``EXEMPT``, ``ANALYSIS_EXEMPT`` or
``GROTHENDIECK_EXEMPT`` with the reason it needs none.
"""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import pytest

from orthodontia import analysis, diagram, grothendieck, operators, polynomial, verify
from orthodontia.cli import SUITES, cmd_verify
from orthodontia.grothendieck import PrimaryColumnData
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


def step_up_from_tooth(word, data):
    # moves the entry at position tooth, not tooth + 1, to prefix + 1
    p, t = data.prefix, data.tooth
    return word[:p] + (word[t - 1],) + word[p : t - 1] + word[t:]


def sigma_reversed(word, data, real=grothendieck._sigma):
    return real(word, data)[::-1]


def closure_plus_x_1(masks, real=verify.mask_closure):
    first, *rest = real(masks)
    return (first + 1, *rest)


def inverse(word):
    # the one-line word of w^-1, whose diagram is the transpose of w's
    inverse = [0] * len(word)
    for i, v in enumerate(word, start=1):
        inverse[v - 1] = i
    return tuple(inverse)


def masks_of_inverse(word, real=diagram.rothe_masks):
    # rows and columns mixed up
    return real(inverse(word))


def sequence_of_inverse(word, real=grothendieck._sequence):
    return real(inverse(word))


def formula_steps_reversed(seq, real=grothendieck.formula_steps):
    return real(seq)[::-1]


def sorted_step_reading_inverses(w, seq, known, real=grothendieck.check_sorted_step):
    # each word's sequence is read as its inverse's
    return real(w, known.get(inverse(w.word)), SimpleNamespace(get=lambda word: known.get(inverse(word))))


def monk_residue_at_the_next_j(j, w, targets, real=grothendieck.monk_residue_vanishes):
    # j = n is never checked: w(n) is a maximum from the right, so it has no targets
    return real(j + 1, w, targets)


def divisibility_of_inverse(w, closure, real=verify.check_divisibility):
    return real(w.inverse(), closure)


def degree_report_without_teeth(w, seq, closure, real=verify.degree_report):
    # bound_prop loses the length of the sequence
    return real(w, seq._replace(teeth=(), tooth_multiplicities=()), closure)


def conjecture_of_inverse(w, seq, closure, real=verify.check_conjecture):
    return real(w.inverse(), seq, closure)


def grothendieck_degree_plus_one(word, real=grothendieck._grothendieck_entry):
    entry = real(word)
    return entry._replace(degree=entry.degree + 1)


def schubert_degree_minus_one(word, real=grothendieck._schubert_entry):
    entry = real(word)
    return entry._replace(degree=entry.degree - 1)


def monomial_divides_reversed(a, b, real=polynomial.monomial_divides):
    return real(b, a)


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


def weight_one_short(j, n, real=grothendieck.fundamental_weight):
    # x_1...x_{j-1} in place of x_1...x_j
    return real(max(j - 1, 0), n)


def grothendieck_entry_of_inverse(word, real=grothendieck._grothendieck_entry):
    return real(inverse(word))


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
    ("monk_terms_dropping_one", verify, "monk_terms", monk_terms_dropping_one, {"monk"}),
    ("freeze_dropping_highest_key", grothendieck, "_freeze", freeze_dropping_highest_key, {"main", "monk"}),
    # G_w = 0 fails main's records; the support suites read a zero entry's
    # degree and exponents, which no bound refuses
    ("freeze_emptying_one_term", grothendieck, "_freeze", freeze_emptying_one_term, {"main"}),
    ("step_up_from_tooth", grothendieck, "_sorted_step_up", step_up_from_tooth, {"sorted"}),
    ("sigma_reversed", grothendieck, "_sigma", sigma_reversed, {"sorted"}),
    # an escape: divisibility and degree check only that G_w's support lies
    # under the closure, so a closure too large passes every suite
    ("closure_plus_x_1", verify, "mask_closure", closure_plus_x_1, set()),
    # the failed counts are pinned by a test in test_cli.py
    ("closure_minus_one", verify, "mask_closure", closure_minus_one, {"divisibility", "degree", "conjecture"}),
    # the table fill: every word's sequence and closure, which sorted reads too
    ("masks_of_inverse", verify, "rothe_masks", masks_of_inverse, {"main", "divisibility", "sorted", "conjecture"}),
    ("masks_of_inverse_in_sorted", grothendieck, "rothe_masks", masks_of_inverse, {"sorted"}),
    (
        "orthodontia_dropping_last_step",
        verify,
        "mask_orthodontia",
        orthodontia_dropping_last_step,
        {"main", "degree", "sorted"},
    ),
    # an equivalent mutant: the table gives sorted the sequences of every
    # word of S_5, so it builds only the patterns sigma(w) of lower rank; each
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
    # the weight of each ascending step, through _apply_step
    ("weight_one_short", grothendieck, "fundamental_weight", weight_one_short, {"main"}),
    # the table fill: a sequence with fewer teeth than its word's gap fails
    # sorted's part (i), and the parts that index those teeth are not read
    (
        "masks_dropping_last_box",
        verify,
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
    # the bindings of verify that the rows above do not patch.  Each pattern
    # sigma(w) is dominant, and so is its inverse, whose transposed diagram
    # gives sorted other interval multiplicities for two words of S_5
    ("sequence_of_inverse", verify, "_sequence", sequence_of_inverse, {"sorted"}),
    # an equivalent mutant: verify's binding only orders the tasks, so that
    # neighbours share formula prefixes, and any order gives the same records
    ("formula_steps_reversed", verify, "formula_steps", formula_steps_reversed, set()),
    ("chained_schubert_is_grothendieck", verify, "chained_schubert", grothendieck.chained_grothendieck, {"main"}),
    ("chained_grothendieck_is_schubert", verify, "chained_grothendieck", grothendieck.chained_schubert, {"main"}),
    # degree and monk read the memos through analysis and grothendieck
    ("schubert_is_grothendieck", verify, "schubert_recursive", grothendieck.grothendieck_recursive, {"main"}),
    ("grothendieck_is_schubert", verify, "grothendieck_recursive", grothendieck.schubert_recursive, {"main"}),
    ("sorted_step_reading_inverses", verify, "check_sorted_step", sorted_step_reading_inverses, {"sorted"}),
    ("monk_residue_at_the_next_j", verify, "monk_residue_vanishes", monk_residue_at_the_next_j, {"monk"}),
    ("divisibility_of_inverse", verify, "check_divisibility", divisibility_of_inverse, {"divisibility"}),
    ("degree_report_without_teeth", verify, "degree_report", degree_report_without_teeth, {"degree"}),
    ("conjecture_of_inverse", verify, "check_conjecture", conjecture_of_inverse, {"conjecture"}),
    # the bindings of analysis.  degree checks upper bounds only, so a deg
    # G_w too high is caught, and so is a deg S_w too low; one too high
    # escapes
    ("grothendieck_degree_plus_one", analysis, "_grothendieck_entry", grothendieck_degree_plus_one, {"degree"}),
    ("schubert_degree_minus_one", analysis, "_schubert_entry", schubert_degree_minus_one, {"degree"}),
    # an equivalent mutant: analysis builds G_w only to name a witness, and
    # no word of S_5 has one
    ("grothendieck_is_schubert_in_analysis", analysis, "grothendieck_recursive", grothendieck.schubert_recursive,
     set()),
    # every word of S_5 has G_w's maximum exponents equal to its closure, so
    # divisibility passes either way round; conjecture's bound adds xi
    ("monomial_divides_reversed", analysis, "monomial_divides", monomial_divides_reversed, {"conjecture"}),
    # an escape: the support suites read only an entry's degree and maximum
    # exponents, and over S_5 those of G_(w^-1) lie under w's bounds too.  A
    # suite that compares the maxima with the closure exactly (ROADMAP item
    # 1), or G_w with G_(w^-1) (item 17), would catch it
    ("grothendieck_entry_of_inverse", analysis, "_grothendieck_entry", grothendieck_entry_of_inverse, set()),
]

# the bindings of verify from other package modules that need no row
EXEMPT = {
    "OrthodonticSequence": "a value type",
    "FormulaChain": "a value type",
    "RankOverflowError": "a value type",
    "Permutation": "a value type",
}

# the same for analysis
ANALYSIS_EXEMPT = {
    "OrthodonticSequence": "a value type",
    "Permutation": "a value type",
    "Polynomial": "a value type",
    # read only by exponent_change_check
    "mask_closure": "no suite runs it (ROADMAP item 9)",
    "rothe_masks": "no suite runs it (ROADMAP item 9)",
    "is_sorted_permutation": "no suite runs it (ROADMAP item 9)",
    "os_predecessor": "no suite runs it (ROADMAP item 9)",
    "primary_column_data": "no suite runs it (ROADMAP item 9)",
}

# the same for grothendieck
GROTHENDIECK_EXEMPT = {
    "Diagram": "a value type",
    "OrthodonticSequence": "a value type",
    "Permutation": "a value type",
    "Polynomial": "a value type",
    "_Owned": "a value type",
    # read only by compute, the public orthodontia_* functions and unsort_factor
    "orthodontia": "no suite runs it",
    "rothe_diagram": "no suite runs it",
    "diagram_monomial": "no suite runs it",
    "_int": "the input rule: every index a suite passes is an int, so no fault in it reaches a record",
}


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


@pytest.mark.parametrize(
    ("module", "exempt"),
    [(verify, EXEMPT), (analysis, ANALYSIS_EXEMPT), (grothendieck, GROTHENDIECK_EXEMPT)],
    ids=["verify", "analysis", "grothendieck"],
)
def test_every_function_a_module_binds_from_the_library_has_a_row_or_an_exemption(module, exempt):
    # a row covers the binding of the module that it patches
    bound = {
        name
        for name, value in vars(module).items()
        if callable(value) and getattr(value, "__module__", "").startswith("orthodontia.")
        and value.__module__ != module.__name__
    }
    covered = {attribute for _, patched, attribute, _, _ in FAULTS if patched is module}
    assert sorted(bound - covered - exempt.keys()) == []
    # an exemption goes once its name has a row, or is no longer bound
    assert sorted(exempt.keys() - (bound - covered)) == []
