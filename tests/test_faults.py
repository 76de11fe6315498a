"""Fault matrix: which suites of ``verify`` fail when one library function is wrong.

Each row monkeypatches one function that ``verify`` reads, runs every
suite over S_5 in-process from empty memos, and names the suites whose
summary counts failed records.  A row whose set is empty is an escape: a
fault that no suite catches, kept here with its reason so that a suite
that learns to catch it must update the row.
"""

from __future__ import annotations

import io
import json

import pytest

from orthodontia import cli, grothendieck, operators
from orthodontia.cli import SUITES, cmd_verify
from orthodontia.permutation import Permutation
from orthodontia.polynomial import Polynomial
from test_cli import fresh_memos


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


# (name, module, attribute, replacement, suites with failed records)
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
    code, failed = verify_5()
    assert failed.keys() == set(SUITES)
    assert {suite for suite, count in failed.items() if count} == failing, failed
    # conjecture is an experiment: its counterexamples never fail the run
    assert code == (1 if failing - {"conjecture"} else 0)
