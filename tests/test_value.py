"""The immutable value types: fields that cannot change, and copies and
pickles that are rebuilt through each class's checks; and the one rule
by which every way into the library refuses a value that is not an int."""

from __future__ import annotations

import copy
import pickle
import re

import pytest

from orthodontia.diagram import Diagram, rothe_diagram
from orthodontia.grothendieck import monk_terms
from orthodontia.operators import demazure, demazure_lascoux, divided_difference, isobaric
from orthodontia.permutation import Permutation, from_one_line, identity, longest_element, symmetric_group
from orthodontia.polynomial import Polynomial, fundamental_weight

X1 = next(iter(Polynomial.variable(1, 2).terms))  # the packed key of x1 in two variables

# (a value, slot values that skipped __init__, the refusal of their rebuild)
VALUES = [
    pytest.param(from_one_line([3, 1, 5, 4, 2]), {"word": (1, 1)}, "not a permutation of 1..2", id="Permutation"),
    pytest.param(
        rothe_diagram(from_one_line([3, 1, 5, 4, 2])),
        {"n": 2, "masks": (4, 0)},
        r"column mask 4 outside 0\.\.3",
        id="Diagram",
    ),
    pytest.param(
        Polynomial(3, {(2, 1, 0): 2, (0, 0, 1): -1, (0, 0, 0): 1}),
        {"n": 2, "terms": {X1: 1.5}},
        "coefficient 1.5 is not an int",
        id="Polynomial",
    ),
]


@pytest.mark.parametrize(("value", "forged", "refusal"), VALUES)
def test_values_are_immutable(value, forged, refusal):
    fields = {name: getattr(value, name) for name in type(value).__slots__}
    immutable = f"{type(value).__name__} is immutable"
    for name in fields:
        with pytest.raises(AttributeError, match=immutable):
            setattr(value, name, fields[name])
        with pytest.raises(AttributeError, match=immutable):
            delattr(value, name)
    with pytest.raises(AttributeError, match=immutable):
        value.rank = 3
    assert {name: getattr(value, name) for name in fields} == fields


@pytest.mark.parametrize(("value", "forged", "refusal"), VALUES)
def test_values_copy_and_pickle_through_validation(value, forged, refusal):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and twin is not value
    # fields that skipped __init__ are refused when they are rebuilt
    fake = object.__new__(type(value))
    for name, field in forged.items():
        object.__setattr__(fake, name, field)
    for rebuild in (lambda: pickle.loads(pickle.dumps(fake)), lambda: copy.copy(fake), lambda: copy.deepcopy(fake)):
        with pytest.raises(ValueError, match=refusal):
            rebuild()


def test_values_store_tuples():
    w, D = Permutation([3, 1, 2]), Diagram(2, [1, 0])
    assert type(w.word) is tuple and hash(w) == hash(Permutation((3, 1, 2)))
    assert type(D.masks) is tuple and hash(D) == hash(Diagram(2, (1, 0)))
    # entries are stored as the ints they index, as masks are
    assert [type(v) for v in Permutation((2, True)).word] == [int, int]
    assert [type(c) for c in Diagram(2, (True, 0)).masks] == [int, int]


W, F = from_one_line([2, 1, 3]), Polynomial.variable(1, 3)

# (each public way in that takes an int, given the value x in that place;
# its refusal of x, with {x} for the repr of x)
INT_INPUTS = [
    pytest.param(lambda x: Permutation([x]), "word [{x}] has a value that is not an int", id="Permutation"),
    pytest.param(lambda x: from_one_line([x]), "word [{x}] has a value that is not an int", id="from_one_line"),
    pytest.param(lambda x: W(x), "position {x} is not an int", id="Permutation.__call__"),
    pytest.param(identity, "rank {x} is not an int", id="identity"),
    pytest.param(longest_element, "rank {x} is not an int", id="longest_element"),
    pytest.param(lambda x: list(symmetric_group(x)), "rank {x} is not an int", id="symmetric_group"),
    pytest.param(lambda x: fundamental_weight(x, 3), "weight index {x} is not an int", id="fundamental_weight-j"),
    pytest.param(lambda x: fundamental_weight(1, x), "variable count {x} is not an int", id="fundamental_weight-n"),
    pytest.param(lambda x: monk_terms(x, W), "variable index {x} is not an int", id="monk_terms"),
    *(
        pytest.param(lambda x, op=op: op(x, F), "operator index {x} is not an int", id=op.__name__)
        for op in (divided_difference, demazure, isobaric, demazure_lascoux)
    ),
    pytest.param(Polynomial, "variable count {x} is not an int", id="Polynomial-n"),
    pytest.param(
        lambda x: Polynomial(1, [((x,), 1)]), "exponent vector ({x},) has a value that is not an int", id="Polynomial-exps"
    ),
    pytest.param(lambda x: Polynomial(1, [((1,), x)]), "coefficient {x} is not an int", id="Polynomial-coeff"),
    pytest.param(Polynomial.zero, "variable count {x} is not an int", id="zero"),
    pytest.param(Polynomial.one, "variable count {x} is not an int", id="one"),
    pytest.param(lambda x: Polynomial.constant(x, 1), "variable count {x} is not an int", id="constant-n"),
    pytest.param(lambda x: Polynomial.constant(1, x), "coefficient {x} is not an int", id="constant-c"),
    pytest.param(lambda x: Polynomial.variable(x, 3), "variable index {x} is not an int", id="variable-j"),
    pytest.param(lambda x: Polynomial.variable(1, x), "variable count {x} is not an int", id="variable-n"),
    pytest.param(
        lambda x: Polynomial.monomial((x, 0)), "exponent vector ({x}, 0) has a value that is not an int", id="monomial"
    ),
    pytest.param(lambda x: Polynomial.monomial((1, 0), x), "coefficient {x} is not an int", id="monomial-coeff"),
    pytest.param(lambda x: F.mul_monomial((x, 0, 0)), "monomial ({x}, 0, 0) has a value that is not an int",
                 id="mul_monomial"),
    pytest.param(lambda x: F.coefficient((x, 0, 0)), "monomial ({x}, 0, 0) has a value that is not an int",
                 id="coefficient"),
    pytest.param(lambda x: F ** x, "power {x} is not an int", id="pow"),
    pytest.param(lambda x: Diagram(x, [1]), "grid size {x} is not an int", id="Diagram-n"),
    pytest.param(lambda x: Diagram(1, [x]), "column masks [{x}] has a value that is not an int", id="Diagram-masks"),
    pytest.param(lambda x: Diagram.from_columns(x, [[1]]), "grid size {x} is not an int", id="from_columns-n"),
    pytest.param(
        lambda x: Diagram.from_columns(1, [[x]]), "column [{x}] has a value that is not an int", id="from_columns-rows"
    ),
]


@pytest.mark.parametrize("bad", [1.5, "1"], ids=["float", "str"])
@pytest.mark.parametrize(("call", "refusal"), INT_INPUTS)
def test_every_way_in_refuses_a_value_that_is_not_an_int(call, refusal, bad):
    with pytest.raises(ValueError, match=re.escape(refusal.format(x=repr(bad)))):
        call(bad)


def test_a_value_that_indexes_an_int_is_taken_as_that_int():
    assert F ** True == F and Polynomial.variable(True, 3) == F
    assert isobaric(True, F) == isobaric(1, F) and fundamental_weight(True, 3) == (1, 0, 0)
    assert monk_terms(True, W) == monk_terms(1, W)
