"""The immutable value types: fields that cannot change, and copies and
pickles that are rebuilt through each class's checks."""

from __future__ import annotations

import copy
import pickle

import pytest

from orthodontia.diagram import Diagram, rothe_diagram
from orthodontia.permutation import Permutation, from_one_line
from orthodontia.polynomial import Polynomial

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
        r"term 1\.5\*x\^\(1, 0\) has a value that is not an int",
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
