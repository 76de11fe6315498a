from __future__ import annotations

import json

import pytest

from orthodontia.permutation import (
    Permutation,
    from_one_line,
    identity,
    longest_element,
    symmetric_group,
)
from oracles import inversions_by_enumeration


def test_from_one_line_golden():
    w = from_one_line([3, 1, 5, 4, 2])
    assert w(1) == 3
    assert w.word == (3, 1, 5, 4, 2)
    assert from_one_line([1]).is_identity()
    with pytest.raises(ValueError, match="position 0 out of range"):
        Permutation((2, 1))(0)
    with pytest.raises(ValueError, match="position 1.5 is not an int"):
        Permutation((2, 1))(1.5)


@pytest.mark.parametrize("build", [from_one_line, Permutation])
@pytest.mark.parametrize(
    "bad",
    [[2, 1, 3, 7], [1, 1], [2, 3], [0, 1], [], [1, 2, 2, 4], [1.9, 2.1], ["2", "1"], [2.0, 1.0],
     (2.0, 1), ("1",), (1.5,)],
)
def test_from_one_line_rejects_malformed(build, bad):
    with pytest.raises(ValueError):
        build(bad)


def test_right_multiply_adjacent_golden():
    assert from_one_line([3, 1, 5, 4, 2]).right_multiply_adjacent(1).word == (1, 3, 5, 4, 2)
    # three successive swaps, checked by hand against position bookkeeping
    w = from_one_line([6, 8, 2, 3, 4, 7, 5, 1])
    for j in (5, 4, 3):
        w = w.right_multiply_adjacent(j)
    assert w.word == (6, 8, 7, 2, 3, 4, 5, 1)


def test_right_multiply_adjacent_involution_and_length_step():
    for w in symmetric_group(4):
        for j in range(1, 4):
            u = w.right_multiply_adjacent(j)
            assert u.right_multiply_adjacent(j) == w
            assert abs(u.length() - w.length()) == 1


def test_right_multiply_adjacent_range():
    w = identity(3)
    with pytest.raises(ValueError):
        w.right_multiply_adjacent(0)
    with pytest.raises(ValueError):
        w.right_multiply_adjacent(3)
    with pytest.raises(ValueError, match="not an int"):
        w.right_multiply_adjacent(1.0)


def test_right_multiply_transposition_golden():
    assert from_one_line([3, 1, 5, 4, 2]).right_multiply_transposition(1, 3).word == (
        5,
        1,
        3,
        4,
        2,
    )


def test_right_multiply_transposition_involution_and_adjacent_consistency():
    for w in symmetric_group(4):
        for a in range(1, 5):
            for b in range(a + 1, 5):
                u = w.right_multiply_transposition(a, b)
                assert u.right_multiply_transposition(a, b) == w
        for a in range(1, 4):
            assert w.right_multiply_transposition(a, a + 1) == w.right_multiply_adjacent(a)


def test_right_multiply_transposition_errors():
    w = identity(4)
    with pytest.raises(ValueError):
        w.right_multiply_transposition(2, 2)
    with pytest.raises(ValueError):
        w.right_multiply_transposition(0, 2)
    with pytest.raises(ValueError):
        w.right_multiply_transposition(1, 5)
    with pytest.raises(ValueError, match="not an int"):
        w.right_multiply_transposition(1.0, 2)


def test_length_golden():
    assert identity(5).length() == 0
    assert longest_element(4).length() == 6
    assert from_one_line([3, 1, 5, 4, 2]).length() == 5


def test_length_matches_enumeration_oracle():
    for w in symmetric_group(5):
        assert w.length() == inversions_by_enumeration(w.word)


def test_descents_golden():
    assert identity(4).descents() == set()
    assert longest_element(5).descents() == {1, 2, 3, 4}
    assert from_one_line([3, 1, 5, 4, 2]).descents() == {1, 3, 4}


def test_descents_ascents_partition():
    for w in symmetric_group(5):
        des, asc = w.descents(), w.ascents()
        assert des | asc == set(range(1, 5))
        assert not des & asc


@pytest.mark.parametrize(
    "make", [identity, longest_element, lambda n: list(symmetric_group(n))]
)
def test_rank_below_one_is_refused(make):
    with pytest.raises(ValueError, match="rank must be at least 1"):
        make(0)
    for rank in (2.0, "3"):
        with pytest.raises(ValueError, match="is not an int"):
            make(rank)


def test_longest_element():
    assert longest_element(1).word == (1,)
    assert longest_element(3).word == (3, 2, 1)
    for n in range(1, 8):
        assert longest_element(n).length() == n * (n - 1) // 2


def test_inverse_involution():
    for w in symmetric_group(5):
        assert w.inverse().inverse() == w


def test_one_line_round_trip():
    for w in symmetric_group(4):
        assert from_one_line(w.one_line()) == w
        assert from_one_line(json.loads(json.dumps(w.one_line()))) == w


def test_symmetric_group_lexicographic():
    words = [w.word for w in symmetric_group(4)]
    assert words == sorted(words)
    assert len(words) == 24
    assert words[0] == (1, 2, 3, 4)
    assert words[-1] == (4, 3, 2, 1)


def test_str_forms():
    assert str(from_one_line([3, 1, 5, 4, 2])) == "31542"
    big = list(range(1, 11))
    assert str(from_one_line(big)) == ",".join(map(str, big))


def test_permutations_are_values():
    w = from_one_line([3, 1, 2])
    assert repr(w) == "Permutation(word=(3, 1, 2))"
    assert w == Permutation((3, 1, 2)) and w is not Permutation((3, 1, 2))
    assert w != Permutation((1, 3, 2)) and w != (3, 1, 2)
    assert hash(w) == hash(Permutation((3, 1, 2)))
    assert len({w, Permutation((3, 1, 2)), identity(3)}) == 2
