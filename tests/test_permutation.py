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
from oracles import inversions_by_enumeration, swap_positions


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
     (2.0, 1), ("1",), (1.5,), [None], [[1], [2]]],
)
def test_from_one_line_rejects_malformed(build, bad):
    with pytest.raises(ValueError):
        build(bad)


def test_adjacent_swap_changes_length_by_one():
    for w in symmetric_group(4):
        for j in range(1, 4):
            u = Permutation(swap_positions(w.word, j, j + 1))
            assert abs(u.length() - w.length()) == 1


def test_swap_positions_golden():
    assert swap_positions((3, 1, 5, 4, 2), 1, 2) == (1, 3, 5, 4, 2)
    assert swap_positions((3, 1, 5, 4, 2), 1, 3) == (5, 1, 3, 4, 2)
    # three successive adjacent swaps, checked by hand against position bookkeeping
    word = (6, 8, 2, 3, 4, 7, 5, 1)
    for j in (5, 4, 3):
        word = swap_positions(word, j, j + 1)
    assert word == (6, 8, 7, 2, 3, 4, 5, 1)


def test_swap_positions_is_right_multiplication_by_a_transposition():
    # (w t)(i) = w(t(i)) for the transposition t = (a b)
    for w in symmetric_group(4):
        for a in range(1, 5):
            for b in range(a + 1, 5):
                t = {a: b, b: a}
                u = Permutation(swap_positions(w.word, a, b))
                assert [u(i) for i in range(1, 5)] == [w(t.get(i, i)) for i in range(1, 5)]


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


def test_descents_are_where_an_adjacent_swap_shortens():
    # j is a descent of w iff l(w s_j) < l(w)
    for w in symmetric_group(5):
        below = {j for j in range(1, 5) if Permutation(swap_positions(w.word, j, j + 1)).length() < w.length()}
        assert w.descents() == below


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
        assert from_one_line(list(w.word)) == w
        assert from_one_line(json.loads(json.dumps(w.word))) == w


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
