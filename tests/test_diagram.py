from __future__ import annotations

import random
import re
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from orthodontia import diagram
from orthodontia.diagram import (
    Diagram,
    OrthodonticSequence,
    OrthodontiaError,
    closure_monomial,
    diagram_monomial,
    is_strongly_separated,
    mask_closure,
    mask_orthodontia,
    orthodontia,
    orthodontia_trace,
    rothe_diagram,
    rothe_masks,
    sort_columns,
    upper_closure,
)
from orthodontia.permutation import Permutation, from_one_line, identity, symmetric_group
from oracles import missing_tooth, orthodontia_oracle, rothe_oracle


def cols(D):
    return [sorted(c) for c in D.columns]


def test_rothe_identity_empty():
    assert not any(rothe_diagram(identity(4)).masks)


def test_rothe_31542():
    D = rothe_diagram(from_one_line([3, 1, 5, 4, 2]))
    assert cols(D) == [[1], [1, 3, 4], [], [3], []]


def test_rothe_box_count_is_length():
    for w in symmetric_group(5):
        assert sum(map(int.bit_count, rothe_diagram(w).masks)) == w.length()


def test_rothe_diagram_is_its_masks_and_round_trips_through_columns():
    for n in range(1, 7):
        for w in symmetric_group(n):
            D = rothe_diagram(w)
            assert D.masks == tuple(rothe_masks(w.word)), w
            assert D.columns == rothe_oracle(w.word), w
            assert Diagram.from_columns(n, D.columns) == D, w


def test_missing_tooth():
    assert missing_tooth({1, 2, 6}) == 5
    assert missing_tooth({1, 2, 3}) is None
    assert missing_tooth({2}) == 1
    assert missing_tooth(set()) is None
    assert missing_tooth({2, 4}) == 1
    assert missing_tooth({1, 3, 5}) == 2


def seq_of(word):
    return orthodontia(rothe_diagram(from_one_line(word)))


def test_orthodontia_31542():
    seq = seq_of([3, 1, 5, 4, 2])
    assert seq.teeth == (2, 3, 1)
    assert seq.interval_multiplicities == (1, 0, 0, 0, 0)
    assert seq.tooth_multiplicities == (0, 1, 1)


def test_orthodontia_sorted_8():
    # interval multiplicities always end in 0: no diagram column is {1..n}
    seq = seq_of([6, 8, 2, 3, 4, 7, 5, 1])
    assert seq.teeth == (5, 4, 3, 1)
    assert seq.interval_multiplicities == (0, 3, 0, 0, 0, 0, 1, 0)
    assert seq.tooth_multiplicities == (0, 0, 1, 1)


def test_orthodontia_raised_8():
    seq = seq_of([6, 8, 7, 2, 3, 4, 5, 1])
    assert seq.teeth == (1,)
    assert seq.interval_multiplicities == (0, 0, 4, 0, 0, 0, 1, 0)
    assert seq.tooth_multiplicities == (1,)


def test_orthodontia_12845376():
    seq = seq_of([1, 2, 8, 4, 5, 3, 7, 6])
    assert seq.teeth == (2, 1, 3, 2, 4, 3, 6, 5, 4, 3, 2)
    assert seq.interval_multiplicities == (0,) * 8
    assert seq.tooth_multiplicities == (0, 3, 0, 0, 0, 1, 0, 0, 0, 0, 1)


def test_orthodontia_12845376_raised():
    seq = seq_of([8, 1, 2, 4, 5, 3, 7, 6])
    assert seq.teeth == (3, 2, 4, 3, 6, 5, 4, 3, 2)
    assert seq.interval_multiplicities == (5, 0, 0, 0, 0, 0, 0, 0)
    assert seq.tooth_multiplicities == (0, 0, 0, 1, 0, 0, 0, 0, 1)


def test_orthodontia_identity():
    seq = seq_of([1, 2, 3, 4])
    assert seq.teeth == ()
    assert seq.interval_multiplicities == (0, 0, 0, 0)
    assert seq.tooth_multiplicities == ()


def test_orthodontia_deterministic():
    D = rothe_diagram(from_one_line([3, 1, 5, 4, 2]))
    assert orthodontia(D) == orthodontia(D)


def test_orthodontia_step_bound():
    for w in symmetric_group(5):
        D = rothe_diagram(w)
        seq = orthodontia(D)
        assert seq.step_count <= D.n * D.n + sum(map(int.bit_count, D.masks))
    # the cap is mask_orthodontia's only guard, and masks outside a
    # diagram's range can reach it
    for masks in ([-2], [2**70, 0]):
        with pytest.raises(OrthodontiaError, match="step limit exceeded"):
            mask_orthodontia(masks)


def test_orthodontia_multiplicities_count_nonempty_columns():
    # every nonempty column is standardized and stripped exactly once
    for w in symmetric_group(5):
        D = rothe_diagram(w)
        seq = orthodontia(D)
        nonempty = sum(1 for c in D.columns if c)
        assert sum(seq.interval_multiplicities) + sum(seq.tooth_multiplicities) == nonempty


def fields(seq):
    return seq.teeth, seq.interval_multiplicities, seq.tooth_multiplicities


def assert_matches_oracle(D):
    expected, expected_trace = orthodontia_oracle(D.columns)
    assert fields(orthodontia(D)) == expected, D
    seq, trace = orthodontia_trace(D)
    assert fields(seq) == expected, D
    assert [(label, S.columns) for label, S in trace] == expected_trace, D


def test_rothe_masks_and_orthodontia_match_the_oracle_through_s7():
    for n in range(1, 8):
        for word in permutations(range(1, n + 1)):
            columns = rothe_oracle(word)
            masks = rothe_masks(word)
            assert masks == [sum(1 << (i - 1) for i in c) for c in columns], word
            expected, _ = orthodontia_oracle(columns)
            assert fields(orthodontia(rothe_diagram(Permutation(word)))) == expected, word
            assert fields(mask_orthodontia(masks)) == expected, word


def test_orthodontia_and_trace_match_the_oracle_on_the_3x3_grid():
    # all 512 diagrams, strongly separated or not
    for cells in product((False, True), repeat=9):
        columns = [{i for i in (1, 2, 3) if cells[3 * j + i - 1]} for j in range(3)]
        assert_matches_oracle(Diagram.from_columns(3, columns))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.sets(st.integers(1, n)), min_size=n, max_size=n)
))
def test_orthodontia_and_trace_match_the_oracle_on_random_diagrams(columns):
    assert_matches_oracle(Diagram.from_columns(len(columns), columns))


def test_the_oracle_comparison_catches_counting_before_the_swap():
    # the comparison above fails for an oracle with this fault, so it
    # would fail for a library core with it
    assert any(
        orthodontia_oracle(D.columns, count_before_swap=True)[0] != fields(orthodontia(D))
        for D in map(rothe_diagram, symmetric_group(4))
    )


def test_orthodontia_runs_on_a_diagram_that_is_not_strongly_separated():
    D = Diagram.from_columns(4, [{1, 3}, {2, 4}, set(), set()])
    assert not is_strongly_separated(D)
    seq = orthodontia(D)
    assert seq.teeth == (2, 2, 1, 3, 2)
    assert seq.interval_multiplicities == (0, 0, 0, 0)
    assert seq.tooth_multiplicities == (1, 0, 0, 0, 1)


def test_orthodontia_trace_snapshots():
    D = rothe_diagram(from_one_line([3, 1, 5, 4, 2]))
    seq, trace = orthodontia_trace(D)
    assert trace[0] == ("start", D)
    assert not any(trace[-1][1].masks)
    assert len(trace) == 2 + seq.step_count


@pytest.mark.parametrize("entry", [orthodontia, orthodontia_trace])
def test_every_entry_point_runs_the_one_loop_once(monkeypatch, entry):
    # a tracer that wraps mask_orthodontia sees every run of the algorithm
    calls = []
    loop = diagram.mask_orthodontia
    monkeypatch.setattr(diagram, "mask_orthodontia", lambda masks: calls.append(masks) or loop(masks))
    D = rothe_diagram(from_one_line([4, 1, 10, 5, 2, 7, 3, 9, 8, 6]))
    entry(D)
    assert calls == [D.masks]


def test_upper_closure():
    assert not any(upper_closure(Diagram(3, (0, 0, 0))).masks)
    D = Diagram.from_columns(4, [{2, 4}, set(), {3}, set()])
    assert cols(upper_closure(D)) == [[1, 2, 3, 4], [], [1, 2, 3], []]


def test_upper_closure_monomial_14532():
    D = rothe_diagram(from_one_line([1, 4, 5, 3, 2]))
    assert cols(D) == [[], [2, 3, 4], [2, 3], [], []]
    closed = upper_closure(D)
    assert diagram_monomial(closed) == (2, 2, 2, 1, 0)
    assert sum(map(int.bit_count, closed.masks)) == 7


def test_closure_monomial_is_the_upper_closure_monomial():
    for n in range(1, 7):
        for w in symmetric_group(n):
            D = rothe_diagram(w)
            expected = diagram_monomial(upper_closure(D))
            assert closure_monomial(D) == expected, w
            assert mask_closure(rothe_masks(w.word)) == expected, w


def test_diagram_monomial():
    assert diagram_monomial(Diagram(3, (0, 0, 0))) == (0, 0, 0)
    D = rothe_diagram(from_one_line([3, 1, 5, 4, 2]))
    assert diagram_monomial(D) == (2, 0, 2, 1, 0)
    assert diagram_monomial(Diagram.from_columns(4, [set(), {3}, set(), set()])) == (0, 0, 1, 0)


def test_strongly_separated():
    for w in symmetric_group(5):
        assert is_strongly_separated(rothe_diagram(w))
    assert not is_strongly_separated(Diagram.from_columns(4, [{1, 3}, {2, 4}, set(), set()]))
    assert is_strongly_separated(Diagram.from_columns(3, [{1, 3}, set(), set()]))


def test_sort_columns_two_column():
    D = Diagram.from_columns(2, [{2}, {1}])
    assert cols(sort_columns(D)) == [[1], [2]]


def test_sort_columns_stability():
    D = Diagram.from_columns(3, [{1}, {1}, {1, 2}])
    assert sort_columns(D) == D


def test_sort_columns_rothe_already_ordered():
    for w in symmetric_group(5):
        D = rothe_diagram(w)
        assert sort_columns(D) == D


def test_sort_columns_orders_every_strongly_separated_3x3_diagram():
    # a comparator that calls a subset or an empty column "equal" is not
    # transitive and rejected 22 of these 470 tuples
    subsets = [frozenset(s) for k in range(4) for s in combinations((1, 2, 3), k)]
    seen = 0
    for columns in product(subsets, repeat=3):
        D = Diagram.from_columns(3, columns)
        if not is_strongly_separated(D):
            continue
        seen += 1
        ordered = sort_columns(D).columns
        assert sorted(ordered, key=sorted) == sorted(columns, key=sorted)
        for i, j in combinations(range(3), 2):
            assert max(ordered[i] - ordered[j], default=0) <= min(ordered[j] - ordered[i], default=4)
    assert seen == 470
    ordered = sort_columns(Diagram.from_columns(4, [{1}, {2}, {1, 2}, {1}]))
    assert cols(ordered) == [[1, 2], [1], [1], [2]]


def test_sort_columns_rejects_non_strongly_separated():
    D = Diagram.from_columns(4, [{1, 3}, {2, 4}, set(), set()])
    with pytest.raises(ValueError):
        sort_columns(D)


def test_sorted_shuffled_rothe_runs_orthodontia():
    rng = random.Random(99)
    for w in symmetric_group(4):
        D = rothe_diagram(w)
        shuffled = list(D.columns)
        rng.shuffle(shuffled)
        ordered = sort_columns(Diagram.from_columns(4, shuffled))
        seq = orthodontia(ordered)
        assert seq.step_count <= 4 * 4 + sum(map(int.bit_count, D.masks))


def test_ascii_render():
    D = rothe_diagram(from_one_line([2, 1, 3]))
    assert D.render_ascii().splitlines() == ["□ · ·", "· · ·", "· · ·"]


def test_json_form():
    D = rothe_diagram(from_one_line([3, 1, 5, 4, 2]))
    assert D.to_json() == {"n": 5, "columns": [[1], [1, 3, 4], [], [3], []]}


def test_diagram_validation():
    for rows in ({3}, {0}, {-1, 1}):
        with pytest.raises(ValueError, match=r"column entries .* outside 1\.\.2"):
            Diagram.from_columns(2, [{1}, rows])
    with pytest.raises(ValueError, match="expected 2 columns, got 1"):
        Diagram.from_columns(2, [{1}])
    for masks in ((1, 4), (-1, 0)):
        with pytest.raises(ValueError):
            Diagram(2, masks)
    with pytest.raises(ValueError):
        Diagram.from_columns(0, [])
    # a grid size, mask or row that is not an int is refused, not truncated
    for n in (2.0, "2"):
        with pytest.raises(ValueError, match=f"grid size {n!r} is not an int"):
            Diagram(n, (1, 0))
    for masks in ((1.5, 0), (1, "0"), 5):
        with pytest.raises(ValueError, match=re.escape(f"column masks {masks!r} has a value that is not an int")):
            Diagram(2, masks)
    with pytest.raises(ValueError, match="grid size 2.0 is not an int"):
        Diagram.from_columns(2.0, [[1], []])
    for row in (1.0, 1.5, "1"):
        with pytest.raises(ValueError, match=re.escape(f"column [{row!r}] has a value that is not an int")):
            Diagram.from_columns(2, [[row], []])


@pytest.mark.parametrize("n", [2.9, 2.0, "2", None])
def test_from_columns_refuses_a_grid_size_that_is_not_an_int(n):
    with pytest.raises(ValueError, match=f"grid size {n!r} is not an int"):
        Diagram.from_columns(n, [[1], []])


def test_diagrams_are_values():
    D = Diagram.from_columns(3, [{1, 2}, {1}, set()])
    assert repr(D) == "Diagram(n=3, masks=(3, 1, 0))"
    assert D == Diagram(3, (3, 1, 0)) and hash(D) == hash(Diagram(3, (3, 1, 0)))
    assert D != Diagram(3, (3, 0, 0)) and D != Diagram(4, (3, 1, 0, 0)) and D != (3, (3, 1, 0))


def test_orthodontic_sequence_validation():
    seq = OrthodonticSequence((1,), (0,), (0,))
    for build in (
        lambda: OrthodonticSequence((1, 2), (0, 0), (0,)),
        lambda: OrthodonticSequence((1,), (0, -1), (0,)),
        # the tuple methods build through the checks too
        lambda: seq._replace(tooth_multiplicities=(-1,)),
        lambda: seq._replace(teeth=(1, 2)),
        lambda: OrthodonticSequence._make([(1,), (0,), (-5,)]),
    ):
        with pytest.raises(ValueError):
            build()
    assert seq._replace(teeth=(2,)) == OrthodonticSequence._make([(2,), (0,), (0,)]) == ((2,), (0,), (0,))
    assert type(seq._replace(teeth=(2,))) is OrthodonticSequence
