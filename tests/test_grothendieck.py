from __future__ import annotations

import gc
import os
import random
import re
import sys
from array import array
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from orthodontia import grothendieck
from orthodontia.diagram import (
    Diagram,
    OrthodonticSequence,
    is_strongly_separated,
    orthodontia,
    rothe_diagram,
    sort_columns,
)
from orthodontia.grothendieck import (
    FormulaChain,
    _apply_step,
    _descend,
    _Entry,
    _freeze,
    _grothendieck_entry,
    _keys,
    _narrowest,
    _schubert_entry,
    _thaw,
    check_sorted_step,
    RankOverflowError,
    chained_grothendieck,
    chained_schubert,
    dominant_grothendieck,
    fallen_boxes,
    formula_steps,
    grothendieck_recursive,
    is_dominant,
    is_sorted_permutation,
    monk_residue_vanishes,
    monk_terms,
    orthodontia_grothendieck,
    orthodontia_schubert,
    os_predecessor,
    primary_column_data,
    schubert_recursive,
    sigma,
    sort_permutation,
    unsort_factor,
)
from orthodontia.operators import demazure, demazure_lascoux, divided_difference, isobaric
from orthodontia.permutation import (
    Permutation,
    from_one_line,
    identity,
    longest_element,
    symmetric_group,
)
from orthodontia.polynomial import Polynomial

from conftest import random_polynomial
from oracles import (
    avoids_132,
    flagged_weyl_character,
    monk_terms_oracle,
    pipe_dream_grothendiecks,
    pipe_dream_sums,
    primary_column_oracle,
)

SCHUBERT_31542 = Polynomial(
    5,
    {
        (3, 1, 1, 0, 0): 1,
        (3, 1, 0, 1, 0): 1,
        (3, 0, 1, 1, 0): 1,
        (2, 1, 2, 0, 0): 1,
        (2, 2, 1, 0, 0): 1,
        (2, 2, 0, 1, 0): 1,
        (2, 0, 2, 1, 0): 1,
        (2, 1, 1, 1, 0): 1,
    },
)

GROTHENDIECK_14532 = Polynomial(
    5,
    {
        (2, 1, 2, 0, 0): 1,
        (2, 2, 1, 0, 0): 1,
        (2, 2, 0, 1, 0): 1,
        (2, 0, 2, 1, 0): 1,
        (2, 1, 1, 1, 0): 1,
        (1, 2, 2, 0, 0): 1,
        (1, 1, 2, 1, 0): 1,
        (1, 2, 1, 1, 0): 1,
        (0, 2, 2, 1, 0): 1,
        (2, 2, 2, 0, 0): -2,
        (1, 2, 2, 1, 0): -3,
        (2, 2, 1, 1, 0): -3,
        (2, 1, 2, 1, 0): -3,
        (2, 2, 2, 1, 0): 3,
    },
)


def test_schubert_golden():
    assert schubert_recursive(longest_element(3)) == Polynomial.monomial((2, 1, 0))
    assert schubert_recursive(identity(4)) == Polynomial.one(4)
    assert schubert_recursive(from_one_line([3, 1, 5, 4, 2])) == SCHUBERT_31542


def test_grothendieck_golden():
    assert grothendieck_recursive(longest_element(4)) == Polynomial.monomial((3, 2, 1, 0))
    assert grothendieck_recursive(from_one_line([1, 4, 5, 3, 2])) == GROTHENDIECK_14532


def test_grothendieck_14532_lowest_component():
    lowest = GROTHENDIECK_14532.lowest_degree_component()
    assert len(lowest.sorted_terms()) == 9
    assert lowest == schubert_recursive(from_one_line([1, 4, 5, 3, 2]))


def test_lowest_degree_is_schubert_s4():
    for w in symmetric_group(4):
        assert grothendieck_recursive(w).lowest_degree_component() == schubert_recursive(w)


def test_schubert_homogeneous_of_length_degree():
    for w in symmetric_group(4):
        f = schubert_recursive(w)
        assert f.lowest_degree_component() == f
        if not w.is_identity():
            assert f.degree() == w.length()


def test_path_independence_over_all_ascent_edges():
    # every ascent step gives the same polynomial, hence every path agrees
    for w in symmetric_group(4):
        for j in w.ascents():
            up = w.right_multiply_adjacent(j)
            assert divided_difference(j, schubert_recursive(up)) == schubert_recursive(w)
            assert isobaric(j, grothendieck_recursive(up)) == grothendieck_recursive(w)


def test_operator_stability_on_ascents():
    # at an ascent j: d_j kills G_w and ibar_j fixes it
    for w in symmetric_group(5):
        f = grothendieck_recursive(w)
        for j in w.ascents():
            assert divided_difference(j, f).is_zero
            assert isobaric(j, f) == f


def test_walk_without_memo_matches_the_memoized_recursions():
    for n in range(1, 7):
        for w in symmetric_group(n):
            for op, recursive in ((divided_difference, schubert_recursive), (isobaric, grothendieck_recursive)):
                walked, memoized = _descend(w.word, op), recursive(w)
                # the walk's owned intermediates never leave it
                assert type(walked) is type(memoized) is Polynomial
                assert walked == memoized


def test_memo_entries_thaw_to_the_polynomials_they_froze(rng):
    polys = [Polynomial.zero(3), Polynomial.one(3), Polynomial.constant(2, -7)]
    polys += [
        random_polynomial(rng, n) * scale
        for n in (1, 2, 4, 6)
        for scale in (1, 1 << 40)
        for _ in range(12)
    ]
    polys.append(Polynomial.constant(2, (1 << 63) - 1) - Polynomial.variable(1, 2) * (1 << 63))
    for f in polys:
        entry = _freeze(f)
        assert len(entry.indices) == len(entry.coeffs) == len(f.terms)
        assert _keys(entry) == list(f.terms)
        assert _thaw(f.n, entry) == f
        # and the summary the support checks read: 0 and no exponents for 0
        assert entry.degree == (f.degree() if f.terms else 0)
        assert entry.max_exponents == bytes(f.max_exponents() if f.terms else f.n)
        assert _freeze(f, maxima=False) == entry._replace(max_exponents=b"")
    # each entry's coefficients take the narrowest signed typecode that holds them
    x1 = Polynomial.variable(1, 2)
    for low, high, code in [
        (-128, 127, "b"),
        (-129, 128, "h"),
        (-32_768, 32_767, "h"),
        (-32_769, 32_768, "i"),
        (-(1 << 31), (1 << 31) - 1, "i"),
        (-(1 << 31) - 1, 1 << 31, "q"),
        (-(1 << 63), (1 << 63) - 1, "q"),
    ]:
        for c in (low, high):
            f = x1 + Polynomial.constant(2, c)
            assert _freeze(f).coeffs.typecode == code, c
            assert _thaw(2, _freeze(f)) == f
    # and its key indices the narrowest unsigned one
    for top, code in [(255, "B"), (256, "H"), (65_535, "H"), (65_536, "I")]:
        assert _narrowest("BHIQ", [0, top]).typecode == code, top


def test_memo_entry_summaries_match_their_polynomials_s1_to_s6():
    # the degree and maximum exponents the support checks read, against
    # the exponent vectors of the polynomial each entry thaws to; they read
    # no Schubert entry's exponents, so those are left empty
    for n in range(1, 7):
        for w in symmetric_group(n):
            entries = [(_grothendieck_entry(w.word), True), (_schubert_entry(w.word), False)]
            for entry, maxima in entries:
                f = _thaw(n, entry)
                vectors = list(f.monomials())
                assert entry.degree == f.degree() == max(map(sum, vectors)), w
                assert f.max_exponents() == tuple(map(max, zip(*vectors))), w
                assert entry.max_exponents == (bytes(f.max_exponents()) if maxima else b""), w


@pytest.mark.parametrize("coeff", [1 << 63, -(1 << 63) - 1, 1 << 200])
def test_memo_entries_refuse_a_coefficient_outside_64_bits(coeff):
    f = Polynomial.variable(1, 3) + Polynomial.constant(3, coeff)
    with pytest.raises(OverflowError, match=f"coefficient {coeff} does not fit"):
        _freeze(f)


def test_orthodontia_formula_golden():
    D = rothe_diagram(from_one_line([3, 1, 5, 4, 2]))
    assert orthodontia_schubert(D) == SCHUBERT_31542
    assert orthodontia_grothendieck(D) == grothendieck_recursive(from_one_line([3, 1, 5, 4, 2]))
    assert orthodontia_schubert(Diagram.empty(3)) == Polynomial.one(3)
    assert orthodontia_grothendieck(Diagram.empty(3)) == Polynomial.one(3)
    dom = rothe_diagram(from_one_line([3, 2, 1]))
    assert orthodontia_schubert(dom) == Polynomial.monomial((2, 1, 0))
    assert orthodontia_grothendieck(dom) == Polynomial.monomial((2, 1, 0))


def test_main_equality_up_to_rank_5():
    for n in range(1, 6):
        for w in symmetric_group(n):
            D = rothe_diagram(w)
            assert orthodontia_grothendieck(D) == grothendieck_recursive(w), w
            assert orthodontia_schubert(D) == schubert_recursive(w), w


def test_left_aligned_diagram_formula_smoke():
    # rows are prefixes, columns are nested, so the column order already works
    D = Diagram.from_columns(4, [{1, 2, 3}, {1, 3}, {3}, set()])
    f = orthodontia_schubert(D)
    g = orthodontia_grothendieck(D)
    assert not f.is_zero and not g.is_zero
    assert g.lowest_degree_component() == f


def strongly_separated_diagrams(n):
    # one diagram per strongly separated multiset of n columns, in the
    # order sort_columns gives
    subsets = [s for k in range(n + 1) for s in combinations(range(1, n + 1), k)]
    for columns in combinations_with_replacement(subsets, n):
        D = Diagram.from_columns(n, columns)
        if is_strongly_separated(D):
            yield sort_columns(D)


@pytest.mark.parametrize(
    "n, count",
    [
        (3, 112),
        pytest.param(
            4,
            2618,
            marks=pytest.mark.skipif(
                not os.environ.get("ORTHODONTIA_ACCEPT_N7"),
                reason="4x4 flagged Weyl sweep enabled by ORTHODONTIA_ACCEPT_N7=1",
            ),
        ),
    ],
)
def test_schubert_formula_is_the_flagged_weyl_character(n, count):
    diagrams = list(strongly_separated_diagrams(n))
    assert len(diagrams) == count
    mismatches = [
        D for D in diagrams if orthodontia_schubert(D) != flagged_weyl_character(n, D.columns)
    ]
    assert mismatches == []


def test_the_character_comparison_catches_reversed_columns():
    # the comparison above fails for a formula given the columns out of order
    mismatches = sum(
        orthodontia_schubert(Diagram(3, D.masks[::-1])) != flagged_weyl_character(3, D.columns)
        for D in strongly_separated_diagrams(3)
    )
    assert mismatches == 13


def test_grothendieck_formula_on_strongly_separated_3x3_diagrams():
    # measured properties, not theorems: the paper states none for the
    # K-theoretic formula on diagrams that are not Rothe diagrams
    for D in strongly_separated_diagrams(3):
        g = orthodontia_grothendieck(D)
        low = g.min_degree()
        assert g.lowest_degree_component() == orthodontia_schubert(D), D
        terms = g.sorted_terms()
        assert sum(c for _, c in terms) == 1, D
        assert all(c * (-1) ** (sum(e) - low) > 0 for e, c in terms), D


def test_formula_chain_matches_fresh_evaluation_s6_then_s5():
    words = list(symmetric_group(6))
    random.Random(6).shuffle(words)
    schubert_chain, groth_chain = FormulaChain(), FormulaChain()
    # the S_5 tail checks that a change of rank restarts the chain
    for w in words + list(symmetric_group(5)):
        D = rothe_diagram(w)
        seq = orthodontia(D)
        results = [
            (chained_schubert(seq, schubert_chain), orthodontia_schubert(D)),
            (chained_grothendieck(seq, groth_chain), orthodontia_grothendieck(D)),
        ]
        for chained, fresh in results:
            assert type(chained) is type(fresh) is Polynomial
            assert chained == fresh, w
        steps = formula_steps(seq)
        for chain, op in ((schubert_chain, demazure), (groth_chain, demazure_lascoux)):
            assert chain.steps == steps
            # the prefixes reused from earlier sequences went through this
            # one's steps unchanged
            f = Polynomial.one(w.n)
            assert chain.polys[0] == f
            for step, poly in zip(steps, chain.polys[1:], strict=True):
                f = _apply_step(f, step, op)
                assert poly == f, (w, step)


def test_recursive_routes_run_below_the_recursion_limit():
    # w = 16 1 2 ... 15 lies 105 first-ascent steps below w0 in S_16, so a
    # route that recursed once per step would exceed the lowered limit
    w = from_one_line([16] + list(range(1, 16)))
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        schubert = schubert_recursive(w)
        groth = grothendieck_recursive(w)
    finally:
        sys.setrecursionlimit(limit)
    # w avoids 132, so both polynomials are its diagram monomial
    assert schubert == groth == dominant_grothendieck(w)


def test_is_dominant():
    assert is_dominant(from_one_line([3, 2, 1]))
    assert not is_dominant(from_one_line([1, 3, 2]))


def test_dominant_column_characterization_s6():
    for w in symmetric_group(6):
        all_intervals = all(
            not c or c == frozenset(range(1, len(c) + 1))
            for c in rothe_diagram(w).columns
        )
        assert is_dominant(w) == all_intervals


def test_dominant_grothendieck():
    assert dominant_grothendieck(identity(3)) == Polynomial.one(3)
    assert dominant_grothendieck(from_one_line([3, 2, 1])) == Polynomial.monomial((2, 1, 0))
    for w in symmetric_group(5):
        if is_dominant(w):
            assert dominant_grothendieck(w) == grothendieck_recursive(w)
    with pytest.raises(ValueError):
        dominant_grothendieck(from_one_line([1, 3, 2]))


def primary_column_tuple(word):
    w = from_one_line(word)
    d = primary_column_data(w)
    column = sorted(rothe_diagram(w).columns[d.standard_cols])
    return d.standard_cols, column, d.prefix, d.tooth, d.gap


def test_primary_column_data_golden():
    assert primary_column_tuple([6, 8, 4, 3, 2, 7, 5, 1]) == (4, [1, 2, 6], 2, 5, 3)
    assert primary_column_tuple([1, 2, 8, 4, 5, 3, 7, 6]) == (2, [3, 4, 5], 0, 2, 2)
    assert primary_column_tuple([9, 2, 3, 8, 5, 4, 7, 6, 1]) == (3, [1, 4, 5], 1, 3, 2)


def test_primary_column_data_dominant_convention():
    for word in ([1, 2, 3], [3, 2, 1], [2, 1]):
        w = from_one_line(word)
        assert is_dominant(w)
        d = primary_column_data(w)
        assert (d.standard_cols, d.prefix, d.tooth, d.gap) == (w.n, 0, w.n, w.n)


def test_primary_column_data_invariants_s5():
    def standard(c):
        return c == frozenset(range(1, len(c) + 1))

    for w in symmetric_group(5):
        d = primary_column_data(w)
        if is_dominant(w):
            continue
        D = rothe_diagram(w)
        column = D.columns[d.standard_cols]
        assert all(standard(c) for c in D.columns[: d.standard_cols])
        assert not standard(column)
        assert all(p in column for p in range(1, d.prefix + 1))
        assert all(p not in column for p in range(d.prefix + 1, d.tooth + 1))
        assert d.tooth + 1 in column
        assert d.gap == d.tooth - d.prefix >= 1


def test_primary_column_data_and_is_dominant_match_oracles_s1_to_s7():
    for n in range(1, 8):
        for word in permutations(range(1, n + 1)):
            w = Permutation(word)
            d = primary_column_data(w)
            assert (d.standard_cols, d.prefix, d.tooth, d.gap) == primary_column_oracle(word)
            assert is_dominant(w) == avoids_132(word)


def test_sigma_golden():
    assert sigma(from_one_line([6, 8, 4, 3, 2, 7, 5, 1])).word == (3, 2, 1)
    assert sigma(from_one_line([6, 8, 2, 3, 4, 7, 5, 1])).is_identity()


def test_sigma_dominant_everywhere_s6():
    for w in symmetric_group(6):
        assert is_dominant(sigma(w))


def test_sigma_identity_iff_sorted_s5():
    for w in symmetric_group(5):
        assert sigma(w).is_identity() == is_sorted_permutation(w)


def test_sort_permutation():
    assert sort_permutation(from_one_line([6, 8, 4, 3, 2, 7, 5, 1])).word == (
        6,
        8,
        2,
        3,
        4,
        7,
        5,
        1,
    )
    for w in symmetric_group(5):
        ws = sort_permutation(w)
        assert is_sorted_permutation(ws)
        assert sort_permutation(ws) == ws
        assert primary_column_data(ws) == primary_column_data(w)
        if is_dominant(w):
            assert ws.is_identity()


def test_monk_identity_s4():
    checked = 0
    for w in symmetric_group(4):
        base = grothendieck_recursive(w)
        for j in range(1, 5):
            try:
                terms = monk_terms(j, w)
            except RankOverflowError:
                continue
            checked += 1
            total = Polynomial.zero(4)
            for v, sign in terms.items():
                total = total + sign * grothendieck_recursive(Permutation(v))
            assert total == Polynomial.variable(j, 4) * base, (w, j)
    assert checked > 0


def test_monk_rank_two_sign():
    assert monk_terms(1, identity(2)) == {(2, 1): 1}
    # x1 * G_id = G_21 exactly
    assert Polynomial.variable(1, 2) * grothendieck_recursive(identity(2)) == (
        grothendieck_recursive(from_one_line([2, 1]))
    )


def test_monk_rank_overflow():
    message = (
        "expansion of x_1 * G_w for w=21 leaves S_2 "
        "(swapping positions 1 and 3 raises the length by one)"
    )
    with pytest.raises(RankOverflowError, match=re.escape(message)):
        monk_terms(1, from_one_line([2, 1]))
    with pytest.raises(RankOverflowError):
        monk_terms(3, longest_element(3))


def test_monk_unsorting_instance():
    # for w = 68432751: the largest in-range descent is a = 4, its partner
    # b = 5, and the expansion of x_4 * G_{w (4 5)} collapses to {w}
    w = from_one_line([6, 8, 4, 3, 2, 7, 5, 1])
    d = primary_column_data(w)
    a = max(p for p in w.descents() if d.prefix + 1 <= p <= d.tooth)
    assert a == 4
    b = max(p for p in range(d.prefix + 1, d.tooth + 1) if w(p) < w(a))
    assert b == 5
    assert monk_terms(a, w.right_multiply_transposition(a, b)) == {w.word: 1}


def test_monk_terms_match_chain_oracle_s1_to_s6():
    for n in range(1, 7):
        for w in symmetric_group(n):
            for j in range(1, n + 1):
                found = monk_terms_oracle(j, w.word)
                if any(word[n] != n + 1 for word in found):
                    with pytest.raises(RankOverflowError):
                        monk_terms(j, w)
                    continue
                expected = [(word[:n], sign) for word, sign in sorted(found.items())]
                assert sorted(monk_terms(j, w).items()) == expected, (w, j)
    with pytest.raises(ValueError, match="out of range"):
        monk_terms(3, from_one_line([2, 1]))


def test_monk_residue_leaves_every_sum_at_zero_s2_to_s5(monkeypatch):
    residue = grothendieck._RESIDUE
    pairs = 0
    for n in range(2, 6):
        for w in symmetric_group(n):
            for j in range(1, n + 1):
                try:
                    targets = monk_terms(j, w)
                except RankOverflowError:
                    continue
                pairs += 1
                for v, sign in targets.items():
                    dropped = {u: s for u, s in targets.items() if u != v}
                    flipped = {**targets, v: -sign}
                    for wrong in (dropped, flipped):
                        assert not monk_residue_vanishes(j, w, wrong), (w, j, v)
                        assert residue.count(0) == len(residue)
                assert monk_residue_vanishes(j, w, targets), (w, j)
                assert residue.count(0) == len(residue)
    assert pairs > 300 and len(residue) >= 120

    w = from_one_line([1, 3, 2, 4])
    targets = monk_terms(2, w)
    assert len(targets) > 1
    last = list(targets)[-1]
    real = grothendieck._grothendieck_entry

    def fetch(word):
        if word == last:
            raise RuntimeError("fetch failed")
        return real(word)

    monkeypatch.setattr(grothendieck, "_grothendieck_entry", fetch)
    with pytest.raises(RuntimeError, match="fetch failed"):
        monk_residue_vanishes(2, w, targets)
    assert residue.count(0) == len(residue)
    # an entry that faults while the sums are half made: the earlier
    # targets' terms are in the list when its index is read
    out_of_range = _Entry(array("I", [(1 << 32) - 1]), array("b", [1]), 0, bytes(4))
    monkeypatch.setattr(
        grothendieck, "_grothendieck_entry", lambda word: out_of_range if word == last else real(word)
    )
    with pytest.raises(IndexError):
        monk_residue_vanishes(2, w, targets)
    assert residue.count(0) == len(residue)
    monkeypatch.undo()
    assert monk_residue_vanishes(2, w, targets)


def test_sorted_step_with_known_sequences_matches_check_sorted_step_s1_to_s6():
    for n in range(1, 7):
        table = {w.word: orthodontia(rothe_diagram(w)) for w in symmetric_group(n)}
        for w in symmetric_group(n):
            expected = check_sorted_step(w, table)
            # only w's own sequence is known, so sort(w) and the predecessor are built
            assert check_sorted_step(w, {w.word: table[w.word]}) == expected, w
            assert check_sorted_step(w, {}) == expected, w


def test_check_sorted_step_fails_a_sequence_with_fewer_teeth_than_the_gap():
    # 1243 is sorted with gap 2; a known sequence without teeth fails part
    # (i), and the parts that index its teeth are not read
    w = Permutation((1, 2, 4, 3))
    step = check_sorted_step(w, {w.word: OrthodonticSequence((), (0, 0, 0, 0), ())})
    assert step.is_sorted and step.parts_ok is False


def test_monk_terms_leave_no_reference_cycles_s4():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for w in symmetric_group(4):
            for j in range(1, 5):
                try:
                    monk_terms(j, w)
                except RankOverflowError:
                    pass
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_unsort_factor():
    assert unsort_factor(from_one_line([6, 8, 2, 3, 4, 7, 5, 1])) == (0,) * 8
    assert unsort_factor(from_one_line([6, 8, 4, 3, 2, 7, 5, 1])) == (0, 0, 2, 1, 0, 0, 0, 0)


def test_unsort_identity_s5():
    for w in symmetric_group(5):
        expected = grothendieck_recursive(sort_permutation(w)).mul_monomial(unsort_factor(w))
        assert grothendieck_recursive(w) == expected, w


def test_unsort_identity_rank8_instance():
    w = from_one_line([6, 8, 4, 3, 2, 7, 5, 1])
    ws = from_one_line([6, 8, 2, 3, 4, 7, 5, 1])
    assert grothendieck_recursive(w) == grothendieck_recursive(ws).mul_monomial(
        (0, 0, 2, 1, 0, 0, 0, 0)
    )


def test_fallen_boxes_golden():
    w = from_one_line([5, 8, 1, 3, 4, 7, 2, 6])
    assert fallen_boxes(w) == frozenset(
        {(2, 6), (2, 7), (4, 2), (5, 2), (6, 2), (6, 6)}
    )


def test_fallen_boxes_dominant_empty():
    for w in symmetric_group(5):
        if is_dominant(w):
            assert fallen_boxes(w) == frozenset()


def test_fallen_boxes_sort_invariant_s5():
    for w in symmetric_group(5):
        assert fallen_boxes(w) == fallen_boxes(sort_permutation(w))


def test_os_predecessor_golden():
    assert os_predecessor(from_one_line([6, 8, 4, 3, 2, 7, 5, 1])).word == (
        6,
        8,
        2,
        3,
        4,
        7,
        5,
        1,
    )
    assert os_predecessor(from_one_line([6, 8, 2, 3, 4, 7, 5, 1])).word == (
        6,
        8,
        7,
        2,
        3,
        4,
        5,
        1,
    )
    with pytest.raises(ValueError):
        os_predecessor(identity(4))


def test_os_predecessor_chains_terminate_with_fb_monotone():
    for w in symmetric_group(5):
        current = w
        seen = set()
        while not current.is_identity():
            assert current.word not in seen
            seen.add(current.word)
            fb_before = len(fallen_boxes(current))
            was_sorted = is_sorted_permutation(current)
            current = os_predecessor(current)
            fb_after = len(fallen_boxes(current))
            if was_sorted:
                assert fb_after < fb_before
            else:
                assert fb_after == fb_before


@pytest.mark.parametrize(
    "n",
    [
        *range(1, 7),
        pytest.param(
            7,
            marks=pytest.mark.skipif(
                not os.environ.get("ORTHODONTIA_ACCEPT_N7"),
                reason="rank-7 pipe-dream sweep enabled by ORTHODONTIA_ACCEPT_N7=1",
            ),
        ),
    ],
)
def test_both_routes_match_pipe_dream_oracle(n):
    sums = pipe_dream_grothendiecks(n)
    assert len(sums) == len(list(symmetric_group(n)))
    for w in symmetric_group(n):
        groth = sums[w.word]
        assert groth == grothendieck_recursive(w)
        assert groth == orthodontia_grothendieck(rothe_diagram(w))
        assert groth.lowest_degree_component() == schubert_recursive(w)
        # the coefficient of x^a has sign (-1)^(|a| - l(w))
        length = w.length()
        for exps, coeff in groth.sorted_terms():
            assert (coeff > 0) == ((sum(exps) - length) % 2 == 0), (w, exps)


@pytest.mark.parametrize("n", (3, 4))
def test_pipe_dream_sums_fail_with_rows_read_left_to_right(n):
    flipped = pipe_dream_sums(n, [(i, j) for i in range(1, n) for j in range(1, n - i + 1)])
    assert any(flipped.get(w.word) != grothendieck_recursive(w) for w in symmetric_group(n))
