"""Acceptance suite: one test per criterion, exact equality throughout.

Every tolerance is zero -- all comparisons are exact integer polynomial
or tuple equality.  Each test prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them inline).

The rank-7 sweep is optional; set ORTHODONTIA_ACCEPT_N7=1 to enable it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

from orthodontia import cli
from orthodontia.analysis import check_conjecture, check_divisibility, degree_report
from orthodontia.cli import SUITES, cmd_verify
from orthodontia.diagram import orthodontia, rothe_diagram
from orthodontia.grothendieck import (
    RankOverflowError,
    check_sorted_step,
    fallen_boxes,
    grothendieck_recursive,
    is_sorted_permutation,
    monk_terms,
    orthodontia_grothendieck,
    orthodontia_schubert,
    os_predecessor,
    primary_column_data,
    schubert_recursive,
    sigma,
    sort_permutation,
)
from orthodontia.operators import demazure_lascoux, divided_difference, isobaric
from orthodontia.permutation import from_one_line, identity, symmetric_group
from orthodontia.polynomial import Polynomial, exact_divide_monomial

from conftest import random_polynomial
from test_analysis import facts
from test_grothendieck import GROTHENDIECK_14532, SCHUBERT_31542


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def seq_tuple(word):
    seq = orthodontia(rothe_diagram(from_one_line(word)))
    return seq.teeth, seq.interval_multiplicities, seq.tooth_multiplicities


def test_criterion_1_golden_examples():
    start = time.perf_counter()
    ok = schubert_recursive(from_one_line([3, 1, 5, 4, 2])) == SCHUBERT_31542
    ok &= grothendieck_recursive(from_one_line([1, 4, 5, 3, 2])) == GROTHENDIECK_14532

    ok &= seq_tuple([3, 1, 5, 4, 2]) == ((2, 3, 1), (1, 0, 0, 0, 0), (0, 1, 1))
    ok &= seq_tuple([6, 8, 2, 3, 4, 7, 5, 1]) == (
        (5, 4, 3, 1),
        (0, 3, 0, 0, 0, 0, 1, 0),
        (0, 0, 1, 1),
    )
    ok &= seq_tuple([6, 8, 7, 2, 3, 4, 5, 1]) == ((1,), (0, 0, 4, 0, 0, 0, 1, 0), (1,))
    ok &= seq_tuple([1, 2, 8, 4, 5, 3, 7, 6]) == (
        (2, 1, 3, 2, 4, 3, 6, 5, 4, 3, 2),
        (0, 0, 0, 0, 0, 0, 0, 0),
        (0, 3, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    )
    ok &= seq_tuple([8, 1, 2, 4, 5, 3, 7, 6]) == (
        (3, 2, 4, 3, 6, 5, 4, 3, 2),
        (5, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 0, 0, 1),
    )

    def pcd_tuple(word):
        w = from_one_line(word)
        d = primary_column_data(w)
        column = tuple(sorted(rothe_diagram(w).columns[d.standard_cols]))
        return d.standard_cols, column, d.prefix, d.tooth, d.gap

    ok &= pcd_tuple([6, 8, 4, 3, 2, 7, 5, 1]) == (4, (1, 2, 6), 2, 5, 3)
    ok &= pcd_tuple([1, 2, 8, 4, 5, 3, 7, 6]) == (2, (3, 4, 5), 0, 2, 2)
    ok &= pcd_tuple([9, 2, 3, 8, 5, 4, 7, 6, 1]) == (3, (1, 4, 5), 1, 3, 2)

    ok &= fallen_boxes(from_one_line([5, 8, 1, 3, 4, 7, 2, 6])) == frozenset(
        {(2, 6), (2, 7), (4, 2), (5, 2), (6, 2), (6, 6)}
    )
    ok &= sigma(from_one_line([6, 8, 4, 3, 2, 7, 5, 1])).word == (3, 2, 1)
    ok &= sort_permutation(from_one_line([6, 8, 4, 3, 2, 7, 5, 1])).word == (
        6,
        8,
        2,
        3,
        4,
        7,
        5,
        1,
    )
    elapsed = time.perf_counter() - start
    _report("1 golden examples", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def _main_equality_holds(n: int) -> bool:
    for w in symmetric_group(n):
        D = rothe_diagram(w)
        schubert = schubert_recursive(w)
        if orthodontia_grothendieck(D) != grothendieck_recursive(w):
            return False
        if orthodontia_schubert(D) != schubert:
            return False
        if grothendieck_recursive(w).lowest_degree_component() != schubert:
            return False
    return True


def test_criterion_2_main_equality_rank_6():
    start = time.perf_counter()
    ok = all(_main_equality_holds(n) for n in range(1, 7))
    elapsed = time.perf_counter() - start
    _report("2 formula = recursion, n<=6", ok, f"{elapsed:.1f}s")


@pytest.mark.skipif(
    not os.environ.get("ORTHODONTIA_ACCEPT_N7"),
    reason="rank-7 sweep enabled by ORTHODONTIA_ACCEPT_N7=1",
)
def test_criterion_2_main_equality_rank_7():
    start = time.perf_counter()
    ok = _main_equality_holds(7)
    _report("2 formula = recursion, n=7", ok, f"{time.perf_counter() - start:.1f}s")


def _verify_child(*args: str) -> tuple[int, float, str]:
    """The exit status, peak RSS in MiB and stdout of ``verify ARGS`` run
    in a child process, without the cache of the environment."""
    # A child's ru_maxrss counts the peak of the process it was started
    # from, so a small launcher starts verify and reads verify's rusage;
    # verify writes to the launcher's stdout, which prints the usage last
    src = os.path.dirname(os.path.dirname(cli.__file__))
    launcher = (
        "import os, subprocess, sys\n"
        "child = subprocess.Popen([sys.executable, '-m', 'orthodontia.cli', 'verify', *sys.argv[1:]],"
        " stderr=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(child.pid, 0)\n"
        "print(status, usage.ru_maxrss)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("ORTHODONTIA_CACHE", None)
    result = subprocess.run(
        [sys.executable, "-c", launcher, *args], capture_output=True, text=True, env=env, check=True
    )
    out, usage = result.stdout.rstrip("\n").rsplit("\n", 1)
    status, maxrss_kib = map(int, usage.split())
    return status, maxrss_kib / 1024, out + "\n"


@pytest.mark.skipif(
    not os.environ.get("ORTHODONTIA_ACCEPT_N7"),
    reason="rank-7 sweep enabled by ORTHODONTIA_ACCEPT_N7=1",
)
def test_criterion_2_verify_rank_7_peak_memory():
    status, peak, out = _verify_child("--n", "7")
    # sha256 of `verify --n 7` stdout with every suite, as first recorded
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "52690c38379341558c932e31eb77950ab31889e6cc7df68c148c5182ed08494a"
    )
    _report("2 verify --n 7 peak RSS below 45 MiB", status == 0 and peak < 45, f"{peak:.1f} MiB")


@pytest.mark.skipif(
    not os.environ.get("ORTHODONTIA_ACCEPT_N7"),
    reason="rank-7 sweep enabled by ORTHODONTIA_ACCEPT_N7=1",
)
def test_criterion_2_verify_rank_7_replay_peak_memory(tmp_path):
    # one cache holds the records of S_6 and S_7; each rank replays its
    # own without computing a record or rewriting the file
    cache = str(tmp_path / "results.jsonl")
    six = io.StringIO()
    assert cmd_verify(6, list(SUITES), 1, cache, six, io.StringIO()) == 0
    status, _, cold = _verify_child("--n", "7", "--cache", cache)
    assert status == 0
    written = os.stat(cache)
    status, peak, replay = _verify_child("--n", "7", "--cache", cache)
    out, err = io.StringIO(), io.StringIO()
    assert cmd_verify(6, list(SUITES), 1, cache, out, err) == 0
    assert out.getvalue() == six.getvalue() and err.getvalue() == ""
    kept = os.stat(cache)
    assert (kept.st_ino, kept.st_mtime_ns) == (written.st_ino, written.st_mtime_ns)
    _report(
        "2 verify --n 7 replay peak RSS below 25 MiB",
        status == 0 and replay == cold and peak < 25,
        f"{peak:.1f} MiB",
    )


def test_criterion_3_divisibility_and_degree_bounds_s6():
    tight_prop = tight_cor = 0
    total = 0
    ok = True
    for w in symmetric_group(6):
        total += 1
        seq, closure = facts(w)
        passed, witness = check_divisibility(w, closure)
        if not passed:
            ok = False
        report = degree_report(w, seq, closure)
        if report.deg_groth > report.bound_prop or report.deg_groth > report.bound_cor:
            ok = False
        tight_prop += report.deg_groth == report.bound_prop
        tight_cor += report.deg_groth == report.bound_cor
    detail = (
        f"{total} permutations; operator-count bound tight {tight_prop}/{total}, "
        f"closure bound tight {tight_cor}/{total}"
    )
    _report("3 divisibility + degree bounds S6", ok, detail)


def _sorted_step_relations_hold(w) -> bool:
    # the five sorted-step relations for nonidentity sorted w
    data = primary_column_data(w)
    gap = data.gap
    seq = orthodontia(rothe_diagram(w))
    teeth, k, m = seq.teeth, seq.interval_multiplicities, seq.tooth_multiplicities
    if len(teeth) < gap:
        return False
    if any(teeth[t] != data.tooth - t for t in range(gap)):
        return False
    if data.prefix > 0 and k[data.prefix - 1] < gap:
        return False
    if any(k[j - 1] != 0 for j in range(data.prefix + 1, data.tooth + 1)):
        return False
    if any(m[t] != 0 for t in range(gap - 1)):
        return False
    up = os_predecessor(w)
    seq_up = orthodontia(rothe_diagram(up))
    expected_k = list(k)
    if data.prefix > 0:
        expected_k[data.prefix - 1] -= gap
    expected_k[data.prefix] = gap + m[gap - 1]
    return (
        seq_up.teeth == teeth[gap:]
        and seq_up.tooth_multiplicities == m[gap:]
        and list(seq_up.interval_multiplicities) == expected_k
    )


def _unsort_transform_holds(w) -> bool:
    data = primary_column_data(w)
    seq_w = orthodontia(rothe_diagram(w))
    seq_sorted = orthodontia(rothe_diagram(sort_permutation(w)))
    pattern_k = orthodontia(rothe_diagram(sigma(w))).interval_multiplicities
    expected_k = list(seq_sorted.interval_multiplicities)
    if data.prefix > 0:
        expected_k[data.prefix - 1] -= sum(pattern_k)
    for j in range(data.prefix + 1, data.tooth + 1):
        expected_k[j - 1] += pattern_k[j - data.prefix - 1]
    return (
        seq_w.teeth == seq_sorted.teeth
        and seq_w.tooth_multiplicities == seq_sorted.tooth_multiplicities
        and list(seq_w.interval_multiplicities) == expected_k
    )


def test_check_sorted_step_matches_relation_oracles_s6():
    # the library's one-diagram sorted-step check against the helpers above,
    # which rebuild every diagram through the public functions
    for w in symmetric_group(6):
        step = check_sorted_step(w, {})
        assert step.is_sorted == is_sorted_permutation(w)
        assert step.unsort_ok == _unsort_transform_holds(w)
        if step.is_sorted and not w.is_identity():
            assert step.parts_ok == _sorted_step_relations_hold(w)
        else:
            assert step.parts_ok is None
        assert step.unsort_ok
        assert step.parts_ok is not False


def test_criterion_4_structural_relations():
    ok = True
    sorted_count = 0
    for w in symmetric_group(6):
        if is_sorted_permutation(w) and not w.is_identity():
            sorted_count += 1
            if not _sorted_step_relations_hold(w):
                ok = False
        if not _unsort_transform_holds(w):
            ok = False
    # fallen-box monotonicity along predecessor chains in S5
    for w in symmetric_group(5):
        current = w
        steps = 0
        while not current.is_identity():
            was_sorted = is_sorted_permutation(current)
            before = len(fallen_boxes(current))
            current = os_predecessor(current)
            after = len(fallen_boxes(current))
            if was_sorted and not after < before:
                ok = False
            if not was_sorted and after != before:
                ok = False
            steps += 1
            if steps > 1000:
                ok = False
                break
    _report("4 structural relations S6 + chains S5", ok, f"{sorted_count} sorted cases")


def test_criterion_5_operator_laws():
    ok = True
    rng = random.Random(20250811)
    for _ in range(200):
        n = rng.randint(2, 5)
        f = random_polynomial(rng, n)
        g = random_polynomial(rng, n)
        j = rng.randint(1, n - 1)
        dd = divided_difference
        if not dd(j, dd(j, f)).is_zero:
            ok = False
        if (dd(j, f).is_zero) != (f.swap_variables(j) == f):
            ok = False
        sym = f + f.swap_variables(j)
        if dd(j, sym * g) != sym * dd(j, g):
            ok = False
        once = isobaric(j, f)
        if isobaric(j, once) != once or once.swap_variables(j) != once:
            ok = False
        if n >= 3:
            b = rng.randint(1, n - 2)
            if dd(b, dd(b + 1, dd(b, f))) != dd(b + 1, dd(b, dd(b + 1, f))):
                ok = False
            if isobaric(b, isobaric(b + 1, isobaric(b, f))) != isobaric(
                b + 1, isobaric(b, isobaric(b + 1, f))
            ):
                ok = False
        if n >= 4:
            lo, hi = 1, rng.randint(3, n - 1)
            if dd(lo, dd(hi, f)) != dd(hi, dd(lo, f)):
                ok = False
            if isobaric(lo, isobaric(hi, f)) != isobaric(hi, isobaric(lo, f)):
                ok = False
        # power expansion identity for the isobaric operator
        delta = rng.randint(1, 5)
        xj_delta = tuple(delta if i == j - 1 else 0 for i in range(n))
        lhs = isobaric(j, f.mul_monomial(xj_delta))
        djf = dd(j, f)

        def mono(a, b):
            e = [0] * n
            e[j - 1] += a
            e[j] += b
            return tuple(e)

        rhs = djf.mul_monomial(mono(0, delta)) - djf.mul_monomial(mono(1, delta))
        for q in range(delta):
            rhs = rhs + f.mul_monomial(mono(q, delta - 1 - q))
        for q in range(delta - 1):
            rhs = rhs - f.mul_monomial(mono(q + 1, delta - 1 - q))
        if lhs != rhs:
            ok = False

    # monomial divisibility cap for the Demazure-Lascoux operator
    for a in range(7):
        for b in range(7):
            cap = max(a, b)
            for exps in demazure_lascoux(1, Polynomial.monomial((a, b, 0))).monomials():
                if exps[0] > cap or exps[1] > cap:
                    ok = False

    # exhaustive quotient family over sorted nonidentity S5
    family = 0
    for w in symmetric_group(5):
        if w.is_identity() or not is_sorted_permutation(w):
            continue
        family += 1
        data = primary_column_data(w)
        start, gap = data.prefix + 1, data.gap
        raised = grothendieck_recursive(os_predecessor(w))
        g = exact_divide_monomial(
            raised, tuple(gap if i == start - 1 else 0 for i in range(5))
        )
        for k in range(start + 1, start + gap):
            if isobaric(k, g) != g or not divided_difference(k, g).is_zero:
                ok = False
        if gap >= 2:
            for delta in range(gap):
                t = g.mul_monomial(tuple(delta if i == start else 0 for i in range(5)))
                for k in range(start + 1, start + gap):
                    t = isobaric(k, t)
                if t != g:
                    ok = False
            shifted = demazure_lascoux(start, g)
            for k in range(start + 2, start + gap):
                if isobaric(k, shifted) != shifted:
                    ok = False
                if not divided_difference(k, shifted).is_zero:
                    ok = False
        lhs = g.mul_monomial(tuple(gap if i == start - 1 else 0 for i in range(5)))
        for k in range(start, start + gap):
            lhs = isobaric(k, lhs)
        rhs = g
        for k in range(start, start + gap):
            rhs = demazure_lascoux(k, rhs)
        if lhs != rhs:
            ok = False
    _report("5 operator laws", ok, f"200 random cases/law + {family} family cases")


def test_criterion_6_monk_identity():
    ok = True
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
                total = total + sign * grothendieck_recursive(from_one_line(v))
            if total != Polynomial.variable(j, 4) * base:
                ok = False
    w = from_one_line([6, 8, 4, 3, 2, 7, 5, 1])
    data = primary_column_data(w)
    a = max(p for p in w.descents() if data.prefix + 1 <= p <= data.tooth)
    b = max(p for p in range(data.prefix + 1, data.tooth + 1) if w(p) < w(a))
    if monk_terms(a, w.right_multiply_transposition(a, b)) != {w.word: 1}:
        ok = False
    _report("6 transition identity S4", ok, f"{checked} (w, j) pairs")


def test_criterion_7_conjecture_experiment(tmp_path):
    counterexamples = []
    lines = []
    for w in symmetric_group(5):
        passed, witness = check_conjecture(w, *facts(w))
        lines.append(
            json.dumps(
                {
                    "w": list(w.word),
                    "conjecture_ok": passed,
                    "witness": None if witness is None else list(witness),
                },
                sort_keys=True,
            )
        )
        if not passed:
            counterexamples.append((w, witness))
    report_path = tmp_path / "conjecture_report_s5.jsonl"
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    if counterexamples:
        print("!" * 72)
        print("CONJECTURE COUNTEREXAMPLES FOUND (experiment, build stays green):")
        for w, witness in counterexamples:
            print(f"  w={w} witness={witness}")
        print("!" * 72)
    # non-gating by design: report the outcome, never fail the build on it
    _report(
        "7 conjecture experiment S5",
        True,
        f"{len(counterexamples)} counterexample(s), report at {report_path}",
    )


def test_criterion_8_verify_determinism():
    outputs = {}
    for jobs in (1, 1, 4, 8):
        out, err = io.StringIO(), io.StringIO()
        code = cmd_verify(4, list(SUITES), jobs, None, out, err)
        assert code == 0
        outputs.setdefault(jobs, []).append(out.getvalue())
    ok = outputs[1][0] == outputs[1][1] == outputs[4][0] == outputs[8][0]
    _report("8 verify determinism 1/4/8 workers", ok)
