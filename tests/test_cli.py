from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from itertools import accumulate, permutations

import pytest

from orthodontia import analysis, cli, diagram, grothendieck, operators, polynomial, verify
from orthodontia.cli import (
    SUITES,
    cmd_compute,
    cmd_diagram,
    cmd_ortho,
    cmd_verify,
    main,
    parse_permutation,
)
from orthodontia.grothendieck import (
    RankOverflowError,
    grothendieck_recursive,
    monk_terms,
    schubert_recursive,
)
from orthodontia.operators import divided_difference, isobaric
from orthodontia.permutation import Permutation, from_one_line, symmetric_group
from orthodontia.polynomial import MAX_EXPONENT, Polynomial

from oracles import json_oracle


def run_verify(n, suites=SUITES, jobs=1, cache=None):
    out, err = io.StringIO(), io.StringIO()
    code = cmd_verify(n, list(suites), jobs, cache, out, err)
    return code, out.getvalue(), err.getvalue()


def stamp_line() -> str:
    return json.dumps({"version": verify._cache_stamp()}, separators=(",", ":"))


def stamped(*lines: bytes) -> bytes:
    """A cache file: the stamp line of these sources, then ``lines``."""
    return b"".join(line + b"\n" for line in (stamp_line().encode(), *lines))


def cache_blocks(data: bytes) -> list[tuple[int, str, bytes]]:
    """Each block of a cache file that starts with the stamp line of these
    sources, as (n, suite, text), its header line checked to be exactly
    the one its text gives."""
    head, _, rest = data.partition(b"\n")
    assert head == stamp_line().encode()
    blocks = []
    while rest:
        line, _, rest = rest.partition(b"\n")
        header = json.loads(line)
        n, suite, size = header["n"], header["suite"], header["bytes"]
        text, rest = rest[:size], rest[size:]
        digest = hashlib.blake2b(f"{n} {suite}\n".encode() + text, digest_size=32).hexdigest()
        assert line == json.dumps(
            {"blake2b": digest, "bytes": len(text), "n": n, "suite": suite},
            sort_keys=True, separators=(",", ":"),
        ).encode()
        blocks.append((n, suite, text))
    return blocks


def suite_blocks(out: str) -> list[bytes]:
    """verify's stdout cut after each summary line: one block per suite."""
    blocks, block = [], []
    for line in out.splitlines(keepends=True):
        block.append(line)
        if '"summary":true' in line:
            blocks.append("".join(block).encode())
            block = []
    assert block == []
    return blocks


def assert_cache_holds(cache, out: str) -> None:
    """The cache file is the stamp line plus exactly one block per suite
    block of out, in any order."""
    assert sorted(text for _, _, text in cache_blocks(cache.read_bytes())) == sorted(suite_blocks(out))


def cold_cache(tmp_path, n: int, suites) -> tuple[str, bytes]:
    """The stdout and the cache file of a run that starts with no cache."""
    path = tmp_path / "cold.jsonl"
    code, out, err = run_verify(n, suites, cache=str(path))
    assert code == 0 and err == ""
    written = path.read_bytes()
    path.unlink()
    return out, written


def test_parse_permutation():
    assert parse_permutation("31542").word == (3, 1, 5, 4, 2)
    assert parse_permutation("1").word == (1,)
    long_form = ",".join(map(str, range(1, 11)))
    assert parse_permutation(long_form).n == 10
    with pytest.raises(argparse.ArgumentTypeError):
        parse_permutation("2137")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_permutation("hello")


def test_compute_text_golden(capsys):
    assert main(["compute", "31542", "--kind", "schubert"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == str(schubert_recursive(from_one_line([3, 1, 5, 4, 2])))


# sha256 of the 1,552,452 bytes that compute prints for this word, as
# measured on CPython 3.10 to 3.13: pins the text formatter's output
# across versions
RANK10_WORD = "4,6,1,8,7,10,5,2,9,3"
RANK10_SHA256 = "ced360218a2a58d32f798e8d95dd465641836808c8fb3a18aa0766229e5e0a52"


def test_compute_text_golden_rank10(capsys):
    assert main(["compute", RANK10_WORD]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and len(captured.out) == 1_552_452
    assert hashlib.sha256(captured.out.encode()).hexdigest() == RANK10_SHA256


def test_compute_empties_each_owned_input_as_it_reads_it(monkeypatch):
    # both routes are walks that keep nothing, so every operator and
    # interval-weight multiply reads an input that its walk owns and that
    # it leaves empty; the 38,555 terms of the last steps span many chunks
    seen = []

    def reading(real):
        def read(*args):
            f = args[-2]  # _apply(j, f, shifts) and mul_monomial(f, exps)
            size = len(f.terms)
            result = real(*args)
            seen.append((type(f), type(result), size, len(f.terms)))
            return result

        return read

    monkeypatch.setattr(operators, "_apply", reading(operators._apply))
    monkeypatch.setattr(Polynomial, "mul_monomial", reading(Polynomial.mul_monomial))
    out, err = io.StringIO(), io.StringIO()
    assert cmd_compute(parse_permutation(RANK10_WORD), "grothendieck", "text", out, err) == 0
    assert err.getvalue() == ""
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == RANK10_SHA256
    assert [left for _, _, _, left in seen] == [0] * len(seen)
    assert max(size for _, _, size, _ in seen) > 4 * polynomial._CHUNK
    assert {(owned, result) for owned, result, _, _ in seen} == {(polynomial._Owned, polynomial._Owned)}


def test_compute_refuses_a_rank_past_the_exponent_bound(capsys):
    # G_w's exponents reach n - 1, so rank MAX_EXPONENT + 1 is the largest
    word = [2, 1, *range(3, MAX_EXPONENT + 2)]
    assert main(["compute", ",".join(map(str, word))]) == 0
    assert capsys.readouterr() == ("x1\n", "")
    longer = ",".join(map(str, [*word, len(word) + 1]))
    assert main(["compute", longer]) == 2
    assert capsys.readouterr() == ("", "rank 257 above 256: compute's exponents stop at 255\n")
    for command in ("ortho", "diagram"):
        assert main([command, longer]) == 0
        capsys.readouterr()


def test_compute_trivial(capsys):
    assert main(["compute", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_compute_json_is_the_polynomials_json_form():
    out, err = io.StringIO(), io.StringIO()
    w = from_one_line([1, 4, 5, 3, 2])
    assert cmd_compute(w, "grothendieck", "json", out, err) == 0
    payload = json.loads(out.getvalue())
    assert payload.keys() == {"w", "kind", "polynomial"}
    assert payload["w"] == [1, 4, 5, 3, 2]
    assert payload["polynomial"] == json_oracle(grothendieck_recursive(w))


def test_compute_methods_agree_both_kinds():
    for kind in ("schubert", "grothendieck"):
        out, err = io.StringIO(), io.StringIO()
        assert cmd_compute(parse_permutation("2143"), kind, "text", out, err) == 0
        assert not err.getvalue()


def test_compute_json_golden():
    out, err = io.StringIO(), io.StringIO()
    assert cmd_compute(parse_permutation("2143"), "grothendieck", "json", out, err) == 0
    assert out.getvalue() == (
        '{"kind":"grothendieck","polynomial":{"n":4,"terms":[[1,[2,0,0,0]],[1,[1,1,0,0]],'
        '[1,[1,0,1,0]],[-1,[2,1,0,0]],[-1,[2,0,1,0]],[-1,[1,1,1,0]],[1,[2,1,1,0]]]},'
        '"w":[2,1,4,3]}\n'
    )


@pytest.mark.parametrize("kind", ["schubert", "grothendieck"])
@pytest.mark.parametrize("word", ["1", "21", "2143", "31542", "2,1,4,3,5,6,7,8,10,9"])
def test_compute_json_writes_the_record_term_by_term(kind, word):
    w = parse_permutation(word)
    out, err = io.StringIO(), io.StringIO()
    assert cmd_compute(w, kind, "json", out, err) == 0 and err.getvalue() == ""
    op = {"schubert": divided_difference, "grothendieck": isobaric}[kind]
    poly = grothendieck._descend(w.word, op)
    record = {"w": list(w.word), "kind": kind, "polynomial": json_oracle(poly)}
    assert out.getvalue() == cli._dump(record) + "\n"


@pytest.mark.parametrize("kind", ["schubert", "grothendieck"])
def test_compute_leaves_the_memos_as_it_found_them(monkeypatch, kind):
    entry = grothendieck._freeze(Polynomial.variable(1, 2))
    memos = {name: {(2, 1): entry} for name in ("_SCHUBERT_CACHE", "_GROTH_CACHE")}
    for name, memo in memos.items():
        monkeypatch.setattr(grothendieck, name, memo)
    out, err = io.StringIO(), io.StringIO()
    assert cmd_compute(parse_permutation("31542"), kind, "text", out, err) == 0
    for name, memo in memos.items():
        assert getattr(grothendieck, name) is memo
        assert memo == {(2, 1): grothendieck._freeze(Polynomial.variable(1, 2))}


@pytest.mark.parametrize("kind", ["schubert", "grothendieck"])
def test_compute_reports_methods_that_disagree(monkeypatch, kind):
    w = parse_permutation("31542")
    right = {"schubert": schubert_recursive, "grothendieck": grothendieck_recursive}[kind](w)
    wrong = right + 1
    monkeypatch.setattr(cli, f"orthodontia_{kind}", lambda D: wrong)
    out, err = io.StringIO(), io.StringIO()
    assert cmd_compute(w, kind, "text", out, err) == 1
    assert out.getvalue() == ""
    assert err.getvalue() == (
        f"ERROR: methods disagree for {w} ({kind})\n"
        f"  recursive:   {right}\n"
        f"  orthodontia: {wrong}\n"
    )


def test_ortho_text_golden():
    out = io.StringIO()
    assert cmd_ortho(parse_permutation("31542"), "text", False, out) == 0
    text = out.getvalue()
    assert "[2, 3, 1]" in text
    assert "[1, 0, 0, 0, 0]" in text
    assert "[0, 1, 1]" in text


def test_ortho_identity_json():
    out = io.StringIO()
    assert cmd_ortho(parse_permutation("123"), "json", False, out) == 0
    payload = json.loads(out.getvalue())
    assert payload["teeth"] == []
    assert payload["interval_multiplicities"] == [0, 0, 0]
    assert payload["tooth_multiplicities"] == []


# `ortho 31542 --trace`; each column keeps its place while the algorithm
# empties the columns around it
ORTHO_TRACE_31542 = (
    "teeth:                    [2, 3, 1]\n"
    "interval multiplicities:  [1, 0, 0, 0, 0]\n"
    "tooth multiplicities:     [0, 1, 1]\n"
    "\n"
    "[start]\n"
    "□ □ · · ·\n"
    "· · · · ·\n"
    "· □ · □ ·\n"
    "· □ · · ·\n"
    "· · · · ·\n"
    "\n"
    "[strip standard columns]\n"
    "· □ · · ·\n"
    "· · · · ·\n"
    "· □ · □ ·\n"
    "· □ · · ·\n"
    "· · · · ·\n"
    "\n"
    "[swap rows 2,3]\n"
    "· □ · · ·\n"
    "· □ · □ ·\n"
    "· · · · ·\n"
    "· □ · · ·\n"
    "· · · · ·\n"
    "\n"
    "[swap rows 3,4]\n"
    "· · · · ·\n"
    "· · · □ ·\n"
    "· · · · ·\n"
    "· · · · ·\n"
    "· · · · ·\n"
    "\n"
    "[swap rows 1,2]\n"
    "· · · · ·\n"
    "· · · · ·\n"
    "· · · · ·\n"
    "· · · · ·\n"
    "· · · · ·\n"
)


def test_ortho_trace_shows_diagrams():
    out = io.StringIO()
    assert cmd_ortho(parse_permutation("31542"), "text", True, out) == 0
    assert out.getvalue() == ORTHO_TRACE_31542


def test_ortho_refuses_a_trace_in_json(capsys):
    assert main(["ortho", "31542", "--format", "json", "--trace"]) == 2
    assert capsys.readouterr() == ("", "--trace draws text diagrams; it cannot be used with --format json\n")
    assert main(["ortho", "31542", "--trace"]) == 0
    assert capsys.readouterr() == (ORTHO_TRACE_31542, "")


def test_diagram_ascii_and_json():
    out = io.StringIO()
    assert cmd_diagram(parse_permutation("213"), False, "ascii", out) == 0
    assert out.getvalue().splitlines()[0].startswith("□")
    out = io.StringIO()
    assert cmd_diagram(parse_permutation("31542"), False, "json", out) == 0
    assert json.loads(out.getvalue())["columns"] == [[1], [1, 3, 4], [], [3], []]
    out = io.StringIO()
    assert cmd_diagram(parse_permutation("31542"), True, "json", out) == 0
    assert json.loads(out.getvalue())["columns"][1] == [1, 2, 3, 4]


def test_verify_all_suites_pass_rank4():
    code, out, err = run_verify(4)
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    summaries = [rec for rec in lines if rec.get("summary")]
    assert [s["suite"] for s in summaries] == list(SUITES)
    assert all(s["failed"] == 0 for s in summaries)
    assert all(s["total"] == 24 for s in summaries)
    per_perm = [rec for rec in lines if not rec.get("summary")]
    assert len(per_perm) == 24 * len(SUITES)
    assert all(rec["ok"] for rec in per_perm)


def test_verify_suite_selection_and_order():
    code, out, _ = run_verify(3, suites=["monk", "main"])
    assert code == 0
    suites_seen = [json.loads(line)["suite"] for line in out.strip().splitlines()]
    # canonical suite order regardless of request order
    assert suites_seen == ["main"] * 6 + ["main"] + ["monk"] * 6 + ["monk"]


def test_verify_conjecture_suite_never_gates():
    code, out, _ = run_verify(3, suites=["conjecture"])
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records[-1]["summary"] and records[-1]["suite"] == "conjecture"


def test_verify_rank_and_suite_validation():
    code, _, err = run_verify(0)
    assert code == 2 and "rank" in err
    code, _, err = run_verify(8)
    assert code == 2
    out, err_io = io.StringIO(), io.StringIO()
    assert cmd_verify(3, ["bogus"], 1, None, out, err_io) == 2


@pytest.mark.parametrize("suite", ["", " , "])
def test_main_verify_empty_suite_list_exits_2(capsys, suite):
    assert main(["verify", "--n", "3", "--suite", suite]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"no suite selected; choose from {', '.join(SUITES)}\n"


def test_verify_deterministic_across_runs_and_jobs():
    _, first, _ = run_verify(3)
    _, second, _ = run_verify(3)
    assert first == second
    _, parallel, _ = run_verify(3, jobs=4)
    assert parallel == first


def test_verify_cache_round_trip(tmp_path):
    cache = tmp_path / "results.jsonl"
    code, first, _ = run_verify(3, cache=str(cache))
    assert code == 0
    assert_cache_holds(cache, first)
    # every suite's block matches its digest, so all of them replay
    code, second, err = run_verify(3, cache=str(cache))
    assert code == 0 and err == ""
    assert first == second
    # under a stale stamp, even a record that would fail the run is ignored
    _, *lines = cache.read_bytes().splitlines()
    failing = b'{"groth_match":false,"lowest_degree_match":true,"n":3,"ok":false,'
    failing += b'"schubert_match":true,"suite":"main","w":[1,2,3]}'
    cache.write_bytes(b"\n".join([b'{"version":"0.0.0"}', failing, *lines]) + b"\n")
    code, third, err = run_verify(3, cache=str(cache))
    assert code == 0 and third == first and err == ""
    # the run that skipped the stale lines rewrote the file without them
    assert b"0.0.0" not in cache.read_bytes()
    assert_cache_holds(cache, first)


def test_verify_cache_defaults_to_the_environment_variable(tmp_path, monkeypatch, capsys):
    cache, other = tmp_path / "env.jsonl", tmp_path / "other.jsonl"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    assert main(["verify", "--n", "3"]) == 0
    first = capsys.readouterr().out
    assert_cache_holds(cache, first)
    written = cache.read_bytes()

    def never(w, index):
        raise AssertionError("a replayed run computed a record")

    # the second run replays every block from the file the variable names
    with monkeypatch.context() as m:
        for suite in SUITES:
            m.setitem(verify._SUITE_CHECKS, suite, never)
        assert main(["verify", "--n", "3"]) == 0
    assert capsys.readouterr() == (first, "")
    assert cache.read_bytes() == written
    # --cache names the file even with the variable set
    assert main(["verify", "--n", "3", "--cache", str(other)]) == 0
    assert capsys.readouterr().out == first
    assert_cache_holds(other, first)
    assert cache.read_bytes() == written


def test_launch_and_replay_load_no_dataclasses_inspect_or_openssl(tmp_path):
    # pytest and these tests import hashlib, copy and pickle themselves, so
    # a child process without site imports the CLI, replays a full cache and
    # sweeps in one process; only a pool of workers loads the pool modules
    cache = tmp_path / "results.jsonl"
    _, first, _ = run_verify(4, cache=str(cache))
    child = (
        "import sys\n"
        "import orthodontia.cli\n"
        "unused = {'dataclasses', 'inspect', '_hashlib', 'copy', 'pickle', 'concurrent', 'multiprocessing'}\n"
        "imported = sorted(unused & sys.modules.keys())\n"
        "package = sorted(name for name in sys.modules if name.startswith('orthodontia'))\n"
        "code = orthodontia.cli.main(['verify', '--n', '4', '--cache', sys.argv[1]])\n"
        "replayed = sorted({'_blake2', '_hashlib'} & sys.modules.keys())\n"
        "swept = orthodontia.cli.main(['verify', '--n', '4', '--jobs', '1'])\n"
        "pooled = sorted({'concurrent', 'multiprocessing'} & sys.modules.keys())\n"
        "print(imported, package, replayed, code, swept, pooled, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    result = subprocess.run(
        [sys.executable, "-S", "-c", child, str(cache)], capture_output=True, text=True, env=env, check=True
    )
    package = [
        "orthodontia", "orthodontia._value", "orthodontia.analysis", "orthodontia.cli", "orthodontia.diagram",
        "orthodontia.grothendieck", "orthodontia.operators", "orthodontia.permutation",
        "orthodontia.polynomial", "orthodontia.verify",
    ]
    assert result.stderr == f"[] {package} ['_blake2'] 0 0 []\n"
    assert result.stdout == first + first


@pytest.mark.parametrize("kind", ["schubert", "grothendieck"])
def test_compute_holds_no_ascending_result_during_the_recursive_walk(monkeypatch, kind):
    # the walk starts with only the ascending result's snapshot alive, and
    # the routes are compared through snapshots, not polynomials
    w = parse_permutation("4,1,6,5,2,3")
    ascending = getattr(cli, f"orthodontia_{kind}")
    built = []
    walked = []

    def route(D):
        result = ascending(D)
        built.append(dict(result.terms))
        return result

    def walk(word, op):
        walked.append([
            o for o in gc.get_objects() if isinstance(o, Polynomial) and o.terms == built[0]
        ])
        return grothendieck._descend(word, op)

    def refuse(self, other):
        raise AssertionError("the routes were compared as polynomials")

    monkeypatch.setattr(cli, f"orthodontia_{kind}", route)
    monkeypatch.setattr(cli, "_descend", walk)
    monkeypatch.setattr(Polynomial, "__eq__", refuse)
    out, err = io.StringIO(), io.StringIO()
    assert cmd_compute(w, kind, "text", out, err) == 0 and err.getvalue() == ""
    assert len(built[0]) > 1 and walked == [[]]


def test_verify_cache_shared_by_two_ranks(tmp_path, monkeypatch):
    cache = tmp_path / "results.jsonl"
    _, expected, _ = run_verify(2, cache=str(cache))
    code, three, _ = run_verify(3, suites=["main", "sorted"], cache=str(cache))
    assert code == 0
    partial = cache.read_bytes()
    # the blocks of rank 2 and rank 3's main and sorted are copied byte for
    # byte, and the four other suites of rank 3 come after them
    swept = []
    real_sweep = cli._sweep

    def sweep(n, suites, jobs):
        swept.append((n, suites))
        return real_sweep(n, suites, jobs)

    monkeypatch.setattr(cli, "_sweep", sweep)
    code, three, _ = run_verify(3, cache=str(cache))
    assert code == 0 and swept == [(3, ("divisibility", "degree", "monk", "conjecture"))]
    both = cache.read_bytes()
    assert both.startswith(partial)
    assert_cache_holds(cache, expected + three)
    code, out, err = run_verify(2, cache=str(cache))
    assert code == 0 and out == expected and err == ""
    assert cache.read_bytes() == both
    # a damaged block of an unselected suite is dropped, and every other
    # block, of either rank, is kept byte for byte
    main_2 = both.index(b'"n":2,"ok":true,"schubert_match":true,"suite":"main","w":[2,1]}')
    damaged = both[:main_2] + b"N" + both[main_2 + 1:]
    cache.write_bytes(damaged)
    code, out, err = run_verify(2, suites=["sorted"], cache=str(cache))
    assert code == 0 and out.encode() == suite_blocks(expected)[SUITES.index("sorted")]
    assert err == f"warning: skipped 1 malformed block(s) in cache {cache}\n"
    kept = [block for block in cache_blocks(both) if block[:2] != (2, "main")]
    assert cache_blocks(cache.read_bytes()) == kept
    swept.clear()
    code, out, err = run_verify(2, cache=str(cache))
    assert code == 0 and out == expected and err == "" and swept == [(2, ("main",))]


# a path in a directory that does not exist, where the temporary file
# cannot be opened; a directory, which the temporary file cannot be
# renamed over; and a symlink to a device, which the rename would replace
# with a regular file: each is refused before any record is computed
@pytest.mark.parametrize("name", ["missing/results.jsonl", "directory", "device"])
def test_verify_cache_write_failure_exits_2(tmp_path, monkeypatch, name):
    (tmp_path / "directory").mkdir()
    (tmp_path / "device").symlink_to(os.devnull)
    cache = tmp_path / name

    def never(w, index):
        raise AssertionError("a record was computed")

    monkeypatch.setitem(verify._SUITE_CHECKS, "main", never)
    code, out, err = run_verify(2, suites=["main"], cache=str(cache))
    assert code == 2 and out == ""
    assert err == f"cache {cache} cannot be written: not a regular file in an existing directory\n"
    assert list(tmp_path.rglob("*.tmp")) == []
    assert os.readlink(tmp_path / "device") == os.devnull


def test_verify_cache_writes_through_a_symlink(tmp_path):
    (tmp_path / "links").mkdir()
    (tmp_path / "files").mkdir()
    target = tmp_path / "files" / "target.jsonl"
    target.write_text("\n")
    link = tmp_path / "links" / "link.jsonl"
    link.symlink_to(target)
    code, out, err = run_verify(2, suites=["sorted"], cache=str(link))
    assert code == 0 and err == ""
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert_cache_holds(target, out)
    written = target.read_bytes()
    assert run_verify(2, suites=["sorted"], cache=str(link)) == (0, out, "")
    assert target.read_bytes() == written and link.is_symlink()
    assert list(tmp_path.rglob("*.tmp")) == []


def test_verify_cache_write_failure_after_the_sweep_exits_2(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    _, expected, _ = run_verify(2, suites=["main"])
    code, out, err = run_verify(2, suites=["main"], cache=str(tmp_path / "results.jsonl"))
    assert code == 2 and out == expected
    assert err == "cache write failed: rename refused\n"
    assert list(tmp_path.iterdir()) == []


# main records for 21 that would fail the run: after a bare 0.1.0 stamp
# line, and in the format that kept a stamp and a key on every line
@pytest.mark.parametrize(
    "content",
    [
        b'{"version":"0.1.0"}\n{"groth_match":false,"lowest_degree_match":true,"n":2,"ok":false,'
        b'"schubert_match":true,"suite":"main","w":[2,1]}\n',
        b'{"version":"0.1.0+0123456789abcdef","key":"2|main|2,1","record":{"ok":false}}\n',
    ],
)
def test_verify_cache_ignores_records_stamped_before_the_source_hash(tmp_path, content):
    cache = tmp_path / "results.jsonl"
    cache.write_bytes(content)
    _, expected, _ = run_verify(2, suites=["main"])
    code, out, err = run_verify(2, suites=["main"], cache=str(cache))
    assert code == 0 and out == expected and err == ""
    assert_cache_holds(cache, expected)


def test_verify_cache_ignores_blocks_under_another_stamp(tmp_path):
    cache = tmp_path / "results.jsonl"
    expected, written = cold_cache(tmp_path, 3, ["main"])
    _, _, blocks = written.partition(b"\n")
    cache.write_bytes(b'{"version":"0.0.0"}\n' + blocks)
    assert run_verify(3, suites=["main"], cache=str(cache)) == (0, expected, "")
    assert cache.read_bytes() == written


# the fields of a passing main record
MAIN_OK = b'"groth_match":true,"lowest_degree_match":true,"ok":true,"schubert_match":true'


def assert_skipped_then_silent(cache, content: bytes, skipped: int, n=2, suites=("main",)):
    """A run from a cache holding content warns once of the skipped
    blocks, prints the cold stdout and writes the cold run's file, so the
    next run replays it silently."""
    expected, written = cold_cache(cache.parent, n, suites)
    cache.write_bytes(content)
    code, out, err = run_verify(n, suites, cache=str(cache))
    assert code == 0 and out == expected
    assert err == f"warning: skipped {skipped} malformed block(s) in cache {cache}\n"
    assert cache.read_bytes() == written
    assert run_verify(n, suites, cache=str(cache)) == (0, expected, "")


# the line verify prints for the main record of 21
MAIN_21 = (
    b'{"groth_match":true,"lowest_degree_match":true,"n":2,"ok":true,"schubert_match":true,'
    b'"suite":"main","w":[2,1]}'
)


# after the stamp, each run of lines that are not a header is one
# malformed block, whatever the lines hold
@pytest.mark.parametrize(
    "line",
    [
        b'{"version":"0.1.0"}',
        b"[1]",
        b"\xff{",
        # a record line of the per-line format that came before blocks
        pytest.param(MAIN_21, id="per-line-record"),
        b'{"n":2,"suite":"main","w":[1,1],' + MAIN_OK + b"}",
        b'{"n":2,"suite":"main","w":["a",2],' + MAIN_OK + b"}",
        b'{"n":2,"suite":"main","w":[[1],2],' + MAIN_OK + b"}",
        b'{"n":"2","suite":"main","w":[2,1],' + MAIN_OK + b"}",
        # nested deeper than the recursion limit, as a whole line, around a
        # word and inside a header; integers too long to convert
        pytest.param(b"[" * 100_000, id="nested-line"),
        pytest.param(b'{"w":[2,1],"x":' + b"[" * 100_000, id="nested-around-word"),
        pytest.param(b'{"blake2b":"","bytes":1,"n":2,"suite":' + b"[" * 100_000, id="nested-header"),
        pytest.param(
            b'{"checked":' + b"9" * 5000 + b',"n":2,"ok":true,"skipped":1,"suite":"monk","w":[1,2]}',
            id="long-integer",
        ),
        pytest.param(b'{"blake2b":"","bytes":' + b"9" * 5000 + b',"n":2,"suite":"main"}', id="long-length"),
        # lengths past the end of the file, which no read may try to allocate
        b'{"blake2b":"","bytes":1000000000000,"n":2,"suite":"main"}',
        b'{"blake2b":"","bytes":' + b"9" * 30 + b',"n":2,"suite":"main"}',
        # the record of 21 with the right values, but not the line verify prints
        MAIN_21.replace(b'"n":2', b'"n": 2'),
        b'{"n":2,' + MAIN_21[1:].replace(b'"n":2,', b""),
        MAIN_21.replace(b"[2,1]", b"[2, 1]"),
        MAIN_21.replace(b"[2,1]", b"[2,1.0]"),
        MAIN_21.replace(b"[2,1]", b"[2,01]"),
        MAIN_21.replace(b"[2,1]", b"[+2,1]"),
        MAIN_21 + b"\r",
        b" " + MAIN_21,
        # headers with a field missing, added, or of the wrong type, an
        # unknown suite, and a length that is not positive; the last
        # format's sha256 header
        b'{"bytes":1,"n":2,"suite":"main"}',
        b'{"bytes":1,"n":2,"sha256":"","suite":"main"}',
        b'{"blake2b":"","bytes":1,"extra":0,"n":2,"suite":"main"}',
        b'{"blake2b":"","bytes":"1","n":2,"suite":"main"}',
        b'{"blake2b":"","bytes":1,"n":2.0,"suite":"main"}',
        b'{"blake2b":"","bytes":1,"n":true,"suite":"main"}',
        b'{"blake2b":"","bytes":1,"n":2,"suite":"nope"}',
        b'{"blake2b":"","bytes":1,"n":2,"suite":["main"]}',
        b'{"blake2b":"","bytes":0,"n":2,"suite":"main"}',
        b'{"blake2b":"","bytes":-1,"n":2,"suite":"main"}',
    ],
)
def test_verify_cache_skips_malformed_line(tmp_path, line):
    assert_skipped_then_silent(tmp_path / "results.jsonl", stamped(line, MAIN_21, b"[2]"), 1)


# without a stamp line first, the whole file is one malformed block, even
# a block that would be trusted after the stamp
@pytest.mark.parametrize(
    "content",
    [
        b"[1]\n",
        b'\xff{\n{"n":2,"suite":"main","w":[2,1],' + MAIN_OK + b"}\n",
        pytest.param(b"[" * 100_000 + b"\n" + MAIN_21 + b"\n", id="nested-line"),
        pytest.param(b"9" * 5000 + b"\n", id="long-integer"),
        pytest.param(None, id="blocks-without-stamp"),
    ],
)
def test_verify_cache_without_a_stamp_line_is_malformed(tmp_path, content):
    if content is None:
        content = cold_cache(tmp_path, 2, ["main"])[1].partition(b"\n")[2]
    assert_skipped_then_silent(tmp_path / "results.jsonl", content, 1)


# edits that keep each line's length: one byte flipped in a record line
# and in the summary line (which would fail the run if trusted), the
# header's suite renamed to another suite, and a word changed to one that
# is not a permutation of 1..n, or to one whose monk counts or sorted flag
# differ from the record's.  The digest no longer matches, so the block is
# skipped and its suite recomputed
@pytest.mark.parametrize(
    "n, suite, old, new",
    [
        (3, "main", b'"ok":true', b'"ok":trUe'),
        (3, "main", b'"failed":0', b'"failed":1'),
        (3, "main", b'"suite":"main"}', b'"suite":"monk"}'),
        (3, "sorted", b'"suite":"sorted"}', b'"suite":"degree"}'),
        (2, "main", b'"w":[2,1]', b'"w":[1,1]'),
        (2, "main", b'"w":[2,1]', b'"w":[3,1]'),
        (3, "monk", b'"w":[1,2,3]', b'"w":[3,2,1]'),
        (3, "sorted", b'"w":[1,3,2]', b'"w":[2,1,3]'),
    ],
)
def test_verify_cache_skips_an_edited_block(tmp_path, n, suite, old, new):
    _, written = cold_cache(tmp_path, n, [suite])
    assert written.count(old) >= 1
    edited = written.replace(old, new, 1)
    assert len(edited) == len(written) and edited != written
    assert_skipped_then_silent(tmp_path / "results.jsonl", edited, 1, n, [suite])


def test_verify_cache_skips_a_block_cut_short(tmp_path):
    _, written = cold_cache(tmp_path, 3, ["main", "sorted"])
    # the last newline, the last 10 bytes, and all of the last block but
    # the start of its header
    for cut in (1, 10, len(written) - written.rindex(b'{"blake2b":') - 5):
        assert_skipped_then_silent(tmp_path / "results.jsonl", written[:-cut], 1, 3, ["main", "sorted"])


def test_verify_cache_skips_a_duplicate_block(tmp_path):
    _, written = cold_cache(tmp_path, 3, ["main", "sorted"])
    last = written[written.rindex(b'{"blake2b":'):]
    # the duplicate, and a copy with a wrong digest after it: two blocks
    wrong = last.replace(b'"ok":true', b'"ok":trUe', 1)
    assert_skipped_then_silent(tmp_path / "results.jsonl", written + last, 1, 3, ["main", "sorted"])
    assert_skipped_then_silent(tmp_path / "results.jsonl", written + last + wrong, 2, 3, ["main", "sorted"])


def forged(n: int, suite: str, text: bytes) -> bytes:
    """A block whose header gives the length and digest of text."""
    digest = hashlib.blake2b(f"{n} {suite}\n".encode() + text, digest_size=32).hexdigest()
    header = {"blake2b": digest, "bytes": len(text), "n": n, "suite": suite}
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n" + text


def test_verify_cache_trusts_a_block_by_its_digest(tmp_path):
    # a block whose digest fits its bytes is replayed as it is, and its
    # summary line gives the exit code: the digest guards against damage,
    # not against an author who writes a new digest
    cache = tmp_path / "results.jsonl"
    _, written = cold_cache(tmp_path, 2, ["main"])
    text = written.split(b"\n", 2)[2]
    text = text.replace(b'"groth_match":true', b'"groth_match":false', 1)
    text = text.replace(b'"failed":0', b'"failed":1')
    cache.write_bytes(stamped() + forged(2, "main", text))
    code, out, err = run_verify(2, ["main"], cache=str(cache))
    assert (code, out.encode(), err) == (1, text, "")


# a block whose digest fits its bytes, but whose last line is not the
# summary of its suite at its rank with an int failed count
@pytest.mark.parametrize(
    "old, new",
    [
        (b'"suite":"main","summary":true', b'"suite":"monk","summary":true'),
        (b'"n":2,"suite":"main","summary"', b'"n":3,"suite":"main","summary"'),
        (b'"summary":true', b'"summary":1'),
        (b'"failed":0', b'"failed":"0"'),
        (b'"failed":0', b'"failed":null'),
        (b'{"failed":0,"n":2,"suite":"main","summary":true,"total":2}\n', b""),
        (b'"total":2}\n', b'"total":2}'),
    ],
)
def test_verify_cache_skips_a_block_without_its_summary(tmp_path, old, new):
    _, written = cold_cache(tmp_path, 2, ["main"])
    text = written.split(b"\n", 2)[2]
    assert old in text
    content = stamped() + forged(2, "main", text.replace(old, new))
    assert_skipped_then_silent(tmp_path / "results.jsonl", content, 1)


def test_verify_replay_writes_each_block_as_it_is(tmp_path, monkeypatch):
    # a full replay decodes JSON only for the stamp, and for each block its
    # header and summary line; it runs no check, computes nothing and
    # writes nothing
    cache = tmp_path / "results.jsonl"
    _, cold, _ = run_verify(6, cache=str(cache))
    written, stat = cache.read_bytes(), os.stat(cache)
    lines = written.splitlines()
    headers = [line for line in lines if line.startswith(b'{"blake2b":')]
    summaries = [line for line in lines if b'"summary":true' in line]
    assert len(headers) == len(summaries) == len(SUITES)
    decoded = []
    real_loads = json.loads

    def loads(text, *args, **kwargs):
        decoded.append(text.encode() if isinstance(text, str) else text)
        return real_loads(text, *args, **kwargs)

    def never(*args):
        raise AssertionError("a record was checked")

    monkeypatch.setattr(json, "loads", loads)
    monkeypatch.setattr(cli, "_sweep", never)
    assert run_verify(6, cache=str(cache)) == (0, cold, "")
    assert [text.rstrip(b"\n") for text in decoded] == [lines[0]] + [
        line for pair in zip(headers, summaries) for line in pair
    ]
    kept = os.stat(cache)
    assert cache.read_bytes() == written
    assert (kept.st_ino, kept.st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)
    assert [p.name for p in tmp_path.iterdir()] == ["results.jsonl"]


@pytest.mark.parametrize(
    "line",
    [
        # a monk record without the counts its summary adds up
        b'{"n":2,"ok":true,"suite":"monk","w":[1,2]}',
        # an ok degree record without the tightness flags its summary counts
        b'{"n":2,"ok":true,"suite":"degree","w":[2,1]}',
        # a failing monk record without its counts
        b'{"n":2,"ok":false,"suite":"monk","w":[2,1]}',
        # from here on, each record's ok contradicts what its suite's check works out
        b'{"groth_match":false,"lowest_degree_match":true,"n":2,"ok":true,'
        b'"schubert_match":true,"suite":"main","w":[2,1]}',
        b'{"n":2,"ok":true,"suite":"divisibility","w":[2,1],"witness":[2,0]}',
        b'{"bound_cor":0,"bound_prop":0,"deg_groth":0,"n":2,"ok":false,"suite":"degree",'
        b'"tight_cor":true,"tight_prop":true,"w":[1,2]}',
        # deg_groth over both bounds
        b'{"bound_cor":1,"bound_prop":1,"deg_groth":9,"n":2,"ok":true,"suite":"degree",'
        b'"tight_cor":false,"tight_prop":false,"w":[2,1]}',
        # tight_prop false where deg_groth equals bound_prop
        b'{"bound_cor":1,"bound_prop":1,"deg_groth":1,"n":2,"ok":true,"suite":"degree",'
        b'"tight_cor":true,"tight_prop":false,"w":[2,1]}',
        b'{"n":2,"ok":true,"parts_ok":false,"sorted":true,"suite":"sorted","unsort_ok":true,'
        b'"w":[2,1]}',
        # 132 is sorted and not the identity, so its parts were checked
        b'{"n":3,"ok":true,"parts_ok":null,"sorted":true,"suite":"sorted","unsort_ok":true,'
        b'"w":[1,3,2]}',
        # a sorted flag the word does not give: 132 and 123 are sorted, 213 is not
        b'{"n":3,"ok":true,"parts_ok":null,"sorted":false,"suite":"sorted","unsort_ok":true,'
        b'"w":[1,3,2]}',
        b'{"n":3,"ok":true,"parts_ok":true,"sorted":true,"suite":"sorted","unsort_ok":true,'
        b'"w":[2,1,3]}',
        b'{"n":3,"ok":true,"parts_ok":null,"sorted":false,"suite":"sorted","unsort_ok":true,'
        b'"w":[1,2,3]}',
        # ok is not the boolean the residue check returns
        b'{"checked":2,"n":2,"ok":1,"skipped":0,"suite":"monk","w":[2,1]}',
        # 132 has three pairs (w, j), each checked or skipped, not nine
        b'{"checked":9,"n":3,"ok":true,"skipped":0,"suite":"monk","w":[1,3,2]}',
        # a failing record is still tied to the word by its counts
        b'{"checked":9,"n":3,"ok":false,"skipped":0,"suite":"monk","w":[1,3,2]}',
        # a record's fields are exactly its suite's: none added, none missing
        b'{"extra":1,"n":2,"suite":"main","w":[1,2],' + MAIN_OK + b"}",
        b'{"groth_match":false,"n":2,"ok":false,"schubert_match":true,"suite":"main","w":[1,2]}',
        b'{"n":2,"ok":false,"suite":"conjecture","w":[1,2],"witness":null}',
        # a failing record whose fields hold values no check produces
        b'{"groth_match":"yes","lowest_degree_match":true,"n":3,"ok":false,'
        b'"schubert_match":true,"suite":"main","w":[1,3,2]}',
        b'{"groth_match":1,"lowest_degree_match":true,"n":3,"ok":false,'
        b'"schubert_match":true,"suite":"main","w":[1,3,2]}',
        b'{"n":3,"ok":false,"suite":"divisibility","w":[2,1,3],"witness":"x"}',
        b'{"n":3,"ok":false,"suite":"divisibility","w":[2,1,3],"witness":[1,0]}',
        b'{"n":3,"ok":false,"suite":"conjecture","w":[2,1,3],"witness":[1,true,0]}',
        b'{"n":3,"ok":false,"suite":"conjecture","w":[2,1,3],"witness":[[1],0,0]}',
        b'{"bound_cor":1,"bound_prop":1,"deg_groth":"x","n":2,"ok":false,"suite":"degree",'
        b'"tight_cor":false,"tight_prop":false,"w":[2,1]}',
        b'{"bound_cor":1,"bound_prop":1,"deg_groth":[1],"n":2,"ok":false,"suite":"degree",'
        b'"tight_cor":false,"tight_prop":false,"w":[2,1]}',
        b'{"bound_cor":1,"bound_prop":1,"deg_groth":1,"n":2,"ok":false,"suite":"degree",'
        b'"tight_cor":true,"tight_prop":false,"w":[2,1]}',
        b'{"n":3,"ok":false,"parts_ok":null,"sorted":false,"suite":"sorted","unsort_ok":"no",'
        b'"w":[2,1,3]}',
        b'{"n":3,"ok":false,"parts_ok":"x","sorted":true,"suite":"sorted","unsort_ok":true,'
        b'"w":[1,3,2]}',
        b'{"n":3,"ok":false,"parts_ok":false,"sorted":false,"suite":"sorted","unsort_ok":true,'
        b'"w":[2,1,3]}',
        # a null ok matches no derived ok, even where the fields fit no record
        b'{"groth_match":"yes","lowest_degree_match":true,"n":3,"ok":null,'
        b'"schubert_match":true,"suite":"main","w":[1,3,2]}',
        b'{"checked":9,"n":3,"ok":null,"skipped":0,"suite":"monk","w":[1,3,2]}',
        # counts that add up to n but are not the word's: 123 skips j = 3 only
        b'{"checked":3,"n":3,"ok":true,"skipped":0,"suite":"monk","w":[1,2,3]}',
    ],
)
def test_verify_cache_recomputes_an_edited_record(tmp_path, line):
    # the record of the same word in a block the writer built is replaced
    # by the line, and the header's length follows it, so only the digest
    # tells the block was edited: no record line is parsed on a replay
    record = json.loads(line)
    n, suite = record["n"], record["suite"]
    _, written = cold_cache(tmp_path, n, [suite])
    stamp, header, text = written.split(b"\n", 2)
    word = b'"w":[' + ",".join(map(str, record["w"])).encode() + b"]"
    old = next(record for record in text.splitlines() if word in record)
    text = text.replace(old, line)
    fields = json.loads(header)
    header = json.dumps({**fields, "bytes": len(text)}, sort_keys=True, separators=(",", ":"))
    content = b"\n".join([stamp, header.encode(), text])
    assert_skipped_then_silent(tmp_path / "results.jsonl", content, 1, n, [suite])


@pytest.mark.parametrize(
    "change, degrees, tight",
    [
        # 21 has degree 1 and both bounds 1; 12 has 0 and 0, tight for both
        ({"deg_groth": 2}, (2, 1, 1), (False, False)),
        ({"bound_prop": 0}, (1, 0, 1), (False, True)),
        ({"bound_cor": 0}, (1, 1, 0), (True, False)),
    ],
    ids=["over-both", "over-prop", "over-cor"],
)
def test_verify_degree_record_over_a_bound_fails_with_its_counts(monkeypatch, change, degrees, tight):
    real = verify.degree_report

    def over(w, seq, closure):
        report = real(w, seq, closure)
        return report._replace(**change) if w.word == (2, 1) else report

    monkeypatch.setattr(verify, "degree_report", over)
    code, out, _ = run_verify(2, suites=["degree"])
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    deg, prop, cor = degrees
    tight_prop, tight_cor = tight
    assert records[1] == {
        "suite": "degree", "n": 2, "w": [2, 1], "deg_groth": deg, "bound_prop": prop,
        "bound_cor": cor, "tight_prop": tight_prop, "tight_cor": tight_cor, "ok": False,
    }
    assert records[2] == {
        "suite": "degree", "n": 2, "summary": True, "total": 2, "failed": 1,
        "tight_prop_count": 1 + tight_prop, "tight_cor_count": 1 + tight_cor,
    }


def closure_minus_one(masks, real=verify.mask_closure):
    # each nonidentity word's closure loses 1 in its last nonzero variable
    closure = list(real(masks))
    nonzero = [i for i, e in enumerate(closure) if e]
    if nonzero:
        closure[nonzero[-1]] -= 1
    return tuple(closure)


def test_verify_fails_the_support_suites_on_a_closure_one_too_small(monkeypatch):
    # the support checks read G_w's maximum exponents and degree off its
    # memo entry, and still fail every word the smaller bound excludes
    monkeypatch.setattr(verify, "mask_closure", closure_minus_one)
    code, out, _ = run_verify(5)
    assert code == 1
    failed = {
        record["suite"]: record["failed"]
        for record in map(json.loads, out.splitlines())
        if "summary" in record
    }
    assert failed == {
        "main": 0, "divisibility": 119, "degree": 105, "sorted": 0, "monk": 0, "conjecture": 119,
    }


def test_verify_sweep_shares_equal_records(monkeypatch):
    # S_6 has 83 distinct record value tuples over its six suites
    swept = []
    real = cli._sweep

    def sweep(n, suites, jobs):
        swept.append(real(n, suites, jobs))
        return swept[-1]

    monkeypatch.setattr(cli, "_sweep", sweep)
    assert run_verify(6)[0] == 0
    [computed] = swept
    assert all(type(suite_records) is list for suite_records in computed.values())
    records = [values for suite_records in computed.values() for values in suite_records]
    assert len(records) == 720 * len(SUITES)
    assert len({id(values) for values in records}) <= 100


def test_verify_failing_witness_replays_the_same_bytes(tmp_path, monkeypatch):
    real = verify.check_divisibility

    def failing(w, closure):
        return (False, (2, 1, 0)) if w.word == (3, 1, 2) else real(w, closure)

    monkeypatch.setattr(verify, "check_divisibility", failing)
    cache = str(tmp_path / "results.jsonl")
    code, swept, err = run_verify(3, suites=["divisibility"], cache=cache)
    assert code == 1 and err == ""
    assert '"w":[3,1,2],"witness":[2,1,0]' in swept

    def never(w, index):
        raise AssertionError("a record was computed")

    monkeypatch.setitem(verify._SUITE_CHECKS, "divisibility", never)
    assert run_verify(3, suites=["divisibility"], cache=cache) == (1, swept, "")


@pytest.mark.parametrize(
    "suite, name, fault, fields, code",
    [
        # the recursive route disagrees with the ascending one, and so its
        # lowest-degree part with the Schubert polynomial
        ("main", "grothendieck_recursive", lambda groth: groth + groth,
         {"groth_match": False, "lowest_degree_match": False, "schubert_match": True}, 1),
        ("sorted", "check_sorted_step", lambda step: step._replace(unsort_ok=False),
         {"parts_ok": True, "sorted": True, "unsort_ok": False}, 1),
        ("sorted", "check_sorted_step", lambda step: step._replace(parts_ok=False),
         {"parts_ok": False, "sorted": True, "unsort_ok": True}, 1),
        # a counterexample to the conjecture is reported but fails no run
        ("conjecture", "check_conjecture", lambda result: (False, (1, 1, 0)),
         {"witness": [1, 1, 0]}, 0),
    ],
    ids=["main", "sorted-unsort", "sorted-parts", "conjecture"],
)
def test_verify_fails_the_record_whose_check_faults(monkeypatch, suite, name, fault, fields, code):
    # 132 is sorted and not the identity, so all of its sorted-step parts are checked
    real = getattr(verify, name)

    def faulted(w, *args):
        result = real(w, *args)
        return fault(result) if w.word == (1, 3, 2) else result

    monkeypatch.setattr(verify, name, faulted)
    got, out, err = run_verify(3, suites=[suite])
    assert got == code
    records = [json.loads(line) for line in out.splitlines()]
    faulted_records = [record for record in records if not record.get("summary") and not record["ok"]]
    assert faulted_records == [{"suite": suite, "n": 3, "w": [1, 3, 2], "ok": False, **fields}]
    assert records[-1]["failed"] == 1
    if code:
        assert err == ""
    else:
        assert err == (
            "CONJECTURE COUNTEREXAMPLE(S): 1 permutation(s) in S_3; see the conjecture records above\n"
        )


def test_verify_cache_drops_malformed_line_when_nothing_is_computed(tmp_path):
    cache = tmp_path / "results.jsonl"
    _, expected, _ = run_verify(2, suites=["main"], cache=str(cache))
    complete = cache.read_bytes()
    stamp, _, block = complete.partition(b"\n")
    # a per-line record between the stamp and the block, and a line at the end
    cache.write_bytes(stamp + b"\n" + MAIN_21 + b"\n" + block + b"[1]\n")
    code, out, err = run_verify(2, suites=["main"], cache=str(cache))
    assert code == 0 and out == expected
    assert err == f"warning: skipped 2 malformed block(s) in cache {cache}\n"
    assert cache.read_bytes() == complete
    assert [p.name for p in tmp_path.iterdir()] == ["results.jsonl"]
    code, replay, err = run_verify(2, suites=["main"], cache=str(cache))
    assert code == 0 and replay == expected and err == ""


def test_verify_stdout_golden_rank5(tmp_path):
    # sha256 of `verify --n 5` stdout with every suite, as first recorded
    cache = tmp_path / "results.jsonl"
    code, out, err = run_verify(5, cache=str(cache))
    assert code == 0 and err == ""
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "d7b54a2cde352d4e2fcc57af447f700bb08c6287d62d3b603d39cfe7726b4107"
    )
    # and of the cache file after its stamp line, which hashes the sources:
    # the blocks, their order and their BLAKE2b digests, which must be the
    # same on every CPython for one version to replay another's file
    written = cache.read_bytes()
    assert (
        hashlib.sha256(written.partition(b"\n")[2]).hexdigest()
        == "22d169da6aaad9dc5957118251b79bc5efb7bf612b0c3b6fd3c491c5b914748d"
    )
    # a second run replays every block silently and leaves the file as it was
    assert run_verify(5, cache=str(cache)) == (0, out, "")
    assert cache.read_bytes() == written


@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_stdout_golden_rank6(jobs):
    # sha256 of `verify --n 6` stdout with every suite, as first recorded
    code, out, _ = run_verify(6, jobs=jobs)
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "315ca8898455dc7626b6d92a2b118f967998db10819f7c21e8c05786bf31c075"
    )


def test_verify_main_applies_each_shared_prefix_once(monkeypatch):
    # S_6 has 1,692 ascending-formula steps but 207 distinct step prefixes
    counts = {"demazure": 0, "demazure_lascoux": 0}
    for name in counts:
        real = getattr(grothendieck, name)

        def counted(j, f, real=real, name=name):
            counts[name] += 1
            return real(j, f)

        monkeypatch.setattr(grothendieck, name, counted)
    code, _, _ = run_verify(6, suites=["main"])
    assert code == 0
    assert counts == {"demazure": 207, "demazure_lascoux": 207}


def check_monk(w):
    # the monk check of w as _verify_task calls it
    return verify._check_monk(w, verify._lex_index(w.word))


def test_check_monk_fails_when_one_sign_flips(monkeypatch):
    w = from_one_line([1, 3, 2, 4])
    assert check_monk(w) == {"ok": True, "checked": 3, "skipped": 1}
    real_terms = verify.monk_terms

    def flipped(j, w):
        targets = real_terms(j, w)
        first = min(targets)
        return {**targets, first: -targets[first]}

    monkeypatch.setattr(verify, "monk_terms", flipped)
    assert check_monk(w)["ok"] is False


def test_check_monk_skips_exactly_where_monk_terms_overflows_s1_to_s6(monkeypatch):
    # the check counts right-to-left maxima itself; a drift from the library
    # would fail every computed monk record
    real = verify.monk_terms
    for n in range(1, 7):
        for w in symmetric_group(n):
            skipped = len(set(accumulate(reversed(w.word), max)))
            assert check_monk(w) == {"ok": True, "checked": n - skipped, "skipped": skipped}, w
            # a monk_terms that overflows at one more j fails the record
            extra = next((j for j in range(1, n + 1) if w(j) < max(w.word[j - 1:])), None)
            if extra is None:
                continue

            def overflow(j, v, extra=extra):
                if j == extra:
                    raise RankOverflowError(j, v, n)
                return real(j, v)

            monkeypatch.setattr(verify, "monk_terms", overflow)
            assert check_monk(w) == {"ok": False, "checked": n - skipped - 1, "skipped": skipped + 1}, w
            monkeypatch.setattr(verify, "monk_terms", real)


# each suite's record fields besides suite, n and w, as verify prints them
RECORD_FIELDS = {
    "main": ("groth_match", "lowest_degree_match", "ok", "schubert_match"),
    "divisibility": ("ok", "witness"),
    "degree": ("bound_cor", "bound_prop", "deg_groth", "ok", "tight_cor", "tight_prop"),
    "sorted": ("ok", "parts_ok", "sorted", "unsort_ok"),
    "monk": ("checked", "ok", "skipped"),
    "conjecture": ("ok", "witness"),
}


def test_verify_records_carry_exactly_their_suites_fields():
    # printed keys are sorted, so the fields are compared in sorted order
    _, out, _ = run_verify(4)
    lines = out.splitlines()
    assert len(lines) == len(SUITES) * 25
    for line in lines:
        record = json.loads(line)
        if not record.get("summary"):
            fields = tuple(key for key in record if key not in ("suite", "n", "w"))
            assert fields == RECORD_FIELDS[record["suite"]], record


def test_verify_builds_each_words_diagram_facts_once(monkeypatch):
    # the table fill builds the masks and sequence of each of the 720 words
    # once; sorted reads w's column data off its word and the sequences of
    # rank 6 from the table, and builds the masks and sequence of each
    # distinct pattern sigma(w) of lower rank once: the 1 + 2 + 5 + 14
    # dominant words of ranks 1 to 4 (a dominant w is its own pattern).
    # No Diagram is built
    built = []
    counts = {"rothe_diagram": 0, "orthodontia": 0, "mask_orthodontia": 0}

    def counted_masks(word, real=diagram.rothe_masks):
        built.append(word)
        return real(word)

    for name in counts:
        real = getattr(diagram, name)

        def counted(arg, real=real, name=name):
            counts[name] += 1
            return real(arg)

        for module in (verify, analysis, grothendieck):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    for module in (verify, grothendieck):
        monkeypatch.setattr(module, "rothe_masks", counted_masks)
    code, _, _ = run_verify(6)
    assert code == 0
    assert sorted(word for word in built if len(word) == 6) == sorted(permutations(range(1, 7)))
    assert sum(len(word) < 6 for word in built) == 22
    assert counts == {"rothe_diagram": 0, "orthodontia": 0, "mask_orthodontia": len(built)}


def test_verify_calls_the_public_diagram_fact_checks(monkeypatch):
    # the benchmark's tracer counts calls by these public names
    counts = {}
    targets = [
        (verify, "check_divisibility"),
        (verify, "degree_report"),
        (verify, "check_conjecture"),
        (grothendieck, "primary_column_data"),
    ]
    for module, name in targets:
        real = getattr(module, name)
        counts[name] = 0

        def counted(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    code, _, _ = run_verify(4)
    assert code == 0
    assert counts == dict.fromkeys(counts, 24)


def assert_sweep_state_empty() -> None:
    assert verify._SEQUENCES == [] and verify._CLOSURES == []
    assert verify._KNOWN.patterns == {}
    for chain in (verify._SCHUBERT_CHAIN, verify._GROTH_CHAIN):
        assert chain.steps == () and chain.polys == []
    # the source stamp is the one result the module keeps between runs;
    # finding it shows that the scan reads the module the sweep runs in
    memos = {name: value for name, value in vars(verify).items() if hasattr(value, "cache_info")}
    assert "_cache_stamp" in memos
    for name, value in memos.items():
        if name != "_cache_stamp":
            assert value.cache_info().currsize == 0, name


def test_verify_keeps_no_word_after_a_replay(tmp_path):
    cache = str(tmp_path / "results.jsonl")
    run_verify(4, cache=cache)
    assert run_verify(4, cache=cache)[0] == 0
    assert_sweep_state_empty()


def test_verify_facts_table_serves_one_run(monkeypatch):
    seen = set()
    for suite in SUITES:
        real = verify._SUITE_CHECKS[suite]

        def check(w, index, real=real):
            seen.add((len(verify._SEQUENCES), len(verify._CLOSURES)))
            return real(w, index)

        monkeypatch.setitem(verify._SUITE_CHECKS, suite, check)
    # each table is filled only for the suites that read it: sequences for
    # main, degree, sorted and conjecture, closures for divisibility,
    # degree and conjecture
    for suites, sizes in [
        (["sorted"], (24, 0)),
        (["main"], (24, 0)),
        (["divisibility"], (0, 24)),
        (["monk"], (0, 0)),
        (["divisibility", "monk"], (0, 24)),
        (SUITES, (24, 24)),
    ]:
        seen.clear()
        assert run_verify(4, suites=suites)[0] == 0
        assert seen == {sizes}, suites
        assert_sweep_state_empty()

    def broken(w, index, real=verify._SUITE_CHECKS["monk"]):
        # raised once sorted has built a pattern; main has filled both
        # chains for this word
        if not verify._KNOWN.patterns:
            return real(w, index)
        assert verify._SCHUBERT_CHAIN.polys and verify._GROTH_CHAIN.polys
        raise RuntimeError("check failed")

    monkeypatch.setitem(verify._SUITE_CHECKS, "monk", broken)
    with pytest.raises(RuntimeError, match="check failed"):
        run_verify(4, suites=["main", "degree", "sorted", "monk"])
    assert_sweep_state_empty()


def test_lex_index_is_the_position_in_permutations():
    for n in range(1, 8):
        for index, word in enumerate(permutations(range(1, n + 1))):
            assert verify._lex_index(word) == index


def test_verify_sorted_only_builds_each_sequence_once(monkeypatch):
    # the table holds the 720 words' sequences, which w, sort(w) and the
    # step up are read from, and the memo the 22 patterns of lower rank
    calls = []

    def counted(masks, real=diagram.mask_orthodontia):
        calls.append(len(masks))
        return real(masks)

    for module in (verify, grothendieck):
        monkeypatch.setattr(module, "mask_orthodontia", counted)
    assert run_verify(6, suites=["sorted"])[0] == 0
    assert len(calls) == 742 and calls.count(6) == 720


@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_each_suite_alone_prints_its_block_of_the_full_run(jobs):
    # the full run is pinned by the rank-5 golden; each suite alone fills
    # only the tables it reads, in this process or across a fork
    _, full, _ = run_verify(5)
    blocks = suite_blocks(full)
    for suite, block in zip(SUITES, blocks, strict=True):
        code, out, _ = run_verify(5, suites=[suite], jobs=jobs)
        assert code == 0 and out.encode() == block, suite


def test_verify_fills_the_memos_only_as_its_checks_read_them(monkeypatch):
    for memo in ("_SCHUBERT_CACHE", "_GROTH_CACHE"):
        monkeypatch.setattr(grothendieck, memo, {})
    run_verify(5, suites=["divisibility"])
    assert not any(len(word) == 5 for word in grothendieck._SCHUBERT_CACHE)
    assert len(grothendieck._GROTH_CACHE) == 120


def fresh_memos(monkeypatch) -> None:
    """Empty both recursive memos and the key table they share, for one test."""
    for memo in ("_SCHUBERT_CACHE", "_GROTH_CACHE"):
        monkeypatch.setattr(grothendieck, memo, {})
    monkeypatch.setattr(grothendieck, "_KEY_LIST", [])
    monkeypatch.setattr(grothendieck, "_KEY_INDEX", grothendieck._KeyIndex())


def test_verify_memos_share_one_key_object_per_exponent_vector(monkeypatch):
    fresh_memos(monkeypatch)
    assert run_verify(6)[0] == 0
    entries = [
        entry
        for memo in (grothendieck._SCHUBERT_CACHE, grothendieck._GROTH_CACHE)
        for entry in memo.values()
    ]
    assert sum(len(entry.indices) for entry in entries) > 20 * 720
    # the monomials under the staircase of S_6, each one key in the table
    table = grothendieck._KEY_LIST
    assert len(table) <= 720 and len(set(table)) == len(table)
    assert grothendieck._KEY_INDEX == {key: i for i, key in enumerate(table)}
    # so each index fits 2 bytes, and each coefficient 1 byte
    assert {entry.indices.typecode for entry in entries} <= {"B", "H"}
    assert {entry.coeffs.typecode for entry in entries} == {"b"}


def test_verify_monk_from_empty_memos_passes_every_record(monkeypatch):
    # from an empty key table: a monomial gets one index whichever lookup
    # meets it first, so x_j * G_w and each G_v with that term share its slot
    fresh_memos(monkeypatch)
    code, out, _ = run_verify(5, suites=["monk"])
    assert code == 0
    *records, summary = map(json.loads, out.splitlines())
    assert len(records) == 120 and all(record["ok"] for record in records)
    assert summary["failed"] == 0 and summary["checked_total"] > 0


def test_verify_degree_from_empty_memos_fills_the_schubert_memo(monkeypatch):
    # degree alone reads each S_w before any other check has filled its
    # memo entry, so the memo fills from the degree check's own walks
    _, every, _ = run_verify(5)
    fresh_memos(monkeypatch)
    code, out, _ = run_verify(5, suites=["degree"])
    assert code == 0
    assert suite_blocks(out) == [suite_blocks(every)[SUITES.index("degree")]]
    assert all(word in grothendieck._SCHUBERT_CACHE for word in permutations(range(1, 6)))


def test_check_monk_fails_on_an_extra_term_whose_shift_has_no_index(monkeypatch):
    fresh_memos(monkeypatch)
    w = from_one_line([1, 3, 2, 4])
    assert check_monk(w) == {"ok": True, "checked": 3, "skipped": 1}
    groth = grothendieck_recursive(w)
    # no G_v of S_4 has a term of x_j times these, which lie under no
    # staircase of S_4, so each gets a slot of its own; the opposite pair
    # would cancel if such keys were summed in one slot
    x1, x2 = Polynomial.variable(1, 4), Polynomial.variable(2, 4)
    for extra in (x1**5, x2**5 - x2**7):
        grothendieck._GROTH_CACHE[w.word] = grothendieck._freeze(groth + extra)
        for j in (1, 2, 3):
            shifted = Polynomial.variable(j, 4) * extra
            assert not shifted.terms.keys() & grothendieck._KEY_INDEX.keys()
            assert not grothendieck.monk_residue_vanishes(j, w, monk_terms(j, w)), (extra, j)
        assert check_monk(w) == {"ok": False, "checked": 3, "skipped": 1}


def test_verify_thaws_each_words_memo_entries_once_for_main_only(monkeypatch):
    thawed = []
    real = grothendieck._thaw

    def counted(n, entry):
        thawed.append(entry)
        return real(n, entry)

    monkeypatch.setattr(grothendieck, "_thaw", counted)
    # with the memos full, no walk thaws the entry it continues from
    for word in permutations(range(1, 6)):
        grothendieck._schubert_entry(word)
        grothendieck._grothendieck_entry(word)
    thawed.clear()
    assert run_verify(5, suites=[s for s in SUITES if s != "main"])[0] == 0
    assert thawed == []
    assert run_verify(5)[0] == 0
    assert len(thawed) == 2 * 120


def test_verify_applies_each_recursive_operator_once_per_word(monkeypatch):
    # every word of S_6 but w0, whose polynomials are the staircase monomial
    counts = {"divided_difference": 0, "isobaric": 0}
    for name in counts:
        real = getattr(grothendieck, name)

        def counted(j, f, real=real, name=name):
            counts[name] += 1
            return real(j, f)

        monkeypatch.setattr(grothendieck, name, counted)
    for memo in ("_SCHUBERT_CACHE", "_GROTH_CACHE"):
        monkeypatch.setattr(grothendieck, memo, {})
    code, _, _ = run_verify(6)
    assert code == 0
    assert counts == {"divided_difference": 719, "isobaric": 719}


@pytest.mark.parametrize("suites", [SUITES, ["sorted"]])
def test_verify_builds_one_permutation_per_word(monkeypatch, suites):
    # the sorted suite reads sort(w), sigma(w) and the step up as words
    built = []
    real = Permutation.__init__

    def counted(self, word):
        built.append(word)
        real(self, word)

    monkeypatch.setattr(Permutation, "__init__", counted)
    assert run_verify(6, suites)[0] == 0
    assert sorted(built) == list(permutations(range(1, 7)))


@pytest.mark.parametrize("kept", [["main", "sorted"], [s for s in SUITES if s != "sorted"]])
def test_verify_cache_with_some_suites_prints_the_cold_stdout(tmp_path, kept):
    # with every suite but sorted cached, sorted runs alone and fills only
    # the sequence table; with main and sorted cached, the other four fill
    # both tables
    cache = tmp_path / "results.jsonl"
    _, cold, _ = run_verify(4)
    run_verify(4, suites=kept, cache=str(cache))
    code, out, err = run_verify(4, cache=str(cache))
    assert code == 0 and out == cold and err == ""
    assert_cache_holds(cache, cold)


# the paths perfbench/tracer.py names that the program no longer has; a
# rename must not add to them, and an entry goes once its path resolves
UNTRACED = {
    "orthodontia.polynomial.exact_divide_linear",
    "orthodontia.polynomial.Polynomial.swap_variables",
    "orthodontia.grothendieck.warm_caches",
    "orthodontia.diagram.missing_tooth",
    "orthodontia.permutation.Permutation.right_multiply_adjacent",
    "orthodontia.cli._append_cache",
    "orthodontia.polynomial.Polynomial.to_json",
    "orthodontia.analysis.support_vectors",
}


def test_traced_names_exist():
    # the benchmark's tracer finds these by name in cli, and wraps every
    # binding of each, the engine's own in verify among them
    for suite in SUITES:
        assert verify._SUITE_CHECKS[suite] is getattr(cli, f"_check_{suite}")
    assert cli._load_cache is verify._load_cache and cli._verify_task is verify._verify_task
    # the tracer's table, read from its source without importing it, so no
    # bytecode is written beside it
    tracer = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    with open(tracer, encoding="utf-8") as handle:
        namespace = {"__name__": "tracer"}
        exec(compile(handle.read(), tracer, "exec"), namespace)
    unresolved = set()
    for _, _, _, targets in namespace["TRACED"]:
        for module_name, path in targets:
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                unresolved.add(f"{module_name}.{path}")
    assert unresolved == UNTRACED


def test_verify_warns_of_the_time_and_memory_of_a_long_sweep(monkeypatch):
    def stop(*args):
        raise RuntimeError("sweep reached")

    monkeypatch.setattr(cli, "_sweep", stop)
    for n, cost in ((7, "about 5 s and 28 MiB"), (8, "about 3 min and 152 MiB")):
        out, err = io.StringIO(), io.StringIO()
        with pytest.raises(RuntimeError, match="sweep reached"):
            cmd_verify(n, ["sorted"], 1, None, out, err, max_rank=8)
        assert out.getvalue() == ""
        assert err.getvalue() == (
            f"warning: rank {n} sweeps {n}! permutations; expect a long run, "
            f"{cost} of peak memory per process with every suite\n"
        )


def test_verify_warns_of_a_long_sweep_only_when_it_sweeps(tmp_path):
    cache = str(tmp_path / "results.jsonl")
    code, cold, err = run_verify(7, ["sorted"], cache=cache)
    assert code == 0
    assert err == (
        "warning: rank 7 sweeps 7! permutations; expect a long run, "
        "about 5 s and 28 MiB of peak memory per process with every suite\n"
    )
    # a replay sweeps nothing, so it warns of nothing
    assert run_verify(7, ["sorted"], cache=cache) == (0, cold, "")


def test_verify_jobs_capped_at_cpu_count(monkeypatch):
    _, expected, _ = run_verify(2)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    code, out, err = run_verify(2, jobs=2)
    assert code == 0 and out == expected
    assert err == "warning: --jobs 2 capped at the CPU count, 1\n"


def test_verify_jobs_below_one_exits_2(capsys):
    assert main(["verify", "--n", "2", "--jobs", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "--jobs must be at least 1\n"
    assert run_verify(2, jobs=0) == (2, "", "--jobs must be at least 1\n")


def test_main_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["compute", "2137"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compute", "31542", "--kind", "nope"])
    assert exc.value.code == 2


def test_main_verify_smoke(capsys):
    assert main(["verify", "--n", "2", "--suite", "main,divisibility"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 2 * 2 + 2


def test_main_unexpected_exception_exits_2(monkeypatch, capsys):
    def broken(w, index):
        raise RuntimeError("check failed\nunexpectedly")

    monkeypatch.setitem(verify._SUITE_CHECKS, "main", broken)
    assert main(["verify", "--n", "2", "--suite", "main"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: RuntimeError: check failed unexpectedly\n"
    assert captured.out == ""


# a run of main whose stdout holds a line, not yet flushed, when its
# report to stderr meets the closed pipe
PENDING_STDOUT = (
    "import sys\n"
    "from orthodontia import cli\n"
    "def run(args, out, err):\n"
    "    out.write('record\\n')\n"
    "    err.write('warning\\n')\n"
    "cli._run = run\n"
    "sys.exit(cli.main(['compute', '1']))\n"
)


@pytest.mark.parametrize(
    ("command", "shared"),
    [
        (["-m", "orthodontia.cli", "verify", "--n", "5"], True),
        (["-m", "orthodontia.cli", "verify", "--n", "5"], False),
        (["-c", PENDING_STDOUT], True),
        # the whole output fits stdout's buffer, so only a flush can fail
        (["-m", "orthodontia.cli", "compute", "21"], False),
    ],
    ids=["shared", "apart", "pending", "small"],
)
def test_main_exits_2_when_the_reader_of_stdout_is_gone(command, shared):
    # stdout is a pipe whose read end is closed before launch; stderr is
    # the same pipe, or a pipe of its own.  Exit 1 would claim a failed
    # check, and 120 a failed flush of stdout or stderr at exit
    read, write = os.pipe()
    os.close(read)
    # stdout block-buffered, as it is by default on a pipe
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    try:
        result = subprocess.run(
            [sys.executable, *command], stdout=write, stderr=write if shared else subprocess.PIPE, env=env
        )
    finally:
        os.close(write)
    assert result.returncode == 2
    if not shared:
        assert result.stderr == b"error: BrokenPipeError: [Errno 32] Broken pipe\n"
