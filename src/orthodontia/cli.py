"""Command-line front end: compute, ortho, diagram, verify.

Exit codes: 0 success, 1 verification failure, 2 usage error or any
unexpected error (reported in one line on stderr, without a traceback).

Permutations are written as a digit string for rank at most 9 (31542)
and comma-separated otherwise (10,3,1,...).  The verify subcommand
streams one JSON record per permutation per suite, followed by a summary
record per suite; its stdout is byte-identical across runs and worker
counts.  Results can be cached in a file given by --cache or the
ORTHODONTIA_CACHE environment variable.  A symlink is followed, and the
file it resolves to is rewritten; a path that resolves to anything but a
regular file (a directory, a device, a FIFO), or into a missing
directory, is refused before the sweep.  The file's first line is the
stamp of these sources, {"version": STAMP}.  Then comes one block per
(n, suite): a header line {"blake2b": D, "bytes": B, "n": n, "suite": s},
then exactly the B bytes that verify prints for that suite at rank n,
its n! record lines and its summary line.  D is the hex 32-byte BLAKE2b
digest of "n s\n" followed by those bytes.  The first line decides how
the rest is read: after the current stamp, a block whose bytes match its
digest is replayed by writing its text, and its summary line gives its
share of the exit code; any other block, and any run of lines that are
not a header, is skipped with one warning on stderr, and a selected
suite it held is recomputed.  After another stamp, as every older format has,
every line is skipped silently; after anything else, the file is one
malformed block, skipped with the warning.  A run that computes a suite
or skips a block rewrites the file: its trusted blocks byte for byte,
then the computed ones, so stale blocks go at the next write; of two
concurrent runs sharing one file, the last writer's file is kept.
--jobs must be at least 1 and is capped at the CPU count.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from itertools import accumulate, permutations
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence, TextIO

from orthodontia import __version__
from orthodontia.analysis import check_conjecture, check_divisibility, degree_report
from orthodontia.diagram import (
    OrthodonticSequence,
    mask_closure,
    mask_orthodontia,
    orthodontia_trace,
    rothe_diagram,
    rothe_masks,
    upper_closure,
)
from orthodontia.grothendieck import (
    FormulaChain,
    RankOverflowError,
    _descend,
    _sequence,
    chained_grothendieck,
    chained_schubert,
    check_sorted_step,
    formula_steps,
    grothendieck_recursive,
    monk_residue_vanishes,
    monk_terms,
    orthodontia_grothendieck,
    orthodontia_schubert,
    schubert_recursive,
)
from orthodontia.operators import divided_difference, isobaric
from orthodontia.permutation import Permutation, from_one_line
from orthodontia.polynomial import MAX_EXPONENT, Monomial

DEFAULT_MAX_RANK = 7
# The time and peak RSS of one process sweeping S_n with every suite, as
# measured for the README; each --jobs worker fills its own memos
_SWEEP_COST = {7: "5 s and 28 MiB", 8: "3.5 min and 180 MiB"}
CACHE_ENV = "ORTHODONTIA_CACHE"


def parse_permutation(text: str) -> Permutation:
    """Digit string for rank <= 9, comma-separated for larger ranks."""
    text = text.strip()
    try:
        if "," in text:
            return from_one_line([int(v) for v in text.split(",")])
        return from_one_line([int(ch) for ch in text])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# one encoder for every record: json.dumps with arguments builds one per call
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# ---------------------------------------------------------------------------
# verify suite checks (module level so worker processes can pickle them)

# The main check's ascending-formula chains, one per kind.  _sweep empties
# them when it ends, so every sweep and forked worker starts with them empty.
_SCHUBERT_CHAIN = FormulaChain()
_GROTH_CHAIN = FormulaChain()


# The sweep's per-word tables, each indexed by a word's lex index, its
# position in permutations(range(1, n + 1)): the orthodontic sequence of
# every word of S_n when a suite of _SEQUENCE_SUITES has records to
# compute, and its upper-closure monomial for _CLOSURE_SUITES.  _sweep
# fills them before any fork and empties them when it ends.  The diagrams
# themselves are not kept.
_SEQUENCES: list[OrthodonticSequence] = []
_CLOSURES: list[Monomial] = []
_SEQUENCE_SUITES = frozenset({"main", "degree", "sorted", "conjecture"})
_CLOSURE_SUITES = frozenset({"divisibility", "degree", "conjecture"})


def _lex_index(word: tuple[int, ...]) -> int:
    """The position of ``word`` in permutations(range(1, n + 1)).

    The digit of each entry v in the Lehmer code is the number of later
    entries below v, that is v - 1 less the earlier ones; the digits are
    folded by Horner's rule with bases n, n - 1, ..., 1.
    """
    index = 0
    seen = 0  # bit v: v is an earlier entry
    base = len(word)
    for v in word:
        bit = 1 << v
        index = index * base + v - 1 - (seen & (bit - 1)).bit_count()
        seen |= bit
        base -= 1
    return index


class _Known:
    """The sweep's sequences as ``check_sorted_step`` reads its ``known``.

    A word of the sweep's rank is read from _SEQUENCES; the task's own
    word, ``word``, at the lex index ``index`` that _verify_task works
    out once.  A word of lower rank is a pattern sigma(w): its sequence is
    built through grothendieck's bindings the first time it is read and
    kept in ``patterns`` until the sweep ends, so each distinct pattern is
    built once (196 over S_8).
    """

    __slots__ = ("word", "index", "patterns")

    def __init__(self) -> None:
        self.word: tuple[int, ...] | None = None
        self.index = 0
        self.patterns: dict[tuple[int, ...], OrthodonticSequence] = {}

    def get(self, word: tuple[int, ...]) -> OrthodonticSequence:
        if word is self.word:
            return _SEQUENCES[self.index]
        if len(word) == len(self.word):
            return _SEQUENCES[_lex_index(word)]
        seq = self.patterns.get(word)
        if seq is None:
            seq = self.patterns[word] = _sequence(word)
        return seq

    def clear(self) -> None:
        self.word = None
        self.patterns.clear()


_KNOWN = _Known()


def _index(w: Permutation) -> int:
    # the lex index of the task's word, which _verify_task has worked out
    return _KNOWN.index if w.word is _KNOWN.word else _lex_index(w.word)


def _check_main(w: Permutation) -> dict:
    seq = _SEQUENCES[_index(w)]
    schubert = schubert_recursive(w)
    groth = grothendieck_recursive(w)
    groth_match = groth == chained_grothendieck(seq, _GROTH_CHAIN)
    schubert_match = schubert == chained_schubert(seq, _SCHUBERT_CHAIN)
    # G_w = 0, which has no lowest degree, fails the record
    lowest_degree_match = not groth.is_zero and groth.lowest_degree_component() == schubert
    return {
        "groth_match": groth_match,
        "schubert_match": schubert_match,
        "lowest_degree_match": lowest_degree_match,
        "ok": groth_match and schubert_match and lowest_degree_match,
    }


def _check_divisibility(w: Permutation) -> dict:
    ok, witness = check_divisibility(w, _CLOSURES[_index(w)])
    return {"ok": ok, "witness": witness}


def _check_degree(w: Permutation) -> dict:
    index = _index(w)
    report = degree_report(w, _SEQUENCES[index], _CLOSURES[index])
    deg, prop, cor = report.deg_groth, report.bound_prop, report.bound_cor
    return {
        "deg_groth": deg,
        "bound_prop": prop,
        "bound_cor": cor,
        "tight_prop": deg == prop,
        "tight_cor": deg == cor,
        "ok": deg <= prop and deg <= cor,
    }


def _check_sorted(w: Permutation) -> dict:
    step = check_sorted_step(w, _KNOWN)
    return {
        "sorted": step.is_sorted,
        "parts_ok": step.parts_ok,
        "unsort_ok": step.unsort_ok,
        "ok": step.unsort_ok and step.parts_ok is not False,
    }


def _check_monk(w: Permutation) -> dict:
    checked = 0
    skipped = 0
    ok = True
    for j in range(1, w.n + 1):
        try:
            targets = monk_terms(j, w)
        except RankOverflowError:
            skipped += 1
            continue
        checked += 1
        if not monk_residue_vanishes(j, w, targets):
            ok = False
    # j has no Monk targets exactly when w(j) exceeds every later entry,
    # that is at each new maximum from the right; a skip anywhere else fails
    ok = ok and skipped == len(set(accumulate(reversed(w.word), max)))
    return {"ok": ok, "checked": checked, "skipped": skipped}


def _check_conjecture(w: Permutation) -> dict:
    index = _index(w)
    ok, witness = check_conjecture(w, _SEQUENCES[index], _CLOSURES[index])
    return {"ok": ok, "witness": witness}


_SUITE_CHECKS = {
    "main": _check_main,
    "divisibility": _check_divisibility,
    "degree": _check_degree,
    "sorted": _check_sorted,
    "monk": _check_monk,
    "conjecture": _check_conjecture,
}


class _Rule(NamedTuple):
    counts: dict[str, str] = {}  # int field the summary adds up -> name of the sum
    gates: bool = True  # whether a failed record fails the run


# How each suite's records are summed up, in the order verify prints the
# suites.  A record holds exactly the keys its check returns, ok among
# them as the check worked it out.
_SUITE_RULES = {
    "main": _Rule(),
    "divisibility": _Rule(),
    "degree": _Rule({"tight_prop": "tight_prop_count", "tight_cor": "tight_cor_count"}),
    "sorted": _Rule(),
    "monk": _Rule({"checked": "checked_total", "skipped": "skipped_total"}),
    # an experiment: a counterexample is reported, never a failed run
    "conjecture": _Rule(gates=False),
}
SUITES = tuple(_SUITE_RULES)


def _verify_task(suites: tuple[str, ...], word: tuple[int, ...]) -> tuple[tuple, ...]:
    # each suite's record of the word, in the order of suites, as its
    # (field, value) pairs in field order; the keys are distinct, so the
    # sort never compares values
    _KNOWN.word, _KNOWN.index = word, _lex_index(word)
    w = Permutation(word)
    try:
        return tuple(tuple(sorted(_SUITE_CHECKS[suite](w).items())) for suite in suites)
    finally:
        _KNOWN.word = None


# ---------------------------------------------------------------------------
# result cache


def _blake2b(data: bytes = b""):
    # BLAKE2b with a 32-byte digest, from the C builtin that hashlib wraps:
    # importing hashlib loads OpenSSL (about 5 ms and 3.7 MiB of RSS)
    from _blake2 import blake2b

    return blake2b(data, digest_size=32)


@functools.cache
def _cache_stamp() -> str:
    """__version__ plus the first 16 hex digits of a 32-byte BLAKE2b over
    the package's .py files, each file's name and bytes in name order."""
    digest = _blake2b()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return f"{__version__}+{digest.hexdigest()[:16]}"


def _digest(n: int, suite: str, chunks: Iterable[bytes]) -> tuple[int, str]:
    """The byte length and the 32-byte BLAKE2b of a cache block that is the
    chunks joined; the digest covers the block's n and suite, then its bytes."""
    digest = _blake2b(f"{n} {suite}\n".encode())
    size = 0
    for chunk in chunks:
        digest.update(chunk)
        size += len(chunk)
    return size, digest.hexdigest()


def _json_object(line: str | bytes) -> dict | None:
    # ValueError covers JSONDecodeError, bytes that are not UTF-8 and an
    # integer too long to convert; RecursionError, nesting deeper than the
    # decoder's recursion limit
    try:
        value = json.loads(line)
    except (ValueError, RecursionError):
        return None
    return value if isinstance(value, dict) else None


def _render(n: int, suite: str, records: list[tuple]) -> Iterator[str]:
    """What verify prints for a computed suite at rank n, line by line:
    each word's record line in word order, then the summary line.

    A record's line is f'{head}"w":[{digits}]{tail}', where digits is its
    word's entries joined by commas, and head and tail are its line with
    an empty word cut around "w":[].  They, its ok and the counts its
    summary adds up depend on its (field, value) pairs only, so they are
    worked out once per distinct record: S_7's 30,240 records have 224.
    Equality takes True for 1, but each field of a suite's records always
    holds the same type, so equal records print the same.
    """
    counts = _SUITE_RULES[suite].counts
    word_format = ",".join(["%d"] * n)
    parts: dict[tuple, tuple[str, str, bool, dict[str, int]]] = {}
    failed = 0
    totals = dict.fromkeys(counts.values(), 0)
    for word, items in zip(permutations(range(1, n + 1)), records):
        try:
            head, tail, ok, added = parts[items]
        except KeyError:
            record = dict(items)
            line = _dump({"suite": suite, "n": n, "w": (), **record})
            head, _, tail = line.partition('"w":[]')
            ok, added = record["ok"], {name: record[field] for field, name in counts.items()}
            parts[items] = head, tail, ok, added
        failed += not ok
        for name, value in added.items():
            totals[name] += value
        yield f'{head}"w":[{word_format % word}]{tail}\n'
    summary = {"suite": suite, "n": n, "summary": True, "total": len(records), "failed": failed}
    yield _dump({**summary, **totals}) + "\n"


def _failed(n: int, suite: str, line: str | bytes) -> int | None:
    """The failed count of a block's last line, or None when that line is
    not the summary of (n, suite)."""
    summary = _json_object(line) or {}
    failed = summary.get("failed")
    if summary.get("summary") is True and summary.get("n") == n and summary.get("suite") == suite:
        return failed if type(failed) is int else None
    return None


class _Block(NamedTuple):
    # a trusted block of the cache file: the offsets of its header line,
    # its text and its end, and its summary's failed count
    start: int
    body: int
    end: int
    failed: int


def _header(line: bytes, room: int) -> tuple[tuple[int, str], int, object] | None:
    # the (n, suite), byte length and digest that a block's header line
    # holds, when it holds exactly these, with n an int, a known suite and
    # a positive length of at most room, the bytes left in the file
    header = _json_object(line)
    if header is None or header.keys() != {"blake2b", "bytes", "n", "suite"}:
        return None
    n, suite, length = header["n"], header["suite"], header["bytes"]
    if type(n) is not int or suite not in SUITES or type(length) is not int or not 0 < length <= room:
        return None
    return (n, suite), length, header["blake2b"]


def _load_cache(cache: BinaryIO, path: str, err: TextIO) -> tuple[dict[tuple[int, str], _Block], bool]:
    """The trusted blocks of the open cache file, by (n, suite), and
    whether the file held anything else but blank lines.

    The first nonblank line decides.  After the stamp line of these
    sources, a block is trusted when its header is well formed, its bytes
    are all there and match the header's digest, no trusted block of its
    (n, suite) came before it, and its last line is that suite's summary.
    No record line is parsed.  Every other block, and every run of lines
    that are not a header, is skipped with one warning giving their
    count.  After another stamp every line is skipped silently; after
    anything else the whole file is skipped as one malformed block.
    """
    blocks: dict[tuple[int, str], _Block] = {}
    size = os.fstat(cache.fileno()).st_size
    lines = iter(cache.readline, b"")
    first = next((line for line in lines if line.strip()), None)
    stamp = None if first is None else _json_object(first)
    current = stamp == {"version": _cache_stamp()}
    malformed = 0 if current or first is None or (stamp and "version" in stamp) else 1
    skipping = False  # in a run of lines that are not a header, which counts once
    start = cache.tell()  # the offset of the next line
    for line in lines if current else ():
        body = start + len(line)
        header = _header(line, size - body)
        if header is None:
            start = body
            if line.strip() and not skipping:
                malformed += 1
                skipping = True
            continue
        key, length, digest = header
        text = cache.read(length)
        start = cache.tell()
        failed = None
        if text.endswith(b"\n") and key not in blocks and (length, digest) == _digest(*key, [text]):
            failed = _failed(*key, text[text.rfind(b"\n", 0, -1) + 1:])
        if failed is None:
            malformed += 1
        else:
            blocks[key] = _Block(body - len(line), body, start, failed)
        skipping = failed is None
    if malformed:
        err.write(f"warning: skipped {malformed} malformed block(s) in cache {path}\n")
    return blocks, first is not None and (malformed > 0 or not current)


def _write_cache(
    path: str,
    cache: BinaryIO | None,
    blocks: dict[tuple[int, str], _Block],
    n: int,
    computed: dict[str, list[tuple]],
) -> None:
    """Replace the cache file with the stamp line, each trusted block of
    the open old file byte for byte, and a block for each computed suite
    at rank n.  A trusted block is read whole; a computed block is
    rendered twice, once for its header's length and digest and once to
    write it, so its text is never held.

    The new file is written beside the old one and renamed over it, so a
    failed write leaves the old file as it was.
    """
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "wb") as handle:
            handle.write(_dump({"version": _cache_stamp()}).encode() + b"\n")
            for block in blocks.values():
                cache.seek(block.start)
                handle.write(cache.read(block.end - block.start))
            for suite, records in computed.items():
                size, digest = _digest(n, suite, map(str.encode, _render(n, suite, records)))
                header = {"blake2b": digest, "bytes": size, "n": n, "suite": suite}
                handle.write(_dump(header).encode() + b"\n")
                handle.writelines(map(str.encode, _render(n, suite, records)))
        os.replace(temp, path)
    except OSError:
        if os.path.exists(temp):
            os.unlink(temp)
        raise


# ---------------------------------------------------------------------------
# subcommands

def cmd_compute(
    w: Permutation,
    kind: str,
    fmt: str,
    out: TextIO,
    err: TextIO,
) -> int:
    # G_w lies in the span of x^a with a <= (n - 1, ..., 0), so every rank up
    # to MAX_EXPONENT + 1 fits the exponent bound
    if w.n > MAX_EXPONENT + 1:
        err.write(f"rank {w.n} above {MAX_EXPONENT + 1}: compute's exponents stop at {MAX_EXPONENT}\n")
        return 2
    # The ascending result is kept only as its snapshot while the recursive
    # route, a walk that stores nothing, runs; so one route's polynomials
    # are alive at a time.  The ascending result is built again only to
    # report a disagreement.
    ascending, op = {
        "schubert": (orthodontia_schubert, divided_difference),
        "grothendieck": (orthodontia_grothendieck, isobaric),
    }[kind]
    expected = ascending(rothe_diagram(w)).snapshot()
    recursive = _descend(w.word, op)
    if recursive.snapshot() != expected:
        formula = ascending(rothe_diagram(w))
        err.write(
            f"ERROR: methods disagree for {w} ({kind})\n"
            f"  recursive:   {recursive}\n"
            f"  orthodontia: {formula}\n"
        )
        return 1
    del expected
    if fmt == "json":
        # _dump of {"kind", "polynomial", "w"}, with the polynomial written term by term
        out.write(f'{{"kind":{_dump(kind)},"polynomial":')
        recursive.write_json(out)
        out.write(f',"w":{_dump(list(w.word))}}}\n')
    else:
        recursive.write_text(out)
        out.write("\n")
    return 0


def cmd_ortho(w: Permutation, fmt: str, show_trace: bool, out: TextIO) -> int:
    seq, trace = orthodontia_trace(rothe_diagram(w))
    if fmt == "json":
        out.write(
            _dump(
                {
                    "w": list(w.word),
                    "teeth": list(seq.teeth),
                    "interval_multiplicities": list(seq.interval_multiplicities),
                    "tooth_multiplicities": list(seq.tooth_multiplicities),
                }
            )
            + "\n"
        )
        return 0
    out.write(f"teeth:                    {list(seq.teeth)}\n")
    out.write(f"interval multiplicities:  {list(seq.interval_multiplicities)}\n")
    out.write(f"tooth multiplicities:     {list(seq.tooth_multiplicities)}\n")
    if show_trace:
        for label, snapshot in trace:
            out.write(f"\n[{label}]\n{snapshot.render_ascii()}\n")
    return 0


def cmd_diagram(w: Permutation, closure: bool, fmt: str, out: TextIO) -> int:
    D = rothe_diagram(w)
    if closure:
        D = upper_closure(D)
    if fmt == "json":
        out.write(_dump(D.to_json()) + "\n")
    else:
        out.write(D.render_ascii() + "\n")
    return 0


def cmd_verify(
    n: int,
    suites: Sequence[str],
    jobs: int,
    cache_path: str | None,
    out: TextIO,
    err: TextIO,
    max_rank: int = DEFAULT_MAX_RANK,
) -> int:
    if n < 1 or n > max_rank:
        err.write(f"rank {n} outside 1..{max_rank}\n")
        return 2
    bad = [s for s in suites if s not in SUITES]
    if bad:
        err.write(f"unknown suites: {', '.join(bad)}\n")
        return 2
    if not suites:
        err.write(f"no suite selected; choose from {', '.join(SUITES)}\n")
        return 2
    # the cache is written beside the file its path resolves to and renamed
    # over that file after the sweep, so a symlink's target is updated and
    # the link kept, and a target that is not a regular file is refused
    target = cache_path and os.path.realpath(cache_path)
    if target and (
        os.path.exists(target) and not os.path.isfile(target)
        or not os.path.isdir(os.path.dirname(target))
    ):
        err.write(f"cache {cache_path} cannot be written: not a regular file in an existing directory\n")
        return 2
    if jobs < 1:
        err.write("--jobs must be at least 1\n")
        return 2
    cpus = os.cpu_count() or 1
    if jobs > cpus:
        err.write(f"warning: --jobs {jobs} capped at the CPU count, {cpus}\n")
        jobs = cpus

    selected = [s for s in SUITES if s in set(suites)]
    with contextlib.ExitStack() as stack:
        cache = None
        if target:
            with contextlib.suppress(OSError):
                cache = stack.enter_context(open(target, "rb"))
        # the file stays open, so a trusted block is read from the file it
        # was checked in even when another run replaces the path meanwhile
        blocks, dropped = _load_cache(cache, cache_path, err) if cache else ({}, False)
        missing = tuple(suite for suite in selected if (n, suite) not in blocks)
        if missing and n >= 7:
            cost = f"about {_SWEEP_COST[n]}" if n <= 8 else f"far more than rank 8's {_SWEEP_COST[8]}"
            err.write(
                f"warning: rank {n} sweeps {n}! permutations; expect a long run, "
                f"{cost} of peak memory per process with every suite\n"
            )
        computed = _sweep(n, missing, jobs) if missing else {}

        failures = 0
        for suite in selected:
            if suite in computed:
                for line in _render(n, suite, computed[suite]):
                    out.write(line)
                failed = _failed(n, suite, line)  # the last line is the summary
            else:
                block = blocks[n, suite]
                cache.seek(block.body)
                out.write(cache.read(block.end - block.body).decode("utf-8", "replace"))
                failed = block.failed
            if _SUITE_RULES[suite].gates:
                failures += failed
            elif failed:
                err.write(
                    f"{suite.upper()} COUNTEREXAMPLE(S): {failed} permutation(s) in S_{n}; "
                    f"see the {suite} records above\n"
                )

        if target and (missing or dropped):
            try:
                _write_cache(target, cache, blocks, n, computed)
            except OSError as exc:
                err.write(f"cache write failed: {exc}\n")
                return 2
    return 1 if failures else 0


def _sweep(n: int, suites: tuple[str, ...], jobs: int) -> dict[str, list[tuple]]:
    """Each suite's record of every word of S_n in lex order, as the tuple
    of its (field, value) pairs in field order, computed in jobs worker
    processes when jobs > 1.  Equal records are one object: S_7's 30,240
    records have 224 distinct ones.

    The tables that the suites read are filled first, so forked workers
    inherit them.  The tables, the pattern memo and the formula chains are
    emptied when the sweep ends, also by an exception.
    """
    count = functools.reduce(int.__mul__, range(1, n + 1), 1)  # n!
    records = {suite: [None] * count for suite in suites}
    shared: dict[tuple, tuple] = {}
    try:
        _fill_tables(n, not _SEQUENCE_SUITES.isdisjoint(suites), not _CLOSURE_SUITES.isdisjoint(suites))
        order: Iterable[int] = range(count)  # the lex index of each task's word
        tasks: Iterable[tuple[int, ...]] = permutations(range(1, n + 1))
        if "main" in suites:
            # neighbours in step order share the longest formula prefixes
            order = sorted(order, key=lambda index: formula_steps(_SEQUENCES[index]))
            words = list(tasks)
            tasks = [words[index] for index in order]
            del words
        task = functools.partial(_verify_task, suites)
        with contextlib.ExitStack() as stack:
            if jobs > 1:
                import concurrent.futures
                import multiprocessing

                context = multiprocessing.get_context("fork")
                pool = stack.enter_context(
                    concurrent.futures.ProcessPoolExecutor(jobs, mp_context=context)
                )
                chunk = max(1, count // (jobs * 4))
                done = pool.map(task, tasks, chunksize=chunk)
            else:
                done = map(task, tasks)
            # each result is stored as it arrives, so the parent never
            # holds them all at once
            lists = [records[suite] for suite in suites]
            for index, results in zip(order, done):
                for suite_records, items in zip(lists, results):
                    suite_records[index] = shared.setdefault(items, items)
    finally:
        _SEQUENCES.clear()
        _CLOSURES.clear()
        _KNOWN.clear()
        _SCHUBERT_CHAIN.clear()
        _GROTH_CHAIN.clear()
    return records


def _fill_tables(n: int, sequences: bool, closures: bool) -> None:
    # Fills _SEQUENCES and _CLOSURES, each when asked, in lex order.  Equal
    # parts are one object, through a dict that lives for the fill: S_8's
    # 40,320 sequences have 2,063 distinct teeth, 1,430 interval and 2,812
    # tooth multiplicities.  A sequence is rebuilt around its shared parts
    # without OrthodonticSequence's checks, which its parts have passed.
    if not (sequences or closures):
        return
    parts: dict[tuple[int, ...], tuple[int, ...]] = {}
    share = parts.setdefault
    for word in permutations(range(1, n + 1)):
        masks = rothe_masks(word)
        if sequences:
            teeth, intervals, tooth_counts = mask_orthodontia(masks)
            _SEQUENCES.append(
                tuple.__new__(
                    OrthodonticSequence,
                    (share(teeth, teeth), share(intervals, intervals), share(tooth_counts, tooth_counts)),
                )
            )
        if closures:
            closure = mask_closure(masks)
            _CLOSURES.append(share(closure, closure))


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthodontia",
        description="Exact Schubert and Grothendieck polynomial computations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute a polynomial for a permutation")
    compute.add_argument("permutation", type=parse_permutation)
    compute.add_argument(
        "--kind", choices=("schubert", "grothendieck"), default="grothendieck"
    )
    compute.add_argument("--format", choices=("text", "json"), default="text")

    ortho = sub.add_parser("ortho", help="orthodontic sequence of a permutation")
    ortho.add_argument("permutation", type=parse_permutation)
    ortho.add_argument("--format", choices=("text", "json"), default="text")
    ortho.add_argument("--trace", action="store_true", help="print intermediate diagrams")

    diagram = sub.add_parser("diagram", help="Rothe diagram of a permutation")
    diagram.add_argument("permutation", type=parse_permutation)
    diagram.add_argument("--closure", action="store_true", help="show the upper closure")
    diagram.add_argument("--format", choices=("ascii", "json"), default="ascii")

    verify = sub.add_parser("verify", help="run verification suites over all of S_n")
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument(
        "--suite",
        action="append",
        help="suite name or comma list (default: all); one of "+ ", ".join(SUITES),
    )
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument(
        "--cache",
        default=os.environ.get(CACHE_ENV),
        help=(
            "result cache: a stamp line, then one BLAKE2b-checked block per rank and suite "
            f"(default: ${CACHE_ENV})"
        ),
    )
    verify.add_argument("--max-rank", type=int, default=DEFAULT_MAX_RANK)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out, err = sys.stdout, sys.stderr
    try:
        return _run(args, out, err)
    except Exception as exc:
        # an unexpected failure is reported in one line, never as a traceback
        message = " ".join(str(exc).split()) or "no message"
        err.write(f"error: {type(exc).__name__}: {message}\n")
        return 2


def _run(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    if args.command == "compute":
        return cmd_compute(args.permutation, args.kind, args.format, out, err)
    if args.command == "ortho":
        if args.trace and args.format == "json":
            err.write("--trace draws text diagrams; it cannot be used with --format json\n")
            return 2
        return cmd_ortho(args.permutation, args.format, args.trace, out)
    if args.command == "diagram":
        return cmd_diagram(args.permutation, args.closure, args.format, out)
    if args.command == "verify":
        suites: list[str] = []
        for item in args.suite or [",".join(SUITES)]:
            suites.extend(s.strip() for s in item.split(",") if s.strip())
        return cmd_verify(args.n, suites, args.jobs, args.cache, out, err, args.max_rank)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
