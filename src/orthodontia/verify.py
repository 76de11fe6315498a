"""The verify engine: its suites, each declared once in _SUITES, the sweep
that runs them over S_n, and the cache of what they print.

A cache path is followed through a symlink, and the file it resolves to
is rewritten; a path that resolves to anything but a regular file (a
directory, a device, a FIFO), or into a missing directory, is refused
before the sweep.  The file's first line is the stamp of these sources,
{"version": STAMP}.  Then comes one block per (n, suite): a header line
{"blake2b": D, "bytes": B, "n": n, "suite": s}, then exactly the B bytes
that verify prints for that suite at rank n, its n! record lines and its
summary line.  D is the hex 32-byte BLAKE2b digest of "n s\n" followed
by those bytes.  The first line decides how the rest is read: after the
current stamp, a block whose bytes match its digest is replayed by
writing its text, and its summary line gives its share of the exit code;
any other block, and any run of lines that are not a header, is skipped
with one warning on stderr, and a selected suite it held is recomputed.
After another stamp, as every older format has, every line is skipped
silently; after anything else, the file is one malformed block, skipped
with the warning.  A run that computes a suite or skips a block rewrites
the file: its trusted blocks byte for byte, then the computed ones, so
stale blocks go at the next write; of two concurrent runs sharing one
file, the last writer's file is kept.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from itertools import accumulate, permutations
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, TextIO

from orthodontia import __version__
from orthodontia.analysis import check_conjecture, check_divisibility, degree_report
from orthodontia.diagram import OrthodonticSequence, mask_closure, mask_orthodontia, rothe_masks
from orthodontia.grothendieck import (
    FormulaChain, RankOverflowError, _sequence, chained_grothendieck, chained_schubert, check_sorted_step,
    formula_steps, grothendieck_recursive, monk_residue_vanishes, monk_terms, schubert_recursive,
)
from orthodontia.permutation import Permutation
from orthodontia.polynomial import Monomial

# one encoder for every record: json.dumps with arguments builds one per call
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# ---------------------------------------------------------------------------
# suite checks (module level so worker processes can pickle them); each
# takes the task's word as a Permutation and the word's lex index, which
# _verify_task works out once

# The main check's ascending-formula chains, one per kind.  _sweep empties
# them when it ends, so every sweep and forked worker starts with them empty.
_SCHUBERT_CHAIN = FormulaChain()
_GROTH_CHAIN = FormulaChain()


# The sweep's per-word tables, each indexed by a word's lex index, its
# position in permutations(range(1, n + 1)): the orthodontic sequence of
# every word of S_n, and its upper-closure monomial, each filled only
# when a suite whose declaration reads it has records to compute.  _sweep
# fills them before any fork and empties them when it ends.  The diagrams
# themselves are not kept.
_SEQUENCES: list[OrthodonticSequence] = []
_CLOSURES: list[Monomial] = []


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

    A word of the sweep's rank, ``n``, is read from _SEQUENCES at its lex
    index.  A word of lower rank is a pattern sigma(w): its sequence is
    built through grothendieck's bindings the first time it is read and
    kept in ``patterns`` until the sweep ends, so each distinct pattern is
    built once (196 over S_8).
    """

    __slots__ = ("n", "patterns")

    def __init__(self) -> None:
        self.n = 0
        self.patterns: dict[tuple[int, ...], OrthodonticSequence] = {}

    def get(self, word: tuple[int, ...]) -> OrthodonticSequence:
        if len(word) == self.n:
            return _SEQUENCES[_lex_index(word)]
        seq = self.patterns.get(word)
        if seq is None:
            seq = self.patterns[word] = _sequence(word)
        return seq


_KNOWN = _Known()


def _check_main(w: Permutation, index: int) -> dict:
    seq = _SEQUENCES[index]
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


def _check_divisibility(w: Permutation, index: int) -> dict:
    ok, witness = check_divisibility(w, _CLOSURES[index])
    return {"ok": ok, "witness": witness}


def _check_degree(w: Permutation, index: int) -> dict:
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


def _check_sorted(w: Permutation, index: int) -> dict:
    step = check_sorted_step(w, _SEQUENCES[index], _KNOWN)
    return {
        "sorted": step.is_sorted,
        "parts_ok": step.parts_ok,
        "unsort_ok": step.unsort_ok,
        "ok": step.unsort_ok and step.parts_ok is not False,
    }


def _check_monk(w: Permutation, index: int) -> dict:
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


def _check_conjecture(w: Permutation, index: int) -> dict:
    ok, witness = check_conjecture(w, _SEQUENCES[index], _CLOSURES[index])
    return {"ok": ok, "witness": witness}


class _Suite(NamedTuple):
    check: Callable[[Permutation, int], dict]  # a word's record: its fields, ok among them
    counts: dict[str, str] = {}  # int field the summary adds up -> name of the sum
    gates: bool = True  # whether a failed record fails the run
    sequences: bool = False  # whether the check reads _SEQUENCES
    closures: bool = False  # whether the check reads _CLOSURES


# Every suite, in the order verify prints them.  A record holds exactly
# the keys its check returns, ok among them as the check worked it out.
_SUITES = {
    "main": _Suite(_check_main, sequences=True),
    "divisibility": _Suite(_check_divisibility, closures=True),
    "degree": _Suite(_check_degree, {"tight_prop": "tight_prop_count", "tight_cor": "tight_cor_count"},
                     sequences=True, closures=True),
    "sorted": _Suite(_check_sorted, sequences=True),
    "monk": _Suite(_check_monk, {"checked": "checked_total", "skipped": "skipped_total"}),
    # an experiment: a counterexample is reported, never a failed run
    "conjecture": _Suite(_check_conjecture, gates=False, sequences=True, closures=True),
}
SUITES = tuple(_SUITES)
# a plain dict, which perfbench/tracer.py wraps in place, so every check is called through it
_SUITE_CHECKS = {name: suite.check for name, suite in _SUITES.items()}


def _verify_task(suites: tuple[str, ...], word: tuple[int, ...]) -> tuple[tuple, ...]:
    # each suite's record of the word, in the order of suites, as its
    # (field, value) pairs in field order; the keys are distinct, so the
    # sort never compares values
    w, index = Permutation(word), _lex_index(word)
    return tuple(tuple(sorted(_SUITE_CHECKS[suite](w, index).items())) for suite in suites)


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
        _KNOWN.n = n
        declared = [_SUITES[suite] for suite in suites]
        _fill_tables(n, any(s.sequences for s in declared), any(s.closures for s in declared))
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
        _KNOWN.patterns.clear()
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
    counts = _SUITES[suite].counts
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
