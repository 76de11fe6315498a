"""Command-line front end: compute, ortho, diagram, verify.

Exit codes: 0 success, 1 verification failure, 2 usage error or any
unexpected error (reported in one line on stderr, without a traceback).

Permutations are written as a digit string for rank at most 9 (31542)
and comma-separated otherwise (10,3,1,...).  The verify subcommand
streams one JSON record per permutation per suite, followed by a summary
record per suite; its stdout is byte-identical across runs and worker
counts.  Results can be cached in a JSON-lines file given by --cache or
the ORTHODONTIA_CACHE environment variable.  A symlink is followed, and
the file it resolves to is rewritten; a path that resolves to anything
but a regular file (a directory, a device, a FIFO), or into a missing
directory, is refused before the sweep.  The file's first line is the
stamp of these sources, {"version": STAMP}, and every other line is one
record exactly as verify prints it, grouped by (n, suite).  The first
line decides how the rest is read: after the current stamp, a record is
replayed only when the line is exactly the line verify prints for its
record, its w is a permutation of 1..n, it carries exactly its suite's
fields, each holding a value its suite's check can produce for w, and
its ok is what its suite's record rule derives from its word and other
fields; other lines are skipped and recomputed, with one warning on
stderr.  After another stamp, or a line of an older format, every line
is skipped silently; after anything else, every line is malformed and
skipped with the warning.  A run that computes a record or skips a line
rewrites the file from its trusted records plus the new ones, so stale
lines go at the next write; of two concurrent runs sharing one file, the
last writer's file is kept.
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
from typing import Callable, NamedTuple, Sequence, TextIO

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
    _is_sorted,
    _primary_column_data,
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
from orthodontia.polynomial import Monomial

DEFAULT_MAX_RANK = 7
# The time and peak RSS of one process sweeping S_n with every suite, as
# measured for the README; each --jobs worker fills its own memos
_SWEEP_COST = {7: "5 s and 27 MiB", 8: "4.5 min and 175 MiB"}
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


# The orthodontic sequence and upper-closure monomial of every task word
# when a task has one of _FACT_SUITES to compute, which read them; filled
# by _sweep before any fork and emptied when it ends.  The diagrams
# themselves are not kept.
_SEQUENCES: dict[tuple[int, ...], OrthodonticSequence] = {}
_CLOSURES: dict[tuple[int, ...], Monomial] = {}
_FACT_SUITES = frozenset({"main", "divisibility", "degree", "conjecture"})


def _check_main(w: Permutation) -> dict:
    seq = _SEQUENCES[w.word]
    schubert = schubert_recursive(w)
    groth = grothendieck_recursive(w)
    return {
        "groth_match": groth == chained_grothendieck(seq, _GROTH_CHAIN),
        "schubert_match": schubert == chained_schubert(seq, _SCHUBERT_CHAIN),
        "lowest_degree_match": groth.lowest_degree_component() == schubert,
    }


def _check_divisibility(w: Permutation) -> dict:
    _, witness = check_divisibility(w, _CLOSURES[w.word])
    return {"witness": witness}


def _check_degree(w: Permutation) -> dict:
    report = degree_report(w, _SEQUENCES[w.word], _CLOSURES[w.word])
    return {
        "deg_groth": report.deg_groth,
        "bound_prop": report.bound_prop,
        "bound_cor": report.bound_cor,
        "tight_prop": report.deg_groth == report.bound_prop,
        "tight_cor": report.deg_groth == report.bound_cor,
    }


def _check_sorted(w: Permutation) -> dict:
    step = check_sorted_step(w, _SEQUENCES)
    return {"sorted": step.is_sorted, "parts_ok": step.parts_ok, "unsort_ok": step.unsort_ok}


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
    return {"ok": ok, "checked": checked, "skipped": skipped}


def _check_conjecture(w: Permutation) -> dict:
    _, witness = check_conjecture(w, _SEQUENCES[w.word], _CLOSURES[w.word])
    return {"witness": witness}


_SUITE_CHECKS = {
    "main": _check_main,
    "divisibility": _check_divisibility,
    "degree": _check_degree,
    "sorted": _check_sorted,
    "monk": _check_monk,
    "conjecture": _check_conjecture,
}


class _Rule(NamedTuple):
    # the record's field names besides suite, n and w, in sorted order; a
    # stored record is the tuple of its values in this order
    fields: tuple[str, ...]
    # the record's ok, derived from the word and the record's other fields,
    # or None when a field holds a value that no check of the word produces
    ok: Callable[[tuple[int, ...], dict], bool | None]
    counts: dict[str, str] = {}  # int field the summary adds up -> name of the sum
    gates: bool = True  # whether a failed record fails the run


def _all_match(word: tuple[int, ...], record: dict) -> bool | None:
    flags = (record["groth_match"], record["schubert_match"], record["lowest_degree_match"])
    if not all(type(flag) is bool for flag in flags):
        return None
    return all(flags)


def _no_witness(word: tuple[int, ...], record: dict) -> bool | None:
    # a witness is an exponent vector of w, a tuple of n ints
    witness = record["witness"]
    if witness is None:
        return True
    if type(witness) is tuple and len(witness) == len(word) and all(type(e) is int for e in witness):
        return False
    return None


def _within_bounds(word: tuple[int, ...], record: dict) -> bool | None:
    deg, prop, cor = record["deg_groth"], record["bound_prop"], record["bound_cor"]
    if not (type(deg) is int and type(prop) is int and type(cor) is int):
        return None
    if record["tight_prop"] is not (deg == prop) or record["tight_cor"] is not (deg == cor):
        return None
    return deg <= prop and deg <= cor


def _residue_ok(word: tuple[int, ...], record: dict) -> bool | None:
    # the residue check's own result, once each j in 1..n was checked or
    # skipped; j is skipped, having no Monk targets, exactly when w(j)
    # exceeds every later entry, that is at each new maximum from the right
    skipped = len(set(accumulate(reversed(word), max)))
    counts = (record["checked"], record["skipped"])
    if tuple(map(type, counts)) != (int, int) or counts != (len(word) - skipped, skipped):
        return None
    return record["ok"] is True


def _parts_and_unsort_ok(word: tuple[int, ...], record: dict) -> bool | None:
    # sorted is what the word gives, parts_ok is a boolean exactly when w
    # is sorted and not the identity and None otherwise, and unsort_ok is
    # a boolean
    is_sorted = _is_sorted(word, _primary_column_data(word))
    checked = is_sorted and word != tuple(range(1, len(word) + 1))
    parts_ok, unsort_ok = record["parts_ok"], record["unsort_ok"]
    if record["sorted"] is not is_sorted or type(unsort_ok) is not bool:
        return None
    if not (type(parts_ok) is bool if checked else parts_ok is None):
        return None
    return unsort_ok and parts_ok is not False


# Each suite's record rule.  Every record, passing or failing, carries
# exactly the suite's fields, and the summary adds up its count fields.
_SUITE_RULES = {
    "main": _Rule(("groth_match", "lowest_degree_match", "ok", "schubert_match"), _all_match),
    "divisibility": _Rule(("ok", "witness"), _no_witness),
    "degree": _Rule(
        ("bound_cor", "bound_prop", "deg_groth", "ok", "tight_cor", "tight_prop"),
        _within_bounds,
        {"tight_prop": "tight_prop_count", "tight_cor": "tight_cor_count"},
    ),
    "sorted": _Rule(("ok", "parts_ok", "sorted", "unsort_ok"), _parts_and_unsort_ok),
    "monk": _Rule(
        ("checked", "ok", "skipped"),
        _residue_ok,
        {"checked": "checked_total", "skipped": "skipped_total"},
    ),
    # an experiment: a counterexample is reported, never a failed run
    "conjecture": _Rule(("ok", "witness"), _no_witness, gates=False),
}
SUITES = tuple(_SUITE_RULES)


def _verify_task(
    args: tuple[tuple[int, ...], tuple[str, ...]],
) -> tuple[tuple[int, ...], dict[str, tuple]]:
    # each suite's record of the word, as the tuple of its field values
    word, suites = args
    w = Permutation(word)
    records = {}
    for suite in suites:
        rule = _SUITE_RULES[suite]
        record = _SUITE_CHECKS[suite](w)
        record["ok"] = rule.ok(word, record)
        records[suite] = tuple(map(record.__getitem__, rule.fields))
    return word, records


# ---------------------------------------------------------------------------
# result cache

# The trusted records of one verify run: for each (n, suite), a dict from
# each word to its record as the tuple of its field values in the order of
# the suite's rule.  Equal tuples are one object, drawn from the run's
# intern dict.  Equality takes True for 1, but a rule trusts only None,
# bools, ints and tuples of ints, and records of one length hold their
# bools in the same places, so equal tuples print the same.
_Store = dict[tuple[int, str], dict[tuple[int, ...], tuple]]


@functools.cache
def _cache_stamp() -> str:
    """__version__ plus the first 16 hex digits of a sha256 over the
    package's .py files, each file's name and bytes in name order."""
    try:  # the builtin sha256: hashlib loads OpenSSL (20 ms, 3.5 MiB of RSS)
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        from _sha256 import sha256
    digest = sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return f"{__version__}+{digest.hexdigest()[:16]}"


def _line(n: int, suite: str, word: tuple[int, ...], record: dict) -> str:
    """One record as verify prints it and the cache stores it."""
    return _dump({"suite": suite, "n": n, "w": word, **record})


def _json_object(line: str) -> dict | None:
    # ValueError covers JSONDecodeError and an integer too long to convert;
    # RecursionError, nesting deeper than the decoder's recursion limit
    try:
        value = json.loads(line)
    except (ValueError, RecursionError):
        return None
    return value if isinstance(value, dict) else None


# The record line codec.  A record's line is f'{head}"w":[{digits}]{tail}',
# where digits is its word's entries joined by commas, and head and tail
# are its line with an empty word cut around "w":[].  They depend on
# (n, suite, values) only, so both directions build, or parse and check,
# them once per distinct record shape: S_7's 30,240 lines have 226.

def _word_format(length: int) -> str:
    """The %-format of the entries, joined by commas, of a word of this length."""
    return ",".join(["%d"] * length)


def _outer(n: int, suite: str, record: dict) -> tuple[str, str]:
    """The head and tail of the record's line, around its word."""
    head, _, tail = _line(n, suite, (), record).partition('"w":[]')
    return head, tail


def _encoder(n: int, suite: str) -> Callable[[tuple[int, ...], tuple], str]:
    """The line, with its newline, of each record of (n, suite) from its
    word and value tuple."""
    fields = _SUITE_RULES[suite].fields
    word_format = _word_format(n)
    # keyed by the value tuple, which prints as every tuple equal to it does (see _Store)
    outer: dict[tuple, tuple[str, str]] = {}

    def encode(word: tuple[int, ...], values: tuple) -> str:
        try:
            head, tail = outer[values]
        except KeyError:
            head, tail = outer[values] = _outer(n, suite, dict(zip(fields, values)))
        return f'{head}"w":[{word_format % word}]{tail}\n'

    return encode


class _Shape(NamedTuple):
    n: int
    suite: str
    rule: _Rule
    record: dict  # the fields besides suite, n and w, each list read as a tuple
    # the record's values in the rule's order, hashable once the rule accepts them
    values: tuple


def _shape(head: str, tail: str) -> _Shape | None:
    # the record that a line's head and tail hold, when its suite has a
    # rule, n is an int, its other fields are exactly the rule's, and
    # _outer gives back exactly head and tail for it
    record = _json_object(f'{head}"w":[]{tail}')
    if record is None:
        return None
    suite, n = record.pop("suite", None), record.pop("n", None)
    record.pop("w", None)
    rule = _SUITE_RULES.get(suite) if type(suite) is str else None
    if rule is None or type(n) is not int or record.keys() != set(rule.fields):
        return None
    record = {field: tuple(v) if type(v) is list else v for field, v in record.items()}
    if _outer(n, suite, record) != (head, tail):
        return None
    return _Shape(n, suite, rule, record, tuple(map(record.__getitem__, rule.fields)))


def _word(digits: str) -> tuple[int, ...] | None:
    # the word whose entries joined by commas are exactly digits (so not
    # "+1", " 1", "01" or "1.0"), when it is a permutation of 1..its length
    try:
        word = tuple(map(int, digits.split(",")))
    except ValueError:
        return None
    if _word_format(len(word)) % word != digits or sorted(word) != list(range(1, len(word) + 1)):
        return None
    return word


def _load_record(
    line: str,
    store: _Store,
    shapes: dict[tuple[str, str], _Shape | None],
    words: dict[str, tuple[int, ...] | None],
    shared: dict[tuple, tuple],
) -> bool:
    # adds the line's record to store and returns True when it can be
    # replayed: its head and tail are a trusted shape, its word is a
    # permutation of 1..n, and ok is what the rule derives for that word.
    # Shapes and words are parsed once each, and the records of one word
    # share its tuple from words
    head, _, rest = line.removesuffix("\n").partition('"w":[')
    digits, bracket, tail = rest.partition("]")
    if not bracket:
        return False
    try:
        shape = shapes[head, tail]
    except KeyError:
        shape = shapes[head, tail] = _shape(head, tail)
    if shape is None:
        return False
    try:
        word = words[digits]
    except KeyError:
        word = words[digits] = _word(digits)
    if word is None or len(word) != shape.n:
        return False
    ok = shape.rule.ok(word, shape.record)
    if ok is None or shape.record["ok"] is not ok:
        return False
    values = shared.setdefault(shape.values, shape.values)
    store.setdefault((shape.n, shape.suite), {})[word] = values
    return True


def _load_cache(path: str, err: TextIO, shared: dict[tuple, tuple]) -> tuple[_Store, bool]:
    """The trusted records of the cache file, with their value tuples
    drawn from shared, and whether the file held any nonblank line they
    leave out.

    The first line decides.  After the stamp line of these sources, a
    line that is not exactly the line verify prints for a trusted record
    is skipped with one warning and recomputed.  After another stamp, or
    a line of an older format, every line is skipped silently.  After
    anything else, every line is malformed and skipped with the warning.
    """
    store: _Store = {}
    shapes: dict[tuple[str, str], _Shape | None] = {}
    words: dict[str, tuple[int, ...] | None] = {}
    lines = malformed = 0
    try:
        # newline="\n" keeps a "\r" before the newline, which no record line has
        with open(path, "r", encoding="utf-8", errors="replace", newline="\n") as handle:
            nonblank = filter(str.strip, handle)
            first = next(nonblank, None)
            head = None if first is None else _json_object(first)
            if head == {"version": _cache_stamp()}:
                for line in nonblank:
                    lines += 1
                    malformed += not _load_record(line, store, shapes, words, shared)
            elif first is not None:
                lines = 1 + sum(1 for _ in nonblank)
                malformed = 0 if head and "version" in head else lines
    except OSError:
        pass
    if malformed:
        err.write(f"warning: skipped {malformed} malformed line(s) in cache {path}\n")
    return store, lines > sum(map(len, store.values()))


def _write_cache(path: str, store: _Store) -> None:
    """Replace the cache file with the stamp line and one line per record,
    grouped by (n, suite).

    The new file is written beside the old one and renamed over it, so a
    failed write leaves the old file as it was.
    """
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(_dump({"version": _cache_stamp()}) + "\n")
            for (n, suite), records in store.items():
                encode = _encoder(n, suite)
                for word, values in records.items():
                    handle.write(encode(word, values))
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
    if n >= 7:
        cost = f"about {_SWEEP_COST[n]}" if n <= 8 else f"far more than rank 8's {_SWEEP_COST[8]}"
        err.write(
            f"warning: rank {n} sweeps {n}! permutations; expect a long run, "
            f"{cost} of peak memory per process with every suite\n"
        )
    cpus = os.cpu_count() or 1
    if jobs > cpus:
        err.write(f"warning: --jobs {jobs} capped at the CPU count, {cpus}\n")
        jobs = cpus

    selected = [s for s in SUITES if s in set(suites)]

    # one object per distinct record value tuple and per distinct missing-suite tuple
    shared: dict[tuple, tuple] = {}
    store: _Store = {}
    dropped = False
    if cache_path:
        store, dropped = _load_cache(cache_path, err, shared)
    suite_records = [store.setdefault((n, suite), {}) for suite in selected]

    tasks: list[tuple[tuple[int, ...], tuple[str, ...]]] = []
    for word in permutations(range(1, n + 1)):
        missing = tuple(s for s, records in zip(selected, suite_records) if word not in records)
        if missing:
            tasks.append((word, shared.setdefault(missing, missing)))

    if tasks:
        _sweep(tasks, jobs, store, n, shared)

    failures = 0
    for suite, records in zip(selected, suite_records):
        rule = _SUITE_RULES[suite]
        ok = rule.fields.index("ok")
        counts = {rule.fields.index(field): name for field, name in rule.counts.items()}
        encode = _encoder(n, suite)
        failed = 0
        totals = dict.fromkeys(counts.values(), 0)
        for word in permutations(range(1, n + 1)):
            values = records[word]
            failed += not values[ok]
            for index, name in counts.items():
                totals[name] += values[index]
            out.write(encode(word, values))
        summary = {"suite": suite, "n": n, "summary": True, "total": len(records), "failed": failed}
        out.write(_dump({**summary, **totals}) + "\n")
        if rule.gates:
            failures += failed
        elif failed:
            err.write(
                f"{suite.upper()} COUNTEREXAMPLE(S): {failed} permutation(s) in S_{n}; "
                f"see the {suite} records above\n"
            )

    if target and (tasks or dropped):
        try:
            _write_cache(target, store)
        except OSError as exc:
            err.write(f"cache write failed: {exc}\n")
            return 2
    return 1 if failures else 0


def _sweep(
    tasks: list[tuple[tuple[int, ...], tuple[str, ...]]],
    jobs: int,
    store: _Store,
    n: int,
    shared: dict[tuple, tuple],
) -> None:
    """Compute each task's records into store, with their value tuples
    drawn from shared, in jobs worker processes when jobs > 1.

    The task words' sequences and closure monomials are built first, so
    forked workers inherit them.  Both tables and the formula chains are
    emptied when the sweep ends, also by an exception.
    """
    try:
        if any(not _FACT_SUITES.isdisjoint(missing) for _, missing in tasks):
            for word, _ in tasks:
                masks = rothe_masks(word)
                _SEQUENCES[word] = mask_orthodontia(masks)
                _CLOSURES[word] = mask_closure(masks)
        if any("main" in missing for _, missing in tasks):
            # neighbours in step order share the longest formula prefixes
            tasks.sort(key=lambda task: formula_steps(_SEQUENCES[task[0]]))
        with contextlib.ExitStack() as stack:
            if jobs > 1:
                import concurrent.futures
                import multiprocessing

                context = multiprocessing.get_context("fork")
                pool = stack.enter_context(
                    concurrent.futures.ProcessPoolExecutor(jobs, mp_context=context)
                )
                chunk = max(1, len(tasks) // (jobs * 4))
                done = pool.map(_verify_task, tasks, chunksize=chunk)
            else:
                done = map(_verify_task, tasks)
            # each result is stored as it arrives, so the parent never
            # holds them all at once
            for word, records in done:
                for suite, values in records.items():
                    store[n, suite][word] = shared.setdefault(values, values)
    finally:
        _SEQUENCES.clear()
        _CLOSURES.clear()
        _SCHUBERT_CHAIN.clear()
        _GROTH_CHAIN.clear()


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
        help=f"JSON-lines result cache (default: ${CACHE_ENV})",
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
