"""Command-line front end: compute, ortho, diagram, verify.

Exit codes: 0 success, 1 verification failure, 2 usage error or any
unexpected error (reported in one line on stderr, without a traceback).

Permutations are written as a digit string for rank at most 9 (31542)
and comma-separated otherwise (10,3,1,...).  The verify subcommand
streams one JSON record per permutation per suite, followed by a summary
record per suite; its stdout is byte-identical across runs and worker
counts.  Results can be cached in a file given by --cache or the
ORTHODONTIA_CACHE environment variable, in the format that
orthodontia.verify describes.  --jobs must be at least 1 and is capped
at the CPU count.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Sequence, TextIO

from orthodontia import __version__
from orthodontia.diagram import orthodontia_trace, rothe_diagram, upper_closure
from orthodontia.grothendieck import _descend, orthodontia_grothendieck, orthodontia_schubert
from orthodontia.operators import divided_difference, isobaric
from orthodontia.permutation import Permutation, from_one_line
from orthodontia.polynomial import MAX_EXPONENT
from orthodontia.verify import SUITES, _SUITES, _dump, _failed, _render, _sweep, _write_cache

# perfbench/tracer.py finds these by name in cli until ROADMAP item 4 retargets it
from orthodontia.verify import (  # noqa: F401
    _check_conjecture, _check_degree, _check_divisibility, _check_main, _check_monk, _check_sorted,
    _load_cache, _verify_task,
)

DEFAULT_MAX_RANK = 7
# The time and peak RSS of one process sweeping S_n with every suite, as
# measured for the README; each --jobs worker fills its own memos
_SWEEP_COST = {7: "5 s and 28 MiB", 8: "3 min and 152 MiB"}
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
            if _SUITES[suite].gates:
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
        code = _run(args, out, err)
        out.flush()  # so that a reader that has gone is reported here, not at exit
        return code
    except Exception as exc:
        # an unexpected failure is reported in one line, never as a traceback
        message = " ".join(str(exc).split()) or "no message"
        with contextlib.suppress(OSError):
            err.write(f"error: {type(exc).__name__}: {message}\n")
            out.flush()
            return 2
        # a reader has gone, so what is left goes to os.devnull: the
        # interpreter's flush at exit would fail and turn exit 2 into 120
        devnull = os.open(os.devnull, os.O_WRONLY)
        for stream in (out, err):
            with contextlib.suppress(OSError):
                os.dup2(devnull, stream.fileno())
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
