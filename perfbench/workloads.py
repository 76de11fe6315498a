"""Workloads of the orthodontia benchmark: the CLI invocations, the child
processes that run them, and the checks on their output.

Every invocation runs in its own child process, one child at a time,
exactly as a user runs the ``orthodontia`` entry point.  Its standard
output goes to a file, so the timed window holds nothing but the child;
the checks run after the child has ended.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

# What the installed `orthodontia` console script does.
LAUNCH = "import sys; from orthodontia.cli import main; sys.exit(main())"
# Prints the monotonic clock (shared by all processes) once the CLI module is imported.
SETUP_PROBE = "import time, orthodontia.cli; print(repr(time.perf_counter()))"

ALL_SUITES = ("main", "divisibility", "degree", "sorted", "monk", "conjecture")
NON_GATING = frozenset({"conjecture"})
MAX_COMPUTE_RANK = 10  # a random S_12 Grothendieck call needed 7.7 GB


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # Children import from cached bytecode, as an installed package does,
    # even where the environment turns bytecode writing off.  The cache
    # lives in the benchmark's work directory, not beside the sources.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env.pop("ORTHODONTIA_CACHE", None)
    return env


def source_digest() -> str:
    """sha256 over the program's Python sources and the interpreter version."""
    h = hashlib.sha256(sys.version.encode())
    for path in sorted((SRC / "orthodontia").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ChildResult:
    """One finished child.

    On Linux a child's maxrss includes the peak RSS of the process that
    started it, taken at exec.  `launcher_maxrss_mib` is that peak, so a
    reading at or below it is not the child's own.
    """

    launched: float     # perf_counter at launch (CLOCK_MONOTONIC, shared by all processes)
    exited: float
    maxrss_mib: float
    launcher_maxrss_mib: float
    returncode: int     # negative: killed by that signal
    timed_out: bool
    stdout: Path
    stderr: Path

    @property
    def wall(self) -> float:
        return self.exited - self.launched


def run_child(argv: list[str], stdout: Path, stderr: Path, timeout: float) -> ChildResult:
    """Run one child to completion; kill it after `timeout` seconds.

    The peak RSS comes from wait4 on this child alone.
    """
    killed = threading.Event()
    launcher_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        launched = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            exited = time.perf_counter()
        except BaseException:
            # interrupted (for example by SIGTERM): leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(launched, exited, usage.ru_maxrss / 1024.0, launcher_maxrss,
                       proc.returncode, killed.is_set(), stdout, stderr)


def cli_argv(args: tuple[str, ...], trace_to: Path | None, request: int) -> list[str]:
    if trace_to is None:
        return [sys.executable, "-c", LAUNCH, *args]
    return [sys.executable, str(HERE / "tracer.py"), str(trace_to), str(request), "--", *args]


def measure_setup(samples: int, timeout: float) -> list[float]:
    """Seconds from process launch until orthodontia.cli is imported."""
    WORK.mkdir(exist_ok=True)
    out, err = WORK / "setup.out", WORK / "setup.err"
    times = []
    for _ in range(samples):
        result = run_child([sys.executable, "-c", SETUP_PROBE], out, err, timeout)
        if result.returncode != 0:
            raise RuntimeError("cannot import orthodontia.cli from src/: "
                               + err.read_text(errors="replace").strip()[-500:])
        times.append(float(out.read_text()) - result.launched)
    out.unlink()
    err.unlink()
    return times


# ---------------------------------------------------------------------------
# invocations and their checks


@dataclass(frozen=True)
class Invocation:
    args: tuple[str, ...]
    items: int          # verify: (permutation, suite) records; compute: one polynomial
    key: str            # names the reference digest


@dataclass
class Outcome:
    invocation: Invocation
    child: ChildResult | None   # None: never started, the run deadline had passed
    failures: list[str] = field(default_factory=list)
    digest: str | None = None
    records: int = 0            # verify records printed

    @property
    def failed_items(self) -> int:
        return self.invocation.items if self.failures else 0


def _text_terms(text: str):
    """Yield (coefficient, degree, monomial) for each term of the CLI's text form.

    A parser of the documented format written apart from the program, so
    the checks below do not rely on the code under test.  It walks the
    text lazily: outputs reach 10 MB, and this process's peak RSS must
    stay below its children's (see ChildResult).
    """
    sign = 1
    for match in re.finditer(r"\S+", text):
        token = match.group()
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -sign, token[1:]
        factors = token.split("*")
        coeff = 1
        if not factors[0].startswith("x"):
            coeff = int(factors.pop(0))
        degree = 0
        for factor in factors:
            _, _, power = factor.partition("^")
            degree += int(power) if power else 1
        yield sign * coeff, degree, "*".join(factors)
        sign = 1


def summarize_grothendieck_text(text: str) -> tuple[int, dict[str, int]]:
    """(value at x = (1, ..., 1), lowest-degree terms) of a text-form polynomial."""
    total = 0
    low = None
    lowest: dict[str, int] = {}
    for coeff, degree, monomial in _text_terms(text):
        total += coeff
        if low is None or degree < low:
            low, lowest = degree, {}
        if degree == low:
            lowest[monomial] = coeff
    return total, lowest


def check_grothendieck_total(total: int) -> list[str]:
    return [] if total == 1 else [f"G_w(1,...,1) = {total}, expected 1"]


def check_schubert_text(schubert: str, grothendieck_lowest: dict[str, int]) -> list[str]:
    if {m: c for c, _, m in _text_terms(schubert)} != grothendieck_lowest:
        return ["Schubert output differs from the lowest-degree part of the Grothendieck output"]
    return []


def check_verify_stdout(path: Path, n: int, suites: tuple[str, ...]) -> tuple[list[str], int]:
    """Each gating summary has failed == 0, and every suite has n! records."""
    failures = []
    records = 0
    summaries = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if '"summary":true' in line:
                entry = json.loads(line)
                summaries[entry["suite"]] = entry
            else:
                records += 1
    expected = math.factorial(n)
    for suite in suites:
        entry = summaries.get(suite)
        if entry is None:
            failures.append(f"no summary for suite {suite}")
            continue
        if entry.get("total") != expected:
            failures.append(f"suite {suite}: total {entry.get('total')}, expected {expected}")
        if suite not in NON_GATING and entry.get("failed") != 0:
            failures.append(f"suite {suite}: {entry.get('failed')} failed")
    if records != expected * len(suites):
        failures.append(f"{records} records, expected {expected * len(suites)}")
    return failures, records


def _base_failures(child: ChildResult, expected_digest: str | None) -> tuple[list[str], str]:
    failures = []
    if child.timed_out:
        failures.append("timed out and killed")
    elif child.returncode != 0:
        failures.append(f"exit code {child.returncode}")
    digest = file_sha256(child.stdout)
    if expected_digest is None:
        failures.append("no reference digest")
    elif digest != expected_digest:
        failures.append(f"stdout sha256 {digest[:16]} differs from the reference")
    return failures, digest


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name: str
    why: str
    per_child_timeout: float
    # Seconds of --seconds given to one unit: a run does
    # round(--seconds / unit_budget_s) units, at least one.  The count does
    # not depend on the code's speed, so every commit measures the same
    # number of invocations and the tail percentile means the same thing
    # on both sides of a comparison.
    unit_budget_s: float

    def prepare(self, run: "Run") -> list[str]:
        """Untimed preparation before the first unit; returns its failures."""
        return []

    def unit(self, seed: int) -> list[Invocation]:
        """The invocations of one workload run, in order."""
        raise NotImplementedError

    def before(self, invocation: Invocation, run: "Run") -> tuple[str, ...]:
        """Final CLI arguments; may set up files the invocation needs."""
        return invocation.args

    def check(self, outcomes: list[Outcome], run: "Run") -> None:
        """Fill in the failures of one unit's outcomes."""
        raise NotImplementedError


class VerifyWorkload(Workload):
    """One `orthodontia verify` invocation over all of S_n.

    It sweeps all of S_n, so the seed changes nothing.  ``cache`` is
    None (no cache), "fresh" (a new empty file per invocation) or "full"
    (a copy of a file the program filled in an untimed preparation run).
    """

    per_child_timeout = 150.0

    def __init__(self, name: str, why: str, n: int, suites: tuple[str, ...],
                 cache: str | None, reference_key: str, unit_budget_s: float):
        self.name, self.why, self.n, self.suites = name, why, n, suites
        self.unit_budget_s = unit_budget_s
        self.cache, self.reference_key = cache, reference_key
        self.cache_file = WORK / f"{name}.cache.jsonl"
        args = ["verify", "--n", str(n), "--jobs", "1"]
        if n > 7:
            args += ["--max-rank", str(n)]
        if suites != ALL_SUITES:
            args += ["--suite", ",".join(suites)]
        self.args = tuple(args)

    def unit(self, seed: int) -> list[Invocation]:
        return [Invocation(self.args, math.factorial(self.n) * len(self.suites), self.reference_key)]

    def prepared_cache(self, run: "Run") -> Path:
        return WORK / f"{self.name}.{run.source_digest[:16]}.prepared.jsonl"

    def prepare(self, run: "Run") -> list[str]:
        if self.cache != "full":
            return []
        target = self.prepared_cache(run)
        if target.exists():
            return []
        for stale in WORK.glob(f"{self.name}.*.prepared.jsonl"):
            stale.unlink()
        WORK.mkdir(exist_ok=True)
        partial = WORK / f"{self.name}.preparing.jsonl"
        partial.write_bytes(b"")
        child = run_child(cli_argv(self.args + ("--cache", str(partial)), None, 0),
                          WORK / "prepare.out", WORK / "prepare.err",
                          run.child_timeout(self.per_child_timeout))
        failures, _ = _base_failures(child, run.reference.get(self.reference_key))
        child.stdout.unlink()
        child.stderr.unlink()
        if failures:
            return [f"preparation run failed: {'; '.join(failures)}"]
        partial.rename(target)
        return []

    def before(self, invocation: Invocation, run: "Run") -> tuple[str, ...]:
        if self.cache is None:
            return invocation.args
        prepared = self.prepared_cache(run)
        if self.cache == "full" and prepared.exists():
            shutil.copyfile(prepared, self.cache_file)
        else:
            self.cache_file.write_bytes(b"")
        return invocation.args + ("--cache", str(self.cache_file))

    def check(self, outcomes: list[Outcome], run: "Run") -> None:
        for outcome in outcomes:
            failures, outcome.digest = _base_failures(
                outcome.child, run.reference.get(outcome.invocation.key))
            summary_failures, outcome.records = check_verify_stdout(
                outcome.child.stdout, self.n, self.suites)
            if self.cache == "fresh" and not (self.cache_file.exists() and self.cache_file.stat().st_size):
                failures.append("the cache file was not written")
            outcome.failures += failures + summary_failures
        self.cache_file.unlink(missing_ok=True)


class ComputeWorkload(Workload):
    """`orthodontia compute <w> --kind grothendieck`, then `--kind schubert`,
    for each permutation of a fixed uniform draw from S_n.

    The draw is made once, with seed ``draw_seed``, so every run does the
    same work and every output has a reference digest.  A fresh draw per
    run would swing a run's time by more than 2x, because about one call
    in ten holds most of the time.  The run's seed sets the order of the
    permutations.
    """

    per_child_timeout = 60.0

    def __init__(self, name: str, why: str, n: int, count: int, draw_seed: int,
                 unit_budget_s: float):
        if n > MAX_COMPUTE_RANK:
            raise ValueError(f"compute rank {n} above {MAX_COMPUTE_RANK}")
        self.name, self.why, self.n = name, why, n
        self.unit_budget_s = unit_budget_s
        rng = random.Random(draw_seed)
        words: list[tuple[int, ...]] = []
        while len(words) < count:
            word = list(range(1, n + 1))
            rng.shuffle(word)
            if tuple(word) not in words:
                words.append(tuple(word))
        self.words = words

    def text(self, word: tuple[int, ...]) -> str:
        return "".join(map(str, word)) if self.n <= 9 else ",".join(map(str, word))

    def unit(self, seed: int) -> list[Invocation]:
        order = list(self.words)
        random.Random(seed).shuffle(order)
        invocations = []
        for word in order:
            for kind in ("grothendieck", "schubert"):
                w = self.text(word)
                invocations.append(Invocation(("compute", w, "--kind", kind), 1, f"compute {w} {kind}"))
        return invocations

    def check(self, outcomes: list[Outcome], run: "Run") -> None:
        lowest_terms: dict[str, dict[str, int]] = {}
        for outcome in outcomes:
            failures, outcome.digest = _base_failures(
                outcome.child, run.reference.get(outcome.invocation.key))
            text = outcome.child.stdout.read_text(encoding="utf-8", errors="replace")
            _, w, _, kind = outcome.invocation.args
            try:
                if kind == "grothendieck":
                    total, lowest_terms[w] = summarize_grothendieck_text(text)
                    failures += check_grothendieck_total(total)
                elif w in lowest_terms:
                    failures += check_schubert_text(text, lowest_terms[w])
                else:
                    failures.append("no Grothendieck output to compare with")
            except ValueError as exc:
                failures.append(f"unparsable output: {exc}")
            outcome.failures += failures


_WHY_COLD = ("the paper's exhaustive cross-check as users run it: ~0.5M small polynomial "
             "and operator calls with total memo reuse, plus the cache write path")
_WHY_REPLAY = "the read side of the verify cache with no math; polynomial changes should not move it"
_WHY_COMPUTE = ("large polynomials (up to 10^5+ terms) with no reuse across calls: the recursive "
                "route, a heavy tail and multi-MB text output")
_WHY_SORTED = ("diagram, permutation and sorting code only, no polynomial built: "
               "the bypass workload for polynomial changes")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        VerifyWorkload("verify-s7-cold", _WHY_COLD, 7, ALL_SUITES, "fresh", "verify 7", 30.0),
        # 0.3 s for a 0.6-0.8-s unit: 33 invocations in a 10-s run.  The host's
        # speed drifts over tens of seconds, and the median of 22 invocations
        # (about 15 s) still moved by a fifth from run to run.
        VerifyWorkload("verify-s7-replay", _WHY_REPLAY, 7, ALL_SUITES, "full", "verify 7", 0.3),
        ComputeWorkload("compute-s10", _WHY_COMPUTE, 10, 20, 7, 21.0),
        VerifyWorkload("sorted-s8", _WHY_SORTED, 8, ("sorted",), None, "verify 8 sorted", 22.0),
    )
}

# The same four shapes at toy sizes, for the smoke test.
SMOKE_WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        VerifyWorkload("smoke-verify-s4-cold", _WHY_COLD, 4, ALL_SUITES, "fresh", "verify 4", 0.2),
        VerifyWorkload("smoke-verify-s4-replay", _WHY_REPLAY, 4, ALL_SUITES, "full", "verify 4", 0.2),
        ComputeWorkload("smoke-compute-s5", _WHY_COMPUTE, 5, 6, 7, 1.8),
        VerifyWorkload("smoke-sorted-s4", _WHY_SORTED, 4, ("sorted",), None, "verify 4 sorted", 0.2),
    )
}


def load_reference(path: Path = REFERENCE) -> dict[str, str]:
    return json.loads(path.read_text())["sha256"]


# ---------------------------------------------------------------------------
# running units


class Run:
    """State of one benchmark run: its deadline and its reference digests."""

    def __init__(self, deadline: float, reference: dict[str, str]):
        self.deadline = deadline
        self.reference = reference
        self.source_digest = source_digest()
        self.invocations = 0
        self.prepare_failures: list[str] = []

    def child_timeout(self, cap: float) -> float:
        return min(cap, self.deadline - time.perf_counter())

    def run_unit(self, workload: Workload, seed: int, trace_dir: Path | None = None) -> list[Outcome]:
        """Run one unit's children back to back, then check their outputs.

        With `trace_dir`, each child runs under the tracer and leaves its
        spans there.  A child that cannot start before the deadline, or
        is killed at it, counts as failed.
        """
        WORK.mkdir(exist_ok=True)
        outcomes = []
        for k, invocation in enumerate(workload.unit(seed)):
            index = self.invocations
            self.invocations += 1
            if time.perf_counter() >= self.deadline:
                outcomes.append(Outcome(invocation, None, ["not started: run deadline passed"]))
                continue
            args = workload.before(invocation, self)
            trace_to = None if trace_dir is None else trace_dir / f"spans-{index}"
            child = run_child(cli_argv(args, trace_to, index * 1_000_000),
                              WORK / f"out-{k}.txt", WORK / f"err-{k}.txt",
                              self.child_timeout(workload.per_child_timeout))
            outcomes.append(Outcome(invocation, child))
        started = [o for o in outcomes if o.child is not None]
        workload.check(started, self)
        for outcome in started:
            outcome.failures += self.prepare_failures
            if outcome.failures:
                tail = outcome.child.stderr.read_text(errors="replace").strip()[-300:]
                if tail:
                    outcome.failures.append(f"stderr: {tail}")
            outcome.child.stdout.unlink()
            outcome.child.stderr.unlink()
        return outcomes
