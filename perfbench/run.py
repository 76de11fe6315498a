#!/usr/bin/env python3
"""Benchmark of the orthodontia CLI.

    python3 perfbench/run.py --workload verify-s7-cold --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --all

Runs the workload's CLI invocations as child processes, one at a time,
for about --seconds seconds (round(--seconds / unit_budget_s) workload
runs, at least one), and checks every output.  It prints the machine, a
table of metrics, and as its last line one JSON object {"correct",
"attempted", "failed", "metrics"}.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the same runs are followed by one traced
run, and the metrics are per layer.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads as wl

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)
SETUP_SAMPLES = 11
RUN_DEADLINE_S = 170.0   # every child is killed by then; the run must end within 180 s


def machine_record(root: Path) -> dict:
    record = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "python": platform.python_version(),
        "commit": None,
        "source_sha256": wl.source_digest(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    record["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            record[f"l{level}"] = size
    if (root / ".git").exists() and shutil.which("git"):
        result = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False)
        record["commit"] = result.stdout.strip() or None
    return record


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it; the
    maximum is reported, as percentile 100.
    """
    ordered = sorted(samples)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(units: list[list[wl.Outcome]], setup: list[float]) -> tuple[dict, dict]:
    """Metric values, and the notes the report prints next to them."""
    walls, latencies, rss, launcher_rss = [], [], [], []
    items = 0
    for outcomes in units:
        children = [o.child for o in outcomes if o.child is not None]
        if not children:
            continue
        walls.append(children[-1].exited - children[0].launched)
        items += sum(o.invocation.items for o in outcomes)
        latencies += [c.wall for c in children]
        rss += [c.maxrss_mib for c in children]
        launcher_rss += [c.launcher_maxrss_mib for c in children]
    tail, percentile = tail_latency(latencies)
    values = {
        "setup_s": statistics.median(setup),
        # Means over the run, not medians: the host switches between speeds
        # about 1.5x apart for minutes at a time, and a median over a run
        # that spans a switch snaps to one speed or the other.
        "wall_s": statistics.fmean(walls),
        "throughput_per_s": items / sum(walls),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * tail,
        "peak_rss_mib": max(rss),
    }
    notes = {
        "setup_s": f"median of {len(setup)} launches",
        "wall_s": f"mean of {len(walls)} workload runs",
        "throughput_per_s": f"{items} items in {len(walls)} workload runs",
        "latency_p50_ms": f"{len(latencies)} invocations",
        "latency_tail_ms": f"p{percentile:.1f} of {len(latencies)} invocations",
        "peak_rss_mib": f"largest of {len(rss)} children",
    }
    if max(rss) <= max(launcher_rss):
        notes["peak_rss_mib"] += "; not above this process's own peak, so not the child's own"
    return values, notes


def run_workload(workload: wl.Workload, seed: int, seconds: float, trace: bool,
                 reference: dict[str, str]) -> dict:
    """One benchmark run of one workload: set-up probes, timed units, optional traced unit."""
    started = time.perf_counter()
    run = wl.Run(started + RUN_DEADLINE_S, reference)
    wl.measure_setup(1, 60.0)  # the first import writes the bytecode caches
    setup = wl.measure_setup(SETUP_SAMPLES, 60.0)
    run.prepare_failures = workload.prepare(run)

    count = max(1, round(seconds / workload.unit_budget_s))
    units = [run.run_unit(workload, seed) for _ in range(count)]
    values, notes = end_to_end(units, setup)
    all_outcomes = [o for unit in units for o in unit]

    if trace:
        trace_dir = wl.WORK / "spans"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        first = run.invocations
        traced = run.run_unit(workload, seed, trace_dir)
        untraced_digests = {o.invocation: o.digest for o in units[0]}
        for outcome in traced:
            if outcome.child is not None and outcome.digest != untraced_digests.get(outcome.invocation):
                outcome.failures.append("traced stdout differs from the untraced stdout")
        all_outcomes += traced
        span_files = [trace_dir / f"spans-{first + k}" for k in range(len(traced))]
        # a failed child may have left no spans; its items count in `failed`
        if (not any(o.failures for o in all_outcomes)
                and all(tracer.spans_written(path) for path in span_files)):
            values, notes = tracer.per_layer_metrics(
                span_files, [o.child for o in traced], values["wall_s"],
                sum(o.records for o in traced))
        else:
            values, notes = {}, {}
        shutil.rmtree(trace_dir, ignore_errors=True)

    attempted = sum(o.invocation.items for o in all_outcomes)
    failed = sum(o.failed_items for o in all_outcomes)
    return {
        "workload": workload.name,
        "values": values,
        "notes": notes,
        "attempted": attempted,
        "failed": failed,
        "failures": [f"{' '.join(o.invocation.args)}: {'; '.join(o.failures)}"
                     for o in all_outcomes if o.failures],
    }


def result_line(result: dict, specs: list[tuple[str, str]]) -> dict:
    values = result["values"]
    return {
        "correct": result["failed"] == 0 and all(name in values for name, _ in specs),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in specs if name in values},
    }


def print_report(result: dict, specs: list[tuple[str, str]]) -> None:
    values, notes = result["values"], result["notes"]
    print(f"workload {result['workload']}")
    for name, unit in specs:
        value = values.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        note = notes.get(name, "")
        print(f"  {name:48s} {shown:>14s} {unit:6s} {note}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'failed_ratio':48s} {ratio:>14.6g} {'ratio':6s} "
          f"{result['failed']} of {result['attempted']} items failed")
    for failure in result["failures"][:20]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(wl.WORKLOADS) + sorted(wl.SMOKE_WORKLOADS))
    target.add_argument("--all", action="store_true", help="run the four benchmark workloads")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (wl.SRC / "orthodontia" / "cli.py").is_file():
        print(f"error: no program at {wl.SRC / 'orthodontia'}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    reference = wl.load_reference()
    specs = ([(name, unit) for name, unit, _ in tracer.metric_specs()] if args.trace
             else list(END_TO_END))
    workload = {**wl.WORKLOADS, **wl.SMOKE_WORKLOADS}[args.workload]

    machine = machine_record(wl.ROOT)
    machine["loadavg_before"] = os.getloadavg()
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), reference)
    except (RuntimeError, OSError) as exc:
        print(f"error: {workload.name}: {exc}", file=sys.stderr)
        return 2
    machine["loadavg_after"] = os.getloadavg()

    print("machine " + json.dumps(machine, sort_keys=True))
    print_report(result, specs)
    print(json.dumps(result_line(result, specs)))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process of its own.

    A child's peak RSS includes the peak RSS of the process that started
    it (Linux records it at exec), so one workload's checks must not
    raise the readings of the next.
    """
    lines = {}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            return proc.returncode
        *report, last = proc.stdout.strip().splitlines()
        print("\n".join(report), flush=True)
        lines[name] = json.loads(last)
    print(json.dumps(lines))
    return 0

if __name__ == "__main__":
    sys.exit(main())
