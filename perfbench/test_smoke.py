"""Smoke test of the benchmark at toy sizes (S_4 verify, S_5 compute).

    python3 -m pytest perfbench/test_smoke.py

It lies outside the repository's test paths, so the tier-1 suite does
not run it.  Each case runs perfbench/run.py as a user would.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def declared() -> dict:
    return json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_code():
    spec = declared()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(wl.SMOKE_WORKLOADS))
def test_end_to_end_metrics(workload):
    result, _ = bench("--workload", workload, "--seconds", "1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(wl.SMOKE_WORKLOADS))
def test_traced_run(workload):
    # a traced output that differs from the untraced one fails the run
    result, _ = bench("--workload", workload, "--seconds", "1", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    units = {name: unit for name, unit, _ in tracer.metric_specs()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["cli.self_s"] > 0 and values["trace.overhead_ratio"] > 0
    assert values["trace.unaccounted_s"] >= 0


def test_corrupted_reference_digest_fails_items(capsys):
    reference = dict(wl.load_reference())
    reference["verify 4 sorted"] = "0" * 64
    result = run.run_workload(wl.SMOKE_WORKLOADS["smoke-sorted-s4"], 7, 1, False, reference)
    line = run.result_line(result, list(run.END_TO_END))
    assert not line["correct"]
    assert line["failed"] == line["attempted"] > 0
    run.print_report(result, list(run.END_TO_END))
    ratio_line = next(l for l in capsys.readouterr().out.splitlines() if "failed_ratio" in l)
    assert float(ratio_line.split()[1]) == 1.0


def test_failed_traced_child_is_counted_not_dropped(monkeypatch):
    # the traced children die before writing any spans
    untraced_argv = wl.cli_argv
    monkeypatch.setattr(wl, "cli_argv", lambda args, trace_to, request: (
        untraced_argv(args, trace_to, request) if trace_to is None
        else [sys.executable, "-c", "import os; os._exit(3)"]))
    workload = wl.SMOKE_WORKLOADS["smoke-sorted-s4"]
    result = run.run_workload(workload, 7, 1, True, wl.load_reference())
    line = run.result_line(result, [(name, unit) for name, unit, _ in tracer.metric_specs()])
    assert not line["correct"] and line["metrics"] == {}
    assert line["failed"] == workload.unit(7)[0].items < line["attempted"]


def test_top_level_spans_account_for_the_traced_wall():
    trace_dir = wl.WORK / "smoke-spans"
    trace_dir.mkdir(parents=True, exist_ok=True)
    workload = wl.SMOKE_WORKLOADS["smoke-verify-s4-cold"]
    runner = wl.Run(float("inf"), wl.load_reference())
    first = runner.invocations
    outcomes = runner.run_unit(workload, 7, trace_dir)
    assert not any(o.failures for o in outcomes)
    paths = [trace_dir / f"spans-{first + k}" for k in range(len(outcomes))]
    values, _ = tracer.per_layer_metrics(paths, [o.child for o in outcomes], 1.0,
                                         sum(o.records for o in outcomes))
    requests = set()
    for path in paths:
        requests.update(tracer.read_spans(path)[1][2])
        Path(str(path) + ".json").unlink()
        Path(str(path) + ".bin").unlink()
    # set-up, exit and the top-level spans leave only the tracer's installation
    assert 0 <= values["trace.unaccounted_s"] < 0.01 * len(outcomes)
    assert len(requests) == 1 + 24   # the invocation and one task per permutation
    assert values["cli.records_computed"] == 24 * len(wl.ALL_SUITES)
    assert values["cli.records_cached"] == 0


def test_child_timeout_kills_and_flags(tmp_path):
    child = wl.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                         tmp_path / "out", tmp_path / "err", timeout=0.3)
    assert child.timed_out and child.returncode < 0 and child.wall < 10


def test_tail_latency_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    assert run.tail_latency(samples) == (30.0, 75.0)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_output_checks_do_not_use_the_program():
    total, lowest = wl.summarize_grothendieck_text("x1*x2 + x1^2 - x1^2*x2 - 3*x3^3 + 3*x3^4")
    assert total == 1 and lowest == {"x1*x2": 1, "x1^2": 1}
    assert wl.check_grothendieck_total(total) == []
    assert wl.check_grothendieck_total(wl.summarize_grothendieck_text("-x1 + 2")[0]) == []
    assert wl.check_grothendieck_total(wl.summarize_grothendieck_text("x1 + x2")[0]) != []
    assert wl.check_schubert_text("x1*x2 + x1^2", lowest) == []
    assert wl.check_schubert_text("x1*x2", lowest) != []
