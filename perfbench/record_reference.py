#!/usr/bin/env python3
"""Record the sha256 of the CLI's stdout for every invocation of every workload.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json.  The digests are the benchmark's notion
of a correct output, so they are recorded once from a trusted commit and
re-recorded only by a change that alters the program's output on purpose.
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads as wl


def main() -> int:
    wl.WORK.mkdir(exist_ok=True)
    out, err = wl.WORK / "record.out", wl.WORK / "record.err"
    digests: dict[str, str] = {}
    for workload in [*wl.WORKLOADS.values(), *wl.SMOKE_WORKLOADS.values()]:
        for invocation in workload.unit(seed=0):
            if invocation.key in digests:
                continue
            child = wl.run_child(wl.cli_argv(invocation.args, None, 0), out, err, 600.0)
            if child.returncode != 0:
                print(f"{invocation.key}: exit {child.returncode}", file=sys.stderr)
                return 1
            digests[invocation.key] = wl.file_sha256(out)
            print(f"{invocation.key}: {digests[invocation.key]} ({child.wall:.2f} s)", flush=True)
    out.unlink()
    err.unlink()
    commit = subprocess.run(["git", "-C", str(wl.ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False).stdout.strip()
    wl.REFERENCE.write_text(json.dumps({"recorded_at_commit": commit, "sha256": digests},
                                       indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
