"""Run the examples in the library's docstrings and in README.md with the
standard library's doctest alone, so any Python can check them:

    PYTHONPATH=src python tests/run_examples.py

It prints each failure and exits 1 if any example fails.
``test_doctests.py`` runs the same examples under pytest.
"""

from __future__ import annotations

import doctest
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import orthodontia

MODULES = ["orthodontia"] + sorted(
    f"orthodontia.{info.name}" for info in pkgutil.iter_modules(orthodontia.__path__)
)


def run_module(name: str) -> doctest.TestResults:
    return doctest.testmod(importlib.import_module(name))


def run_readme() -> doctest.TestResults:
    # the ```python blocks, run in order with shared names; read as one
    # file, each closing fence would count as expected output
    path = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", path.read_text(encoding="utf-8"), re.M | re.S)
    test = doctest.DocTestParser().get_doctest("\n".join(blocks), {}, "README.md", str(path), 0)
    return doctest.DocTestRunner(optionflags=doctest.ELLIPSIS).run(test)


if __name__ == "__main__":
    results = [run_module(name) for name in MODULES] + [run_readme()]
    failed, attempted = sum(r.failed for r in results), sum(r.attempted for r in results)
    print(f"{attempted} examples, {failed} failed")
    sys.exit(1 if failed or not attempted else 0)
