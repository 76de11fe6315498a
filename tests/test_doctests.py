"""Run the examples in the library's docstrings and in README.md."""

from __future__ import annotations

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import orthodontia

MODULES = ["orthodontia"] + sorted(
    f"orthodontia.{info.name}" for info in pkgutil.iter_modules(orthodontia.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, result


def test_readme_examples_pass():
    # the ```python blocks, run in order with shared names; read as one
    # file, each closing fence would count as expected output
    path = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", path.read_text(encoding="utf-8"), re.M | re.S)
    test = doctest.DocTestParser().get_doctest("\n".join(blocks), {}, "README.md", str(path), 0)
    result = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS).run(test)
    assert result.attempted > 0 and result.failed == 0, result
