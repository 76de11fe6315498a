"""Run the examples in the library's docstrings and in README.md."""

from __future__ import annotations

import pytest

from run_examples import MODULES, run_module, run_readme


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = run_module(name)
    assert result.failed == 0, result


def test_readme_examples_pass():
    result = run_readme()
    assert result.attempted > 0 and result.failed == 0, result
