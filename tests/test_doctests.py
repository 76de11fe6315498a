"""Run the examples in the library's docstrings."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import orthodontia

MODULES = ["orthodontia"] + sorted(
    f"orthodontia.{info.name}" for info in pkgutil.iter_modules(orthodontia.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, result
