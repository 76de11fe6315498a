"""The public surface holds only names the library itself uses.

Every name in ``orthodontia.__all__`` must be read, as an ``ast.Name`` or
an ``ast.Attribute``, by some module of the package other than
``__init__``, or sit in ``EXEMPT`` with the reason it is public anyway.
A text search would not do: docstrings and README prose mention names
they do not use.  A proof tool that only tests need belongs in
``tests/oracles.py``, which takes nothing from the library but the
polynomial type it compares.
"""

from __future__ import annotations

import ast
from pathlib import Path

import orthodontia

PACKAGE = Path(orthodontia.__file__).parent
ORACLES = Path(__file__).with_name("oracles.py")

EXEMPT = {
    "identity": "basic API: the identity of S_n",
    "longest_element": "basic API: the longest element of S_n",
    "symmetric_group": "basic API: all of S_n in a fixed order",
    "sigma": "basic API: the pattern that the sorting lemmas project to",
    "sort_permutation": "waits for a verify sweep of the sorting lemmas (ROADMAP item 9)",
    "unsort_factor": "waits for a verify sweep of the sorting lemmas (ROADMAP item 9)",
    "exponent_change_check": "waits for a verify sweep of the sorting lemmas (ROADMAP item 9)",
    "sort_columns": "waits for the ascending formulas beyond Rothe diagrams (ROADMAP item 5)",
}


def _names_read(path: Path) -> set[str]:
    reads = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    return reads


def test_every_public_name_is_read_by_the_library():
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            read |= _names_read(path)
    public = set(orthodontia.__all__)
    assert sorted(public - read - EXEMPT.keys()) == []
    # an exemption goes once its name is used, or is no longer public
    assert sorted(EXEMPT.keys() - (public - read)) == []


def test_the_oracles_take_only_the_polynomial_types_from_the_library():
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "orthodontia" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "orthodontia":
            imported |= {alias.name for alias in node.names}
    assert imported == {"Monomial", "Polynomial"}
