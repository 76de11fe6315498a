"""The public surface holds only names the library itself uses.

Every name in ``orthodontia.__all__`` must be read, as an ``ast.Name`` or
an ``ast.Attribute``, by some module of the package other than
``__init__``, or sit in ``EXEMPT`` with the reason it is public anyway.
The same holds for the members of each class among them: every name in
the class's ``vars`` that does not start with ``_`` and is not a
NamedTuple field must be read as an ``ast.Attribute`` by such a module,
or sit in ``EXEMPT_MEMBERS``, keyed ``"Class.member"``, with its reason.
A member rule that took bare names too would let ``Permutation.length``
pass on a local variable called ``length``, and since an attribute read
does not say whose member it reads, no two of those classes may define a
member of the same name, but for the rank ``n``.  Every public function
and class that a package module other than ``__init__`` defines outside
``__all__`` must be read the way a name in ``__all__`` is, or sit in
``EXEMPT_MODULE_NAMES``, keyed ``"module.name"``, with its reason.  A
text search would not do either: docstrings and README prose mention
names they do not use.  A proof tool that only tests need belongs in
``tests/oracles.py``, which takes nothing from the library but the
polynomial types it compares.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from collections import Counter
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


EXEMPT_MEMBERS = {
    "Permutation.inverse": "basic API: the group inverse",
    "Permutation.length": "basic API: the number of inversions, the degree of S_w",
    "Permutation.descents": "basic API: the positions of the descents",
    "Polynomial.coefficient": "basic API: one coefficient, looked up by its exponent vector",
    "Diagram.from_columns": "basic API: a diagram from its rows, checked; the way in for a non-Rothe diagram",
    "Diagram.columns": "basic API: the inverse of from_columns, shown in README's tour",
    "Diagram.boxes": "basic API: every box as a (row, column) pair",
}


EXEMPT_MODULE_NAMES = {
    "diagram.closure_monomial": (
        "basic API: the Diagram form of mask_closure, as orthodontia is of mask_orthodontia"
    ),
}


def _library_reads() -> tuple[set[str], set[str]]:
    # the bare names and the attribute names that the package's modules
    # other than __init__ read
    names, attributes = set(), set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names, attributes


def test_every_public_name_is_read_by_the_library():
    names, attributes = _library_reads()
    read = names | attributes
    public = set(orthodontia.__all__)
    assert sorted(public - read - EXEMPT.keys()) == []
    # an exemption goes once its name is used, or is no longer public
    assert sorted(EXEMPT.keys() - (public - read)) == []


def _public_members() -> set[str]:
    # "Class.member" for each public member of each class in __all__
    members = set()
    for name in orthodontia.__all__:
        cls = getattr(orthodontia, name)
        if isinstance(cls, type):
            fields = getattr(cls, "_fields", ())
            members |= {f"{name}.{m}" for m in vars(cls) if not m.startswith("_") and m not in fields}
    return members


def test_every_public_member_is_read_by_the_library():
    _, read = _library_reads()
    members = _public_members()
    unread = {member for member in members if member.partition(".")[2] not in read}
    assert sorted(unread - EXEMPT_MEMBERS.keys()) == []
    # an exemption goes once its member is read, or is gone
    assert sorted(EXEMPT_MEMBERS.keys() - unread) == []


def test_no_two_public_classes_share_a_member_name():
    # a read of one class's member would pass the other's unread one
    counts = Counter(member.partition(".")[2] for member in _public_members())
    assert sorted(name for name, count in counts.items() if count > 1 and name != "n") == []


def test_every_public_module_level_name_is_read_by_the_library():
    names, attributes = _library_reads()
    read = names | attributes
    defined = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"orthodontia.{path.stem}")
        defined |= {
            f"{path.stem}.{name}"
            for name, value in vars(module).items()
            if not name.startswith("_") and name not in orthodontia.__all__
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        }
    unread = {name for name in defined if name.partition(".")[2] not in read}
    assert sorted(unread - EXEMPT_MODULE_NAMES.keys()) == []
    # an exemption goes once its name is read, or is gone
    assert sorted(EXEMPT_MODULE_NAMES.keys() - unread) == []


def test_the_oracles_take_only_the_polynomial_types_from_the_library():
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "orthodontia" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "orthodontia":
            imported |= {alias.name for alias in node.names}
    assert imported == {"Monomial", "Polynomial"}
