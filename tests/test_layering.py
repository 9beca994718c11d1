"""The coefficient format (a QPoly's exponent dict `m`) is known to two
modules only: `qpoly` defines it and `linear` accumulates into it.  Every
other module goes through QPoly methods and the constructors of `linear`."""

from __future__ import annotations

import ast
from pathlib import Path

import qtridend

FORMAT_OWNERS = {"qpoly.py", "linear.py"}


def _nodes_outside(owners):
    for path in sorted(Path(qtridend.__file__).parent.glob("*.py")):
        if path.name not in owners:
            for node in ast.walk(ast.parse(path.read_text())):
                yield path.name, node


def test_only_qpoly_and_linear_read_the_exponent_dict():
    readers = [
        f"{name}:{node.lineno}"
        for name, node in _nodes_outside(FORMAT_OWNERS)
        if isinstance(node, ast.Attribute) and node.attr == "m"
    ]
    assert readers == []


def test_only_qpoly_and_linear_import_the_raw_accumulators():
    importers = [
        f"{name}:{node.lineno}"
        for name, node in _nodes_outside(FORMAT_OWNERS)
        if isinstance(node, ast.ImportFrom)
        and {"acc_add", "acc_mul_add"} & {a.name for a in node.names}
    ]
    assert importers == []


def test_only_linear_calls_from_raw():
    callers = [
        f"{name}:{node.lineno}"
        for name, node in _nodes_outside({"linear.py"})
        if (isinstance(node, ast.Attribute) and node.attr == "from_raw")
        or (isinstance(node, ast.Name) and node.id == "from_raw")
    ]
    assert callers == []
