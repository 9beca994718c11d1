"""The coefficient format (a QPoly's exponent dict `m`, and the canonical
int-or-QPoly form) is known to two modules only: `qpoly` defines it and
`linear` accumulates into it.  Every other module goes through QPoly
methods, the ring-neutral `evaluate` and `to_pairs`, and the constructors
of `linear`."""

from __future__ import annotations

import ast
from pathlib import Path

import qtridend

FORMAT_OWNERS = {"qpoly.py", "linear.py"}
# The in-place accumulators, the dict adopter, the normalizer of raw sums
# and the raw view of an int-or-QPoly coefficient.
RAW_HELPERS = {"acc_add", "acc_mul_add", "_adopt", "_canon", "_raw"}


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
        and RAW_HELPERS & {a.name for a in node.names}
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
