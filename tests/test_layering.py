"""The coefficient format (a QPoly's exponent dict `m`) is known to two
modules only: `qpoly` defines it and `linear` accumulates into it.  Every
other module goes through QPoly methods and the accumulators of `linear`."""

from __future__ import annotations

import ast
from pathlib import Path

import qtridend

FORMAT_OWNERS = {"qpoly.py", "linear.py"}


def test_only_qpoly_and_linear_read_the_exponent_dict():
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(qtridend.__file__).parent.glob("*.py"))
        if path.name not in FORMAT_OWNERS
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "m"
    ]
    assert readers == []
