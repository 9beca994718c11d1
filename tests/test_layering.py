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


# Elements, tensors and QPolys are shared once built: the module caches and
# the lone-basis shortcuts hand them out without a copy.  So only their
# constructors may write the fields that hold their content.
SHARED_FIELDS = {"terms", "unit", "m"}
DICT_MUTATORS = {"update", "pop", "popitem", "clear", "setdefault", "__setitem__", "__delitem__"}
CONSTRUCTORS = {
    ("linear.py", "__init__"),
    ("linear.py", "_element"),
    ("linear.py", "_tensor"),
    ("qpoly.py", "__init__"),
    ("qpoly.py", "_adopt"),
}


def _written(node) -> list:
    """The expressions that node assigns into, deletes or mutates in place."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in DICT_MUTATORS
    ):
        targets = [node.func.value]
    else:
        return []
    out = []
    while targets:
        t = targets.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            targets.extend(t.elts)
        elif isinstance(t, ast.Starred):
            targets.append(t.value)
        else:
            out.append(t)
    return out


def _is_shared_field(t) -> bool:
    if isinstance(t, ast.Subscript):
        t = t.value
    return isinstance(t, ast.Attribute) and t.attr in SHARED_FIELDS


def test_only_the_constructors_write_shared_fields():
    writers = []

    def visit(name, node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (name, func) not in CONSTRUCTORS and any(map(_is_shared_field, _written(node))):
            writers.append(f"{name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(name, child, func)

    for path in sorted(Path(qtridend.__file__).parent.glob("*.py")):
        visit(path.name, ast.parse(path.read_text()), None)
    assert writers == []
