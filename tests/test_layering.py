"""The coefficient format (an int that encodes a polynomial by its value at
q = X, its base-X digits, and a QPoly's exponent dict `m`) is known to two
modules only: `qpoly` defines it and `linear` files q-powers into it.
Every other module goes through `q_scalar`, `q_power`, `decode`, the
ring-neutral `evaluate` and `to_pairs`, and the constructors of
`linear`."""

from __future__ import annotations

import ast
from pathlib import Path

import qtridend
from qtridend.qpoly import QPoly

FORMAT_OWNERS = {"qpoly.py", "linear.py"}
# The digit width and mask of the encoding and the tables of powers.
RAW_HELPERS = {"K", "MASK", "X_POWERS", "_Powers"}


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


def test_only_qpoly_names_the_decoded_view():
    namers = [
        f"{name}:{type(node).__name__}"
        for name, node in _nodes_outside({"qpoly.py"})
        if (isinstance(node, ast.Name) and node.id == "QPoly")
        or (isinstance(node, ast.Attribute) and node.attr == "QPoly")
        or (isinstance(node, ast.alias) and node.name == "QPoly")
        or (isinstance(node, ast.Constant) and node.value == "QPoly")
    ]
    # the package's public re-export, whose import also names it in __all__
    assert namers == ["__init__.py:alias"]


# QPoly is the decoded view, not a second ring.  Besides what a class
# always has, it keeps what `decode`, `int()`, the zero filter, == and
# hash need, and the + and * that perfbench/tracer.py counts
# (COUNT_TARGETS) and whose __rmul__ its self-test checks is __mul__.
QPOLY_MEMBERS = {
    "__init__", "__index__", "__bool__", "__eq__", "__hash__", "__repr__",
    "__add__", "__mul__", "__rmul__", "__slots__", "m",
}


def test_qpoly_keeps_only_the_decoded_view():
    assert set(vars(QPoly)) - {"__module__", "__doc__"} == QPOLY_MEMBERS


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


# Memos are `qtridend.memo.Memo`s, which register themselves for
# `clear_caches`; a hand-written memo would escape that registry.  The
# shared powers X^e are exempt: a table bounded by the largest degree in
# use, not a memo of a computation.
INTERN_TABLES = {("qpoly.py", "X_POWERS")}


def _memo_writes(path: Path) -> list:
    """Lines that bind a *_cache name to a dict literal, and functions that
    look a key up in a module-level dict with .get(key) and store under that
    same key."""
    tree = ast.parse(path.read_text())
    module_names = {
        t.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(t, ast.Name) and (path.name, t.id) not in INTERN_TABLES
    }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            literal = isinstance(node.value, (ast.Dict, ast.DictComp)) or (
                isinstance(node.value, ast.Call) and getattr(node.value.func, "id", "") == "dict"
            )
            if literal and any(isinstance(t, ast.Name) and t.id.endswith("_cache") for t in targets):
                out.append(f"{path.name}:{node.lineno}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            gets = {
                (c.func.value.id, ast.dump(c.args[0]))
                for c in ast.walk(node)
                if isinstance(c, ast.Call)
                and isinstance(c.func, ast.Attribute)
                and c.func.attr == "get"
                and isinstance(c.func.value, ast.Name)
                and c.func.value.id in module_names
                and len(c.args) == 1
            }
            stores = {
                (t.value.id, ast.dump(t.slice))
                for a in ast.walk(node)
                if isinstance(a, ast.Assign)
                for t in a.targets
                if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name)
            }
            if gets & stores:
                out.append(f"{path.name}:{node.lineno}")
    return out


def test_no_hand_written_memos_outside_memo_py():
    package = Path(qtridend.__file__).parent
    found = [w for p in sorted(package.glob("*.py")) if p.name != "memo.py" for w in _memo_writes(p)]
    assert found == []
