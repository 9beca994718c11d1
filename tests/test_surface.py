"""Every family module is its own algebra handle: `get_algebra` returns the
module, and each surface name is an alias of the module's own function.
The perfbench tracer rebinds every module attribute that is a function it
wraps, so an alias is traced together with the prefixed name.  The
package's export list is pinned here too, against its own source and
against what the benchmark scripts read from it."""

from __future__ import annotations

import ast
import pkgutil
from pathlib import Path
from types import ModuleType

import pytest

import qtridend
from qtridend import mperm, pqsym, st, trees
from qtridend.algebras import ALGEBRA_NAMES, AlgebraHandle, get_algebra

SURFACE = set(AlgebraHandle.__annotations__) | {
    k for k, v in vars(AlgebraHandle).items() if callable(v) and not k.startswith("_")
}
PREFIXED = {st: "st_", pqsym: "pf_", trees: "tree_", mperm: "mperm_"}


def test_the_protocol_names_the_whole_surface():
    assert SURFACE == {
        "name", "graded", "scan", "basis", "degree", "validate", "product", "coproduct"
    }


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_get_algebra_returns_the_family_module(name):
    h = get_algebra(name)
    assert h in PREFIXED
    assert h.name == name == h.FAMILY
    assert all(hasattr(h, attr) for attr in SURFACE)
    for attr in ("basis", "degree", "validate", "product", "coproduct"):
        assert getattr(h, attr) is getattr(h, PREFIXED[h] + attr), attr


def test_scans_and_grading():
    assert st.scan is not None and pqsym.scan is not None
    assert mperm.scan is mperm._scan_mperms
    assert trees.scan is None
    assert [get_algebra(n).graded for n in ALGEBRA_NAMES] == [True, True, True, False]


def test_q_free_coproducts_accept_and_ignore_qval():
    for h, x in ((st, (1, 2, 1)), (pqsym, (1, 1, 3)), (mperm, mperm.phi((2, 1, 2)))):
        assert h.coproduct(x, 5) is h.coproduct(x) is h.coproduct(x, None)


def test_the_protocol_cannot_be_constructed_and_unknown_names_are_refused():
    with pytest.raises(TypeError):
        AlgebraHandle()
    with pytest.raises(ValueError, match="unknown algebra 'nosuch'"):
        get_algebra("nosuch")


def test_the_package_exports_what_its_imports_bind():
    # __all__ is derived from the package's globals; its source, not a
    # copied list, says what it must hold
    tree = ast.parse(Path(qtridend.__file__).read_text())
    bound = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    } | {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    public = {name for name in bound if not name.startswith("_")}
    assert len(public) == 80
    assert sorted(qtridend.__all__) == sorted(public)
    namespace: dict = {}
    exec("from qtridend import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == public
    assert not any(isinstance(v, ModuleType) for v in namespace.values())


def test_the_benchmark_reads_only_exports_and_submodules():
    # the perfbench scripts reach the package as `qt`; a name they read that
    # leaves __all__ would break a benchmark pass, not a test
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    read = set()
    for script in ("workloads.py", "worker.py", "pin_session.py"):
        tree = ast.parse((perfbench / script).read_text())
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "qt"
        }
    submodules = {m.name for m in pkgutil.iter_modules(qtridend.__path__)}
    assert {"get_algebra", "parse_element", "primitive_rank", "verify"} <= read
    assert read - {"__file__"} - submodules <= set(qtridend.__all__)
