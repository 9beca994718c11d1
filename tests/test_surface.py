"""Every family module is its own algebra handle: `get_algebra` returns the
module, and each surface name is an alias of the module's own function.
The perfbench tracer rebinds every module attribute that is a function it
wraps, so an alias is traced together with the prefixed name."""

from __future__ import annotations

import pytest

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
