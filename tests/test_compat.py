"""The compatibility of the coproduct with the three partial products.

`compat_holds` sums Delta(x o y) - compat_rhs(h, o, x, y) for the three
kinds at once; it must agree with building both sides and comparing them,
also under a fault planted in one coproduct, and a fault planted in one
product must show at exactly its kind."""

from __future__ import annotations

import pytest

from qtridend import st
from qtridend.algebras import (
    ALGEBRA_NAMES,
    compat_holds,
    compat_rhs,
    el_coproduct,
    el_product,
    get_algebra,
)
from qtridend.linear import KINDS, MIDDLE, Element, Tensor2
from qtridend.verify import _tuples, verify_bialgebra


def _pairs(h, budget: int):
    return _tuples(h.basis, budget, 2)


def _compared(h, x, y, qval) -> list:
    ex, ey = Element.basis(h.name, x), Element.basis(h.name, y)
    return [
        el_coproduct(h, el_product(h, kind, ex, ey, qval), qval)
        == compat_rhs(h, kind, x, y, qval)
        for kind in KINDS
    ]


@pytest.mark.parametrize("qval", (None, 0, 1))
@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_compat_holds_equals_the_two_sided_comparison(name, qval):
    h = get_algebra(name)
    for x, y in _pairs(h, 4):
        assert list(compat_holds(h, x, y, qval)) == _compared(h, x, y, qval), (x, y)


def test_a_planted_fault_fails_exactly_its_kind(monkeypatch):
    # the extra term (1,2,1) has a nonzero reduced coproduct, so Delta of
    # the faulty product differs from the right-hand side, which only sees
    # the fault through its boundary terms
    fast_product = st.product
    x, y = (1, 2), (1,)

    def wrong_product(kind, f, g, qval=None):
        out = fast_product(kind, f, g, qval)
        if kind == MIDDLE and (f, g) == (x, y):
            out = out + Element.basis("st", (1, 2, 1))
        return out

    monkeypatch.setattr(st, "product", wrong_product)
    for qval in (None, 1):
        for f, g in _pairs(st, 3):
            holds = compat_holds(st, f, g, qval)
            assert list(holds) == _compared(st, f, g, qval), (f, g)
            assert holds == tuple(kind != MIDDLE or (f, g) != (x, y) for kind in KINDS)
    report = verify_bialgebra("st", 3, 1)
    assert report["failures"] == ["Delta(x middle y) mismatch at x=(1,2) y=(1)"]
    assert not report["ok"]


def test_a_planted_coproduct_fault_agrees_with_the_two_sided_comparison(monkeypatch):
    # one interior cut of Delta(1,2,3) is dropped in the cache, so both
    # Delta(x o y) and the legs of the right-hand side read the fault
    leg = (1, 2, 3)
    bad = Tensor2("st", {k: c for k, c in st.coproduct(leg).terms.items() if k != ((1,), (1, 2))})
    monkeypatch.setitem(st._cop_cache, leg, bad)
    failing = 0
    for qval in (None, 1):
        for f, g in _pairs(st, 4):
            holds = compat_holds(st, f, g, qval)
            assert list(holds) == _compared(st, f, g, qval), (f, g)
            failing += not all(holds)
    assert failing
