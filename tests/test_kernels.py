"""The st and pqsym product kernels build each product from a plain
{word: exponent} dict per kind, with no monomial summing; the brute-force
scans still file q-monomials.  Both routes must give the same Elements at
every q, and the plain-dict coproducts must match their definitions."""

from __future__ import annotations

import pytest

import qtridend
from qtridend import pqsym, st
from qtridend.linear import KINDS, MIDDLE, STAR, Element
from reference import pf_coproduct_reference, st_coproduct_reference

MODULES = {"st": st, "pqsym": pqsym}
COPRODUCT_REFERENCES = {"st": st_coproduct_reference, "pqsym": pf_coproduct_reference}


@pytest.mark.parametrize("name", MODULES)
@pytest.mark.parametrize("qval", [None, 0, 1, -1, 5])
def test_plain_dict_products_equal_the_summed_scan(name, qval):
    h = MODULES[name]
    qtridend.clear_caches()
    for total in range(2, 6):
        for (f, g), monos in h.scan(total).items():
            got = h._pair_cache[f, g, qval]
            for kind in (*KINDS, STAR):
                want = Element.from_monomials(name, monos[kind], qval)
                assert got[kind] == want, (f, g, kind)
                # zero-free, which at q = 0 drops every term of positive exponent
                assert all(got[kind].terms.values()) and not got[kind].unit
            if qval == 0:
                # the middle product is weighted by q^(overlap - 1): at q = 0
                # it keeps exactly the words whose two halves share one value
                middle = {w for w, e in monos[MIDDLE] if e == 0}
                assert set(got[MIDDLE].terms) == middle


@pytest.mark.parametrize("name", MODULES)
def test_plain_dict_coproducts_equal_the_definition(name):
    h = MODULES[name]
    qtridend.clear_caches()
    for n in range(1, 6):
        for f in h.basis(n):
            assert h.coproduct(f) == COPRODUCT_REFERENCES[name](f), f
            assert set(h.coproduct(f).terms.values()) == {1}
