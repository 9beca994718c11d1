"""Every product kernel and brute-force scan hands its result over as
{kind: {obj: exponent}}, which `kind_products` weighs with no sum.  That
is sound only because each route reaches an output object of one pair
and kind once.  The test-side references file q-monomial lists instead,
summed here through `Element.sum`: their lists must hold distinct
objects, the package's scans must hold exactly their exponents, the
kernels must equal their sums at every q, and the plain-dict coproducts
must match their definitions."""

from __future__ import annotations

import pytest

import qtridend
from qtridend import mperm, pqsym, st
from qtridend.linear import KINDS, MIDDLE, STAR, Element
from qtridend.qpoly import q_power
from qtridend.words import park, parking_functions, std, surjections
from reference import (
    exponent_dicts,
    mperm_route_reference,
    pf_coproduct_reference,
    scan_mperms_reference,
    scan_words_reference,
    st_coproduct_reference,
)

MODULES = {"st": st, "pqsym": pqsym, "mperm": mperm}
COPRODUCT_REFERENCES = {"st": st_coproduct_reference, "pqsym": pf_coproduct_reference}
SCANNED = {"st": (surjections, std), "pqsym": (parking_functions, park)}


def _summed(family: str, monomials, qval) -> Element:
    """The sum of q^e * obj over the monomials (obj, e) of a list."""
    return Element.sum(family, ((Element.basis(family, o), q_power(e, qval)) for o, e in monomials))


def _scan_reference(name: str, total: int) -> dict:
    if name == "mperm":
        return scan_mperms_reference(total)
    return scan_words_reference(total, *SCANNED[name])


def _route_references(name: str, total: int):
    """(pair, monomial lists) for every basis pair of the given total:
    the word scan for st and pqsym, mperm's value-set route per pair."""
    if name != "mperm":
        yield from _scan_reference(name, total).items()
        return
    for n in range(1, total):
        for B in mperm.basis(n):
            for D in mperm.basis(total - n):
                yield (B, D), mperm_route_reference(B, D)


def _assert_distinct(pair, monomials) -> None:
    for kind, ms in monomials.items():
        objs = [o for o, _ in ms]
        assert len(set(objs)) == len(objs), (pair, kind)


@pytest.mark.parametrize("name", MODULES)
def test_each_scan_files_an_object_once_per_pair_and_kind(name):
    # the reference scan's lists hold distinct objects, and the package's
    # scan holds exactly their exponents, bucket for bucket
    for total in range(2, 7):
        want = _scan_reference(name, total)
        got = MODULES[name].scan(total)
        assert got.keys() == want.keys(), total
        for pair, monomials in want.items():
            _assert_distinct(pair, monomials)
            assert got[pair] == exponent_dicts(monomials), pair


def test_the_mperm_route_files_a_multipermutation_once_per_pair_and_kind():
    for total in range(2, 7):
        for pair, monomials in _route_references("mperm", total):
            _assert_distinct(pair, monomials)


@pytest.mark.parametrize("name", MODULES)
@pytest.mark.parametrize("qval", [None, 0, 1, -1, 5])
def test_plain_dict_products_equal_the_summed_scan(name, qval):
    h = MODULES[name]
    qtridend.clear_caches()
    for total in range(2, 6):
        for (f, g), monos in _route_references(name, total):
            got = h._pair_cache[f, g, qval]
            for kind in (*KINDS, STAR):
                assert got[kind] == _summed(name, monos[kind], qval), (f, g, kind)
                # zero-free, which at q = 0 drops every term of positive exponent
                assert all(got[kind].terms.values()) and not got[kind].unit
            if qval == 0:
                # the middle product is weighted by q^(overlap - 1): at q = 0
                # it keeps exactly the objects whose two halves share one value
                middle = {w for w, e in monos[MIDDLE] if e == 0}
                assert set(got[MIDDLE].terms) == middle


@pytest.mark.parametrize("name", COPRODUCT_REFERENCES)
def test_plain_dict_coproducts_equal_the_definition(name):
    h = MODULES[name]
    qtridend.clear_caches()
    for n in range(1, 6):
        for f in h.basis(n):
            assert h.coproduct(f) == COPRODUCT_REFERENCES[name](f), f
            assert set(h.coproduct(f).terms.values()) == {1}
