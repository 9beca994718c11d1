"""Products and coproduct on surjective words.

The fast products are shuffle enumerations with merge weights; the oracle
recomputes them by filtering all words of the right length.  Worked values
are pinned as rendered strings and both routes are compared on small grids.
"""

from __future__ import annotations

import pytest

from qtridend.algebras import el_product, el_star, get_algebra
from qtridend.grammar import render_element, render_tensor2
from qtridend.linear import KINDS, LEFT, MIDDLE, RIGHT, STAR, UNIT, Element
from qtridend.qpoly import X
from qtridend.st import (
    _scan_words,
    st_basis,
    st_coproduct,
    st_degree,
    st_product,
    st_product_oracle,
    st_validate,
)

from qtridend.words import park, parking_functions, std, surjections
from reference import scan_words_reference, st_coproduct_reference

H = get_algebra("st")


def test_degree_one_products():
    assert render_element(st_product(LEFT, (1,), (1,))) == "(2,1)"
    assert render_element(st_product(MIDDLE, (1,), (1,))) == "(1,1)"
    assert render_element(st_product(RIGHT, (1,), (1,))) == "(1,2)"
    assert render_element(st_product(STAR, (1,), (1,))) == "q*(1,1) + (1,2) + (2,1)"


def test_worked_products():
    f, g = (1, 2, 1), (2, 1)
    assert render_element(st_product(LEFT, f, g)) == (
        "q*(1,3,1,2,1) + (1,4,1,3,2) + q*(2,3,2,2,1) + (2,4,2,3,1) + (3,4,3,2,1)"
    )
    assert render_element(st_product(MIDDLE, f, g)) == (
        "q*(1,2,1,2,1) + (1,3,1,3,2) + (2,3,2,3,1)"
    )
    assert render_element(st_product(RIGHT, f, g)) == (
        "q*(1,2,1,3,1) + q*(1,2,1,3,2) + (1,2,1,4,3) + (1,3,1,4,2) + (2,3,2,4,1)"
    )


def test_star_is_sum_of_kinds():
    for f in st_basis(2):
        for g in st_basis(2):
            expected = (
                st_product(LEFT, f, g)
                + st_product(MIDDLE, f, g).scale(X)
                + st_product(RIGHT, f, g)
            )
            assert expected == st_product(STAR, f, g)


def test_fast_equals_oracle_small():
    pairs = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]
    for qval in (None, 0, 1, 5):
        for n, m in pairs:
            for f in st_basis(n):
                for g in st_basis(m):
                    oracle = st_product_oracle(f, g, qval)
                    for kind in (*KINDS, STAR):
                        assert st_product(kind, f, g, qval) == oracle[kind]


def test_word_scan_equals_the_memo_free_scan():
    # the subword memo changes no bucket and no monomial order
    for enumerate_all, standardize in ((surjections, std), (parking_functions, park)):
        for total in range(2, 6):
            got = _scan_words(total, enumerate_all, standardize)
            want = scan_words_reference(total, enumerate_all, standardize)
            assert list(got) == list(want)
            assert got == want


def test_products_are_graded():
    for f in st_basis(2):
        for g in st_basis(2):
            for kind in KINDS:
                for w in st_product(kind, f, g).support():
                    assert st_degree(w) == 4
                    assert st_validate(w) == w


def test_kind_partition_is_disjoint():
    # a shuffle word lands in exactly one of the three kinds
    for f in st_basis(2):
        for g in st_basis(1):
            supports = [set(st_product(k, f, g).support()) for k in KINDS]
            assert not (supports[0] & supports[1])
            assert not (supports[0] & supports[2])
            assert not (supports[1] & supports[2])


def test_unit_conventions_element_level():
    x = Element.basis("st", (1, 2))
    one = Element.unit_element("st")
    assert el_product(H, RIGHT, one, x) == x
    assert el_product(H, LEFT, x, one) == x
    assert el_product(H, LEFT, one, x).is_zero()
    assert el_product(H, RIGHT, x, one).is_zero()
    assert el_product(H, MIDDLE, one, x).is_zero()
    assert el_star(H, one, x) == x
    assert el_star(H, x, one) == x
    with pytest.raises(ValueError):
        el_product(H, MIDDLE, one, one)


def test_small_coproducts():
    assert render_tensor2(st_coproduct((2, 1))) == "(1) # (1) + (2,1) # 1 + 1 # (2,1)"
    assert render_tensor2(st_coproduct((1, 2, 1))) == (
        "(1,1) # (1) + (1,2,1) # 1 + 1 # (1,2,1)"
    )


def test_worked_coproduct():
    f = (2, 1, 3, 5, 3, 4, 4, 1)
    assert render_tensor2(st_coproduct(f)) == (
        "(1,1) # (1,2,4,2,3,3) + (2,1,1) # (1,3,1,2,2) + (2,1,3,3,1) # (2,1,1)"
        " + (2,1,3,3,4,4,1) # (1) + (2,1,3,5,3,4,4,1) # 1 + 1 # (2,1,3,5,3,4,4,1)"
    )


def test_coproduct_legs_are_valid():
    for n in (1, 2, 3, 4):
        for f in st_basis(n):
            t = st_coproduct(f)
            for (l, r), c in t.terms.items():
                dl = 0 if l is UNIT else st_degree(st_validate(l))
                dr = 0 if r is UNIT else st_degree(st_validate(r))
                assert dl + dr == n
                assert c


def test_coproduct_equals_the_definition():
    # every surjection to degree 6, term order included
    for n in range(1, 7):
        for f in st_basis(n):
            want = st_coproduct_reference(f)
            assert list(st_coproduct(f).terms.items()) == list(want.terms.items()), f


def test_coassociativity_degree_three():
    from qtridend.linear import tensor_flatten

    def cop(obj):
        return st_coproduct(obj)

    for f in st_basis(3):
        t = st_coproduct(f)
        assert tensor_flatten(t, "left", cop) == tensor_flatten(t, "right", cop)


def test_validate_errors():
    with pytest.raises(ValueError):
        st_validate((1, 3))
    with pytest.raises(ValueError):
        st_validate((0, 1))
