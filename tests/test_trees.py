from __future__ import annotations

import pytest

from qtridend.grammar import render_element, render_tensor2
from qtridend.linear import KINDS, LEFT, MIDDLE, RIGHT, STAR, UNIT, tensor_flatten
from qtridend.qpoly import X
from qtridend.trees import (
    LEAF,
    _compositions,
    corolla,
    enumerate_trees,
    graft,
    is_tree,
    leaves,
    tree_basis,
    tree_coproduct,
    tree_degree,
    tree_product,
    tree_validate,
)

Y = corolla(1)


def test_tree_shape_helpers():
    assert is_tree(LEAF)
    assert is_tree(Y)
    assert not is_tree((LEAF,))
    assert not is_tree("x")
    assert graft(Y, LEAF) == (Y, LEAF)
    with pytest.raises(ValueError):
        graft(Y)
    assert leaves(LEAF) == 1
    assert leaves(corolla(3)) == 4
    assert tree_degree(corolla(3)) == 3
    with pytest.raises(ValueError):
        corolla(0)


def test_enumeration():
    assert [len(enumerate_trees(n)) for n in range(0, 6)] == [1, 1, 3, 11, 45, 197]
    assert tree_basis(2) == enumerate_trees(2)
    # the child degrees of a root with r subtrees, in lex order
    assert list(_compositions(2, 3)) == [
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)
    ]
    for n in (1, 2, 3, 4):
        ts = enumerate_trees(n)
        assert len(set(ts)) == len(ts)
        for t in ts:
            assert is_tree(t)
            assert tree_degree(t) == n


def test_degree_one_products():
    assert tree_product(RIGHT, Y, Y).support() == {graft(Y, LEAF)}
    assert tree_product(LEFT, Y, Y).support() == {graft(LEAF, Y)}
    assert tree_product(MIDDLE, Y, Y).support() == {corolla(2)}
    assert render_element(tree_product(STAR, Y, Y)) == (
        "V(V(|,|),|) + V(|,V(|,|)) + q*V(|,|,|)"
    )


def test_star_is_sum_of_kinds():
    for t in tree_basis(2):
        for w in tree_basis(1):
            expected = (
                tree_product(LEFT, t, w)
                + tree_product(MIDDLE, t, w).scale(X)
                + tree_product(RIGHT, t, w)
            )
            assert expected == tree_product(STAR, t, w)


def test_products_are_graded():
    for t in tree_basis(2):
        for w in tree_basis(2):
            for kind in KINDS:
                el = tree_product(kind, t, w)
                assert not el.is_zero()
                for u in el.support():
                    assert tree_degree(u) == 4
                    assert tree_validate(u) == u


def test_corollas_are_primitive():
    for n in (1, 2, 3, 4):
        c = corolla(n)
        t = tree_coproduct(c)
        assert t.interior().is_zero()
        assert set(t.terms) == {(c, UNIT), (UNIT, c)}


def test_small_coproducts():
    assert render_tensor2(tree_coproduct(Y)) == "1 # V(|,|) + V(|,|) # 1"
    left_comb = graft(Y, LEAF)
    t = tree_coproduct(left_comb)
    inner = t.interior()
    assert not inner.is_zero()
    for (l, r), _ in inner.terms.items():
        assert tree_degree(l) + tree_degree(r) == 2


def test_coassociativity_degree_three():
    def cop(obj):
        return tree_coproduct(obj)

    for t in tree_basis(3):
        d = tree_coproduct(t)
        assert tensor_flatten(d, "left", cop) == tensor_flatten(d, "right", cop)


def test_coproduct_grading():
    for n in (1, 2, 3):
        for t in tree_basis(n):
            for (l, r), c in tree_coproduct(t).terms.items():
                dl = 0 if l is UNIT else tree_degree(l)
                dr = 0 if r is UNIT else tree_degree(r)
                assert dl + dr == n
                assert c


def test_validate_errors():
    with pytest.raises(ValueError):
        tree_validate((LEAF,))
    with pytest.raises(ValueError):
        tree_validate([LEAF, LEAF])
