"""Big multipermutations: ordered set partitions with no block holding two
consecutive integers, their delete-and-relabel retraction std_m, the three
products, the coproduct, and the quotient map phi from surjective words."""

from __future__ import annotations

import re
from itertools import combinations

import pytest

from qtridend.grammar import parse_mperm, render_element, render_tensor2
from qtridend.linear import KINDS, LEFT, MIDDLE, RIGHT, STAR, Element, kind_products
from qtridend.mperm import (
    _scan_mperms,
    block_word,
    is_mperm,
    lift_word,
    mperm_coproduct,
    mperm_product,
    mperm_product_oracle,
    mperm_size,
    mperm_validate,
    mpermutations,
    mpermutations_filter,
    phi,
    phi_element,
    restrict_blocks,
    std_m,
)
from qtridend.st import st_product
from qtridend.words import surjections
from reference import mperm_coproduct_reference, std_m_sequential

fs = frozenset
ONE = (fs({1}),)


def _ordered_set_partitions(n: int):
    for u in surjections(n):
        yield tuple(
            fs(i + 1 for i, v in enumerate(u) if v == j)
            for j in range(1, max(u) + 1)
        )


def test_is_mperm():
    assert is_mperm(ONE)
    assert is_mperm((fs({1, 3}), fs({2})))
    assert not is_mperm((fs({1, 2}),))
    assert not is_mperm((fs({1}), fs({1, 3})))
    assert not is_mperm((fs({2}),))
    assert not is_mperm(())


def test_enumerators_agree():
    assert [len(mpermutations(n)) for n in range(1, 6)] == [1, 2, 8, 44, 308]
    for n in (1, 2, 3, 4):
        assert set(mpermutations(n)) == set(mpermutations_filter(n))
        assert len(set(mpermutations(n))) == len(mpermutations(n))


def test_std_m_golden():
    w = parse_mperm("[(1,6,7),(2,3),(5),(4)]")
    assert std_m(w) == parse_mperm("[(1,5),(2),(4),(3)]")


def test_std_m_is_retraction_and_confluent():
    for n in (1, 2, 3, 4):
        for w in _ordered_set_partitions(n):
            out = std_m(w)
            assert is_mperm(out)
            assert std_m(out) == out
            # one-collision-at-a-time deletion reaches the same fixpoint
            assert std_m_sequential(w) == out
            if is_mperm(w):
                assert out == w


def test_std_m_matches_sequential_deletion_on_every_support():
    # coproducts and restrict_blocks hand std_m supports with gaps
    seen = 0
    for k in range(1, 7):
        for w in _ordered_set_partitions(k):
            for support in combinations(range(1, 7), k):
                blocks = tuple(fs(support[v - 1] for v in b) for b in w)
                assert std_m(blocks) == std_m_sequential(blocks), blocks
                seen += 1
    assert seen == 9365  # sum over k of C(6, k) times the Fubini number of k


@pytest.mark.parametrize(
    "blocks, message",
    [
        ((), "std_m needs a sequence of non-empty blocks"),
        ((fs({1}), fs()), "std_m needs a sequence of non-empty blocks"),
        ((fs({1, 3}), fs({3})), "blocks are not disjoint"),
    ],
)
def test_std_m_refusals(blocks, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        std_m(blocks)


def test_coproducts_match_the_sequential_reference():
    for n in range(1, 7):
        for w in mpermutations(n):
            assert mperm_coproduct(w) == mperm_coproduct_reference(w), w


def test_degree_one_products():
    assert render_element(mperm_product(RIGHT, ONE, ONE)) == "[(1),(2)]"
    assert render_element(mperm_product(MIDDLE, ONE, ONE)) == "[(1)]"
    assert render_element(mperm_product(LEFT, ONE, ONE)) == "[(2),(1)]"
    assert render_element(mperm_product(STAR, ONE, ONE)) == (
        "[(1),(2)] + q*[(1)] + [(2),(1)]"
    )


def test_middle_product_can_drop_size():
    # the quotient is filtered, not graded
    el = mperm_product(MIDDLE, ONE, ONE)
    (w,) = el.support()
    assert mperm_size(w) == 1


def _pairs(total: int):
    """Every pair (B, D) of multipermutations of the given total size."""
    for n in range(1, total):
        for B in mpermutations(n):
            for D in mpermutations(total - n):
                yield B, D


def test_fast_equals_oracle_small():
    # one past the plan's mperm_max = 5; each total reads one full scan
    for total in range(2, 7):
        scan = _scan_mperms(total)
        for B, D in _pairs(total):
            for qval in (None, 0, 1, 5):
                oracle = kind_products("mperm", scan[B, D], qval)
                for kind in (*KINDS, STAR):
                    assert mperm_product(kind, B, D, qval) == oracle[kind], (B, D, qval, kind)


def test_products_are_the_phi_image_of_st():
    # mperm is the quotient of ST(q) under phi, and block_word is a preimage
    images: dict = {}  # phi_element of each st word, built once

    def image(fg):
        for h in fg.terms:
            if h not in images:
                images[h] = phi_element(h)
        return Element.sum("mperm", ((images[h], c) for h, c in fg.terms.items()))

    for qval, max_total in ((None, 6), (0, 5), (1, 5), (5, 5)):
        for total in range(2, max_total + 1):
            for B, D in _pairs(total):
                f, g = block_word(B), block_word(D)
                for kind in (*KINDS, STAR):
                    got = mperm_product(kind, B, D, qval)
                    assert got == image(st_product(kind, f, g, qval)), (B, D, qval, kind)


def test_worked_star_product():
    B = parse_mperm("[(1,3),(2)]")
    D = parse_mperm("[(2),(1)]")
    got = mperm_product(STAR, B, D, 1)
    # computed from the defining sum and cross-checked against the
    # exhaustive oracle; 13 terms, each with coefficient 1
    expected = (
        "[(1,3),(2),(5),(4)] + [(1,3),(2,5),(4)] + [(1,3),(5),(2),(4)]"
        " + [(1,3),(5),(2,4)] + [(1,3),(5),(4),(2)] + [(1,3,5),(2),(4)]"
        " + [(1,3,5),(2,4)] + [(1,3,5),(4),(2)] + [(4),(1,3),(2)]"
        " + [(5),(1,3),(2),(4)] + [(5),(1,3),(2,4)] + [(5),(1,3),(4),(2)]"
        " + [(5),(4),(1,3),(2)]"
    )
    assert render_element(got) == expected
    assert got == mperm_product_oracle(B, D, 1)[STAR]
    assert len(got.support()) == 13
    for w in [parse_mperm("[(1,3),(5),(2,4)]"), parse_mperm("[(5),(1,3),(2,4)]")]:
        assert got.coeff(w) == 1
        # both restrictions certify membership in the defining sum
        assert restrict_blocks(w, range(1, 4)) == B
        assert std_m(restrict_blocks(w, {4, 5})) == std_m((fs({5}), fs({4})))


def test_worked_coproducts():
    cases = [
        ("[(1)]", "1 # [(1)] + [(1)] # 1"),
        ("[(2),(1)]", "1 # [(2),(1)] + [(1)] # [(1)] + [(2),(1)] # 1"),
        ("[(1,3),(2)]", "1 # [(1,3),(2)] + [(1)] # [(1)] + [(1,3),(2)] # 1"),
    ]
    for text, expected in cases:
        assert render_tensor2(mperm_coproduct(parse_mperm(text))) == expected


def test_coproduct_legs_are_mperms():
    from qtridend.linear import UNIT

    for n in (2, 3, 4):
        for w in mpermutations(n):
            for (l, r), c in mperm_coproduct(w).terms.items():
                if l is not UNIT:
                    assert is_mperm(l)
                if r is not UNIT:
                    assert is_mperm(r)
                assert c


def test_phi():
    assert phi((2, 3, 3, 6, 1, 5, 1, 2, 4)) == parse_mperm(
        "[(4,6),(1,7),(2),(8),(5),(3)]"
    )
    assert phi((2, 1, 2)) == parse_mperm("[(2),(1,3)]")
    assert phi_element((1,)).support() == {ONE}
    with pytest.raises(ValueError):
        phi((1, 3))


def test_phi_is_onto_small():
    # deletions can shrink the image, so phi covers every size <= n
    for n in (1, 2, 3):
        images = {phi(f) for f in surjections(n)}
        assert set(mpermutations(n)) <= images
        assert {w for w in images if mperm_size(w) == n} == set(mpermutations(n))


def test_lift_word():
    assert lift_word((1, 2, 2, 3, 1, 4), (4, 6, 7, 4, 9)) == (4, 6, 6, 7, 4, 9)
    assert lift_word((1, 1, 1), (5,)) == (5, 5, 5)
    with pytest.raises(ValueError):
        lift_word((1, 2, 2, 3, 1, 4), (4, 6, 7, 9, 4))


def test_restrict_blocks():
    w = parse_mperm("[(1,3),(2),(5),(4)]")
    assert restrict_blocks(w, {1, 2, 3}) == parse_mperm("[(1,3),(2)]")
    assert restrict_blocks(w, {4, 5}) == (fs({5}), fs({4}))
    assert restrict_blocks(w, ()) == ()


def test_validate_errors():
    with pytest.raises(ValueError):
        mperm_validate((fs({1, 2}),))
    with pytest.raises(ValueError):
        mperm_validate("x")
