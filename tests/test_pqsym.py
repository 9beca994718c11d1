"""Products, coproduct, and the two maps from surjective words into
parking functions."""

from __future__ import annotations

import pytest

from qtridend.grammar import render_element, render_tensor2
from qtridend.linear import KINDS, LEFT, MIDDLE, RIGHT, STAR, UNIT
from qtridend.pqsym import (
    alpha,
    iota,
    pf_basis,
    pf_coproduct,
    pf_degree,
    pf_product,
    pf_product_oracle,
    pf_validate,
    pirr_count,
)
from qtridend.words import is_parking, std, surjections


def test_degree_one_products():
    assert render_element(pf_product(LEFT, (1,), (1,))) == "(2,1)"
    assert render_element(pf_product(MIDDLE, (1,), (1,))) == "(1,1)"
    assert render_element(pf_product(RIGHT, (1,), (1,))) == "(1,2)"


def test_small_products():
    assert render_element(pf_product(LEFT, (1, 1), (1,))) == "(2,2,1)"
    assert render_element(pf_product(MIDDLE, (1, 1), (1,))) == "(1,1,1)"
    assert render_element(pf_product(RIGHT, (1, 1), (1,))) == "(1,1,2) + (1,1,3)"


def test_worked_products():
    f, g = (1, 3, 1), (1, 1)
    assert render_element(pf_product(RIGHT, f, g)) == "(1,3,1,4,4)"
    assert render_element(pf_product(MIDDLE, f, g)) == "(1,3,1,3,3)"
    # computed from the defining sum and cross-checked against the
    # exhaustive oracle; 11 terms
    assert render_element(pf_product(LEFT, f, g)) == (
        "q*(1,3,1,1,1) + (1,3,1,2,2) + q*(1,4,1,1,1) + (1,4,1,2,2) + (1,4,1,3,3)"
        " + q*(1,5,1,1,1) + (1,5,1,2,2) + (1,5,1,3,3) + (2,4,2,1,1) + (2,5,2,1,1)"
        " + (3,5,3,1,1)"
    )
    bad = (1, 5, 2, 4, 4)
    assert bad not in pf_product(LEFT, f, g).support()
    assert not is_parking(bad[:3]) or std(bad[:3]) != std(f)


def test_fast_equals_oracle_small():
    for qval in (None, 0, 1, 5):
        for n, m in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]:
            for f in pf_basis(n):
                for g in pf_basis(m):
                    oracle = pf_product_oracle(f, g, qval)
                    for kind in (*KINDS, STAR):
                        assert pf_product(kind, f, g, qval) == oracle[kind]


def test_product_terms_are_parking():
    for f in pf_basis(2):
        for g in pf_basis(2):
            for kind in KINDS:
                for w in pf_product(kind, f, g).support():
                    assert pf_validate(w) == w
                    assert pf_degree(w) == 4


def test_small_coproducts():
    assert render_tensor2(pf_coproduct((1, 1))) == "(1,1) # 1 + 1 # (1,1)"
    assert render_tensor2(pf_coproduct((1, 2))) == "(1) # (1) + (1,2) # 1 + 1 # (1,2)"
    assert render_tensor2(pf_coproduct((2, 1))) == "(1) # (1) + (2,1) # 1 + 1 # (2,1)"
    assert render_tensor2(pf_coproduct((1, 1, 3))) == (
        "(1,1) # (1) + (1,1,3) # 1 + 1 # (1,1,3)"
    )


def test_worked_coproduct():
    f = (1, 5, 5, 3, 6, 2, 3)
    assert render_tensor2(pf_coproduct(f)) == (
        "(1) # (4,4,2,5,1,2) + (1,2) # (3,3,1,4,1) + (1,3,2,3) # (1,1,2)"
        " + (1,5,5,3,6,2,3) # 1 + 1 # (1,5,5,3,6,2,3)"
    )


def test_coproduct_split_lengths_unique():
    # at most one interior term per prefix length
    for n in (2, 3, 4):
        for f in pf_basis(n):
            seen = set()
            for (l, r), _ in pf_coproduct(f).terms.items():
                if l is UNIT or r is UNIT:
                    continue
                assert len(l) not in seen
                seen.add(len(l))
                assert pf_validate(l) == l
                assert pf_validate(r) == r


def test_alpha_examples():
    assert render_element(alpha((1, 1))) == "(1,1)"
    assert render_element(alpha((1, 1, 2))) == "(1,1,2) + (1,1,3)"
    assert render_element(alpha((2, 1))) == "(2,1)"
    assert render_element(alpha((1, 2, 1))) == "(1,2,1) + (1,3,1)"


@pytest.mark.parametrize("fn", [alpha, iota])
def test_alpha_iota_name_the_word_in_the_grammar(fn):
    with pytest.raises(ValueError) as exc:
        fn((1, 3))
    assert str(exc.value) == f"{fn.__name__} needs a surjective word, got (1,3)"


def test_alpha_structure():
    for n in (1, 2, 3):
        seen = {}
        for f in surjections(n):
            a = alpha(f)
            # every summand standardizes back to f, f itself included
            assert f in a.support()
            for w in a.support():
                assert std(w) == f
                assert is_parking(w)
                assert a.coeff(w) == 1
            key = frozenset(a.support())
            assert key not in seen, f"alpha collides: {f} vs {seen[key]}"
            seen[key] = f


def test_alpha_rejects_non_surjections():
    with pytest.raises(ValueError):
        alpha((1, 3))


def test_iota():
    assert render_element(iota((2, 1))) == "(2,1)"
    assert render_element(iota((1, 1, 2))) == "(1,1,2)"
    with pytest.raises(ValueError):
        iota((1, 3))
    # on permutations the two maps agree
    for f in [(1,), (1, 2), (2, 1), (3, 1, 2), (2, 3, 1)]:
        assert iota(f) == alpha(f)


def test_iota_invariant_survives_optimized_mode(monkeypatch):
    # an explicit check, not an assert that python -O would strip
    monkeypatch.setattr("qtridend.pqsym.is_parking", lambda f: False)
    with pytest.raises(RuntimeError, match="not a parking function"):
        iota((2, 1))


def test_pirr_counts():
    assert [pirr_count(n) for n in range(1, 5)] == [1, 2, 11, 92]


def test_validate_errors():
    with pytest.raises(ValueError):
        pf_validate((2, 2))
    with pytest.raises(ValueError):
        pf_validate((0, 1))
