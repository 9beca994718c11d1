"""Products, coproduct, and the two maps from surjective words into
parking functions."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from qtridend.algebras import el_product, get_algebra
from qtridend.grammar import render_element, render_tensor2
from qtridend.linear import KINDS, LEFT, MIDDLE, RIGHT, STAR, UNIT, Element
from qtridend.pqsym import (
    _candidates,
    _field_width,
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
from qtridend.st import _scan_words
from qtridend.verify import _RELATIONS
from qtridend.words import is_parking, park, parking_functions, std, surjections
from reference import pf_coproduct_reference


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


def test_candidates_are_the_words_that_parkize_to_f():
    # the offset rule lists exactly what the brute-force filter keeps, in the
    # lex order of the value sets, each with its mask, max and prefix counts
    for n in range(1, 6):
        for f in pf_basis(n):
            u = std(f)
            for N in range(n, n + 5):
                brute = []
                for vals in combinations(range(1, N + 1), max(u)):
                    h = tuple(vals[x - 1] for x in u)
                    if park(h) == f:
                        brute.append(h)
                cands = _candidates(f, N)
                assert [c[0] for c in cands] == brute, (f, N)
                w = _field_width(N)
                for h, mask, top, pre in cands:
                    assert mask == sum(1 << x for x in set(h)), (f, N, h)
                    assert top == max(h), (f, N, h)
                    counts = [sum(x <= i for x in h) for i in range(1, N + 1)]
                    assert pre == sum(c << (w * i) for i, c in enumerate(counts)), (f, N, h)


def test_fast_equals_oracle_small():
    # every pair of total degree <= 5; the oracle is one scan per total,
    # read off per pair as pf_product_oracle does; q = -1 makes sums cancel
    qvals = (None, -1, 0, 1, 5)
    for total in range(2, 6):
        scan = _scan_words(total, parking_functions, park)
        for n in range(1, total):
            for f in pf_basis(n):
                for g in pf_basis(total - n):
                    for kind, monos in scan[(f, g)].items():
                        for qval in qvals:
                            oracle = Element.from_monomials("pqsym", monos, qval)
                            assert pf_product(kind, f, g, qval) == oracle, (kind, f, g, qval)
    for qval in qvals:
        assert pf_product_oracle((1, 3, 1), (1, 1), qval) == {
            kind: pf_product(kind, (1, 3, 1), (1, 1), qval) for kind in (*KINDS, STAR)
        }


def _random_parking(rng: random.Random, n: int) -> tuple:
    """A random parking function of length n, by rejection from random words."""
    while True:
        w = tuple(rng.randint(1, n) for _ in range(n))
        if is_parking(w):
            return w


def test_sampled_relations_past_the_exhaustive_range():
    # the seven relations and associativity on seeded random triples of
    # total degree 7 to 9, beyond the exhaustive sweeps
    h = get_algebra("pqsym")
    rng = random.Random(9)
    for total in (7, 7, 8, 8, 9, 9):
        n1 = rng.randint(1, total - 2)
        n2 = rng.randint(1, total - n1 - 1)
        a, b, c = (
            Element.basis("pqsym", _random_parking(rng, n))
            for n in (n1, n2, total - n1 - n2)
        )
        for name, (inner_l, outer_l), (outer_r, inner_r) in _RELATIONS:
            lhs = el_product(h, outer_l, el_product(h, inner_l, a, b), c)
            rhs = el_product(h, outer_r, a, el_product(h, inner_r, b, c))
            assert lhs == rhs, (name, a, b, c)


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


def test_coproduct_equals_the_definition():
    # every parking function to degree 6, term order included: the count
    # #{f <= j} = j alone decides a cut
    for n in range(1, 7):
        for f in pf_basis(n):
            want = pf_coproduct_reference(f)
            assert list(pf_coproduct(f).terms.items()) == list(want.terms.items()), f


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
