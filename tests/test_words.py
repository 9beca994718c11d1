from __future__ import annotations

import itertools

from hypothesis import given
from hypothesis import strategies as st_

from qtridend.words import (
    is_parking,
    is_surjection,
    ndpf,
    park,
    parking_functions,
    run_compress,
    std,
    surjections,
)
from reference import image_overlap

words = st_.lists(st_.integers(min_value=1, max_value=6), max_size=6).map(tuple)


def test_std_examples():
    assert std((2, 3, 3, 5, 7)) == (1, 2, 2, 3, 4)
    assert std(()) == ()
    assert std((4,)) == (1,)
    assert std((2, 1, 2)) == (2, 1, 2)


@given(words)
def test_std_properties(w):
    s = std(w)
    if w:
        assert is_surjection(s)
    assert std(s) == s
    # order and equality isomorphic to w
    for i in range(len(w)):
        for j in range(len(w)):
            assert (w[i] < w[j]) == (s[i] < s[j])
            assert (w[i] == w[j]) == (s[i] == s[j])


def test_park_examples():
    assert park((3, 1, 5)) == (2, 1, 3)
    assert park((2, 2, 2)) == (1, 1, 1)
    assert park((1, 5, 2)) == (1, 3, 2)


@given(words)
def test_park_properties(w):
    p = park(w)
    assert is_parking(p)
    assert park(p) == p
    if is_parking(w):
        assert p == w
    assert std(p) == std(w)


@given(words)
def test_park_preserves_relative_order(w):
    p = park(w)
    assert len(p) == len(w)
    for i in range(len(w)):
        for j in range(len(w)):
            if w[i] < w[j]:
                assert p[i] <= p[j]
            if w[i] == w[j]:
                assert p[i] == p[j]


def test_predicates():
    assert is_parking((1, 1, 2))
    assert not is_parking((2, 2))
    assert is_surjection((2, 1, 2))
    assert not is_surjection((1, 3))
    assert not is_surjection(())


def test_enumeration_counts():
    assert [len(surjections(n)) for n in range(1, 6)] == [1, 3, 13, 75, 541]
    assert [len(parking_functions(n)) for n in range(1, 6)] == [1, 3, 16, 125, 1296]
    assert [len(ndpf(n)) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_enumeration_order_and_content():
    assert surjections(2) == ((1, 1), (1, 2), (2, 1))
    assert parking_functions(2) == ((1, 1), (1, 2), (2, 1))
    assert ndpf(3) == ((1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3))
    for n in (1, 2, 3, 4):
        ws = surjections(n)
        assert ws == tuple(sorted(ws))
        assert all(is_surjection(w) for w in ws)
        pf = parking_functions(n)
        assert pf == tuple(sorted(pf))
        assert all(is_parking(w) for w in pf)
        assert set(ndpf(n)) <= set(pf)


def test_parking_functions_by_prefix_growth_match_the_filter():
    # the pruned growth keeps exactly the filtered words, in the same order
    for n in range(0, 7):
        filtered = tuple(
            w for w in itertools.product(range(1, n + 1), repeat=n) if is_parking(w)
        )
        assert parking_functions(n) == filtered
    # (n+1)^(n-1) parking functions; n = 7 bypasses the lru_cache
    for n in range(1, 8):
        assert len(parking_functions.__wrapped__(n)) == (n + 1) ** (n - 1)


def test_misc_helpers():
    assert image_overlap((1, 2), (2, 3)) == 1
    assert image_overlap((1,), (2,)) == 0
    assert run_compress((1, 2, 2, 3, 1, 4)) == (1, 2, 3, 1, 4)
    assert run_compress(()) == ()
    assert run_compress((5, 5, 5)) == (5,)
