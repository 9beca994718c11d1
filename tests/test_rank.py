"""Certified modular rank and nullspace against the Fraction elimination."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st_

from qtridend import rank
from qtridend.rank import (
    PRIMES,
    NotCertified,
    fraction_nullspace,
    modular_nullspace,
    rational_nullspace,
    rational_rank,
)

entries = st_.integers(-3, 3)


@st_.composite
def matrices(draw):
    """(rows, ncols): a random matrix, or a product A.B with few inner
    columns, which is rank-deficient (all zero when there are none)."""
    nrows = draw(st_.integers(0, 6))
    ncols = draw(st_.integers(1, 6))
    if draw(st_.booleans()):
        rows = draw(st_.lists(st_.lists(entries, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
        return rows, ncols
    inner = draw(st_.integers(0, 3))
    a = [[draw(entries) for _ in range(inner)] for _ in range(nrows)]
    b = [[draw(entries) for _ in range(ncols)] for _ in range(inner)]
    rows = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(ncols)]
            for i in range(nrows)]
    return rows, ncols


def _mul(rows, v):
    return [sum(x * y for x, y in zip(row, v)) for row in rows]


@given(matrices())
@example(([], 3))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[1, 2], [2, 4], [3, 6]], 2))
@example(([[2, 4, 6, 8]], 4))
def test_matches_fraction_reference(matrix):
    rows, ncols = matrix
    ref = fraction_nullspace(rows, ncols)
    assert all(not any(_mul(rows, v)) for v in ref)
    assert rational_nullspace(rows, ncols) == ref
    assert rational_rank(rows) == (ncols - len(ref) if rows else 0)
    # every minor here is far below both primes and their reconstruction
    # bounds, so the first prime must certify without a fallback
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    assert modular_nullspace(sparse, ncols, PRIMES[0]) == ref


def test_entry_divisible_by_the_first_prime_falls_back_to_the_second(monkeypatch):
    p = PRIMES[0]
    rows = [[p, p, 0], [0, 1, 1]]
    ref = fraction_nullspace(rows, 3)
    assert ref == [[1, -1, 1]]
    sparse = [{0: p, 1: p}, {1: 1, 2: 1}]
    with pytest.raises(NotCertified):
        modular_nullspace(sparse, 3, p)

    def unreachable(rows, ncols):
        raise AssertionError("the second prime should have certified this")

    monkeypatch.setattr(rank, "fraction_nullspace", unreachable)
    assert rational_nullspace(rows, 3) == ref
    assert rational_rank(rows) == 2


def test_entry_too_large_to_reconstruct_falls_back_to_fractions(monkeypatch):
    rows = [[2, 3**50]]
    ref = fraction_nullspace(rows, 2)
    assert ref == [[-(3**50), 2]]
    for p in PRIMES:
        with pytest.raises(NotCertified):
            modular_nullspace([{0: 2, 1: 3**50}], 2, p)
    calls = []

    def spy(rows, ncols):
        calls.append(ncols)
        return fraction_nullspace(rows, ncols)

    monkeypatch.setattr(rank, "fraction_nullspace", spy)
    assert rational_nullspace(rows, 2) == ref
    assert rational_rank(rows) == 1
    assert calls == [2, 2]
