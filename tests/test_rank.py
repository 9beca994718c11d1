"""Certified modular rank and nullspace against the Fraction elimination."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st_

from qtridend import rank
from qtridend.algebras import get_algebra
from qtridend.brace import primitive_kernel_basis, primitive_rank
from qtridend.rank import (
    PRIMES,
    NotCertified,
    _rref_mod,
    fraction_nullspace,
    modular_nullspace,
    rational_nullspace,
    rational_rank,
)
from qtridend.verify import dims_report

entries = st_.integers(-3, 3)


def _sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


@st_.composite
def matrices(draw):
    """(rows, ncols): a random matrix, or a product A.B with few inner
    columns, which is rank-deficient (all zero when there are none), as
    sparse rows {column: entry}."""
    nrows = draw(st_.integers(0, 6))
    ncols = draw(st_.integers(1, 6))
    if draw(st_.booleans()):
        rows = draw(st_.lists(st_.lists(entries, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
        return _sparse(rows), ncols
    inner = draw(st_.integers(0, 3))
    a = [[draw(entries) for _ in range(inner)] for _ in range(nrows)]
    b = [[draw(entries) for _ in range(ncols)] for _ in range(inner)]
    rows = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(ncols)]
            for i in range(nrows)]
    return _sparse(rows), ncols


def _mul(rows, v):
    return [sum(x * v.get(j, 0) for j, x in row.items()) for row in rows]


@given(matrices())
@example(([], 3))
@example(([{}, {}], 3))
@example((_sparse([[1, 2], [2, 4], [3, 6]]), 2))
@example((_sparse([[2, 4, 6, 8]]), 4))
@example((_sparse([[0, 1, 2], [0, 3, 4]]), 3))
def test_matches_fraction_reference(matrix):
    rows, ncols = matrix
    ref = fraction_nullspace(rows, ncols)
    assert all(not any(_mul(rows, v)) for v in ref)
    assert rational_nullspace(rows, ncols) == ref
    assert rational_rank(rows, ncols) == ncols - len(ref)
    # every minor here is far below both primes and their reconstruction
    # bounds, so the first prime must certify without a fallback
    assert modular_nullspace(rows, ncols, PRIMES[0]) == ref
    if not rows:  # rank 0, and the kernel is the identity
        assert ref == [{j: 1} for j in range(ncols)]


def test_entry_divisible_by_the_first_prime_falls_back_to_the_second(monkeypatch):
    p = PRIMES[0]
    rows = [{0: p, 1: p}, {1: 1, 2: 1}]
    ref = fraction_nullspace(rows, 3)
    assert ref == [{0: 1, 1: -1, 2: 1}]
    with pytest.raises(NotCertified):
        modular_nullspace(rows, 3, p)

    def unreachable(rows, ncols):
        raise AssertionError("the second prime should have certified this")

    monkeypatch.setattr(rank, "fraction_nullspace", unreachable)
    assert rational_nullspace(rows, 3) == ref
    assert rational_rank(rows, 3) == 2


def test_entry_too_large_to_reconstruct_falls_back_to_fractions(monkeypatch):
    rows = [{0: 2, 1: 3**50}]
    ref = fraction_nullspace(rows, 2)
    assert ref == [{0: -(3**50), 1: 2}]
    for p in PRIMES:
        with pytest.raises(NotCertified):
            modular_nullspace(rows, 2, p)
    calls = []

    def spy(rows, ncols):
        calls.append(ncols)
        return fraction_nullspace(rows, ncols)

    monkeypatch.setattr(rank, "fraction_nullspace", spy)
    assert rational_nullspace(rows, 2) == ref
    assert rational_rank(rows, 2) == 1
    assert calls == [2, 2]


def _random_sparse(seed: int, nrows: int, ncols: int, dense_column: int | None = None):
    """Seeded sparse rows with entries in -3..3, about three per row, half
    of them followed by a sum of two earlier rows so that the rank drops;
    dense_column, when given, is nonzero in every row."""
    rng = random.Random(seed)
    rows: list = []
    for _ in range(nrows):
        if len(rows) > 1 and rng.random() < 0.5:
            a, b = rng.sample(rows, 2)
            row = {j: a.get(j, 0) + b.get(j, 0) for j in a.keys() | b.keys()}
        else:
            row = {rng.randrange(ncols): rng.randint(-3, 3) for _ in range(3)}
        if dense_column is not None:
            row[dense_column] = row.get(dense_column, 0) or rng.randint(1, 3)
        rows.append({j: x for j, x in row.items() if x})
    return rows


SPARSE_CASES = [
    (seed, nrows, ncols, dense)
    for seed, (nrows, ncols) in enumerate([(12, 20), (30, 18), (25, 25), (40, 30)])
    for dense in (None, seed % 5)
]


@pytest.mark.parametrize("seed, nrows, ncols, dense", SPARSE_CASES)
def test_rank_matches_fraction_reference_on_random_sparse(seed, nrows, ncols, dense):
    rows = _random_sparse(seed, nrows, ncols, dense)
    ref = fraction_nullspace(rows, ncols)
    assert rational_rank(rows, ncols) == ncols - len(ref)
    assert rational_nullspace(rows, ncols) == ref


@pytest.mark.parametrize("seed, nrows, ncols, dense", SPARSE_CASES)
def test_a_column_order_gives_the_permuted_rref_kernel(seed, nrows, ncols, dense):
    """With the columns eliminated in order, the certified basis is the RREF
    kernel basis of the matrix with its columns in that order, labelled by
    the original columns."""
    rows = _random_sparse(seed, nrows, ncols, dense)
    order = list(range(ncols))
    random.Random(seed).shuffle(order)
    permuted = [{order.index(j): x for j, x in row.items()} for row in rows]
    ref = [{order[j]: x for j, x in v.items()} for v in fraction_nullspace(permuted, ncols)]
    assert modular_nullspace(rows, ncols, PRIMES[0], order) == ref
    assert all(not any(_mul(rows, v)) for v in ref)


@pytest.mark.parametrize("seed, nrows, ncols, dense", SPARSE_CASES)
def test_rref_pivots_do_not_depend_on_the_row_order(seed, nrows, ncols, dense):
    rows = _random_sparse(seed, nrows, ncols, dense)
    pivots = _rref_mod(rows, ncols, PRIMES[0], range(ncols))
    for shuffle_seed in range(3):
        shuffled = list(rows)
        random.Random(shuffle_seed).shuffle(shuffled)
        assert _rref_mod(shuffled, ncols, PRIMES[0], range(ncols)) == pivots


def test_benchmark_and_dims_matrices_certify_at_the_first_prime(monkeypatch):
    """The elimination orders must not push a real matrix off the first
    prime: every modular elimination of the ranks benchmark cases and of
    the dims suite runs mod PRIMES[0] and certifies there."""
    primes = []

    def spy(rows, ncols, p, order=None):
        primes.append(p)
        return modular_nullspace(rows, ncols, p, order)

    def unreachable(rows, ncols):
        raise AssertionError("a matrix fell back to Fraction elimination")

    monkeypatch.setattr(rank, "modular_nullspace", spy)
    monkeypatch.setattr(rank, "fraction_nullspace", unreachable)
    for family, n, q, want in (("st", 5, 1, 368), ("tree", 5, 1, 90), ("mperm", 5, 0, 217), ("pqsym", 4, 1, 92)):
        h = get_algebra(family)
        assert primitive_rank(h, n, q) == want
        primitive_kernel_basis(h, n, q)
    assert dims_report()["ok"]
    assert len(primes) > 8 and set(primes) == {PRIMES[0]}
