"""The seven relations and associativity on seeded random basis triples of
total degree 7 to 9, past the exhaustive sweeps of the default plan."""

from __future__ import annotations

import random

import pytest

from qtridend.algebras import el_product, get_algebra
from qtridend.linear import Element
from qtridend.trees import LEAF
from qtridend.verify import _RELATIONS
from qtridend.words import std


def _random_surjection(rng: random.Random, n: int) -> tuple:
    return std(tuple(rng.randint(1, n) for _ in range(n)))


def _random_tree(rng: random.Random, n: int) -> tuple:
    """A random planar tree of degree n: n + 1 leaves split among 2 or more
    random subtrees."""
    if n == 0:
        return LEAF
    cuts = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n + 1])]
    return tuple(_random_tree(rng, s - 1) for s in sizes)


def _random_mperm(rng: random.Random, n: int) -> tuple:
    """A random multipermutation of size n, by rejection from the fibers of
    random surjective words."""
    while True:
        u = _random_surjection(rng, n)
        blocks = tuple(
            frozenset(i + 1 for i, v in enumerate(u) if v == j) for j in range(1, max(u) + 1)
        )
        if not any(v + 1 in b for b in blocks for v in b):
            return blocks


RANDOM_BASIS = {"st": _random_surjection, "tree": _random_tree, "mperm": _random_mperm}


@pytest.mark.parametrize("name", sorted(RANDOM_BASIS))
def test_sampled_relations_past_the_exhaustive_range(name):
    h = get_algebra(name)
    rng = random.Random(9)
    for total in (7, 8, 9) * 4:
        n1 = rng.randint(1, total - 2)
        n2 = rng.randint(1, total - n1 - 1)
        a, b, c = (
            Element.basis(name, h.validate(RANDOM_BASIS[name](rng, n)))
            for n in (n1, n2, total - n1 - n2)
        )
        for rel, (inner_l, outer_l), (outer_r, inner_r) in _RELATIONS:
            lhs = el_product(h, outer_l, el_product(h, inner_l, a, b), c)
            rhs = el_product(h, outer_r, a, el_product(h, inner_r, b, c))
            assert lhs == rhs, (rel, a.terms, b.terms, c.terms)
