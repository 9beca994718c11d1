"""The seven relations and associativity on seeded random basis triples,
the bialgebra laws (the coalgebra laws by the full checks and on the
reduced coproduct) and the morphisms alpha and phi on seeded random
basis objects and pairs, and render -> parse round trips of elements and
coproducts, all of total degree 7 to 9, past the exhaustive sweeps of the
default plan."""

from __future__ import annotations

import random

import pytest

from qtridend.algebras import ALGEBRA_NAMES, compat_rhs, el_coproduct, el_product, get_algebra
from qtridend.grammar import parse_element, parse_tensor2, render_element, render_tensor2
from qtridend.linear import KINDS, Element, coalgebra_laws, is_coassociative
from qtridend.mperm import phi_element
from qtridend.pqsym import alpha
from qtridend.qpoly import QPoly
from qtridend.st import st_coproduct, st_product
from qtridend.trees import LEAF
from qtridend.verify import _RELATIONS, _map_element
from qtridend.words import is_parking, std


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


def _random_parking(rng: random.Random, n: int) -> tuple:
    """A random parking function of length n, by rejection from random words."""
    while True:
        w = tuple(rng.randint(1, n) for _ in range(n))
        if is_parking(w):
            return w


SAMPLERS = {**RANDOM_BASIS, "pqsym": _random_parking}


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_sampled_bialgebra_laws_past_the_exhaustive_range(name):
    # objects are drawn, never picked from h.basis(n): that enumeration
    # alone costs seconds at these degrees
    h = get_algebra(name)
    rng = random.Random(7)
    for total in (7, 8, 9) * 4:
        x = h.validate(SAMPLERS[name](rng, total))
        d = h.coproduct(x)
        assert d.counit("left") == Element.basis(name, x) == d.counit("right"), x
        assert is_coassociative(d, h.coproduct), x
        assert list(coalgebra_laws([x], h.coproduct)) == [(x, True, True, True)], x
        n1 = rng.randint(1, total - 1)
        a, b = (h.validate(SAMPLERS[name](rng, n)) for n in (n1, total - n1))
        for kind in KINDS:
            lhs = el_coproduct(h, h.product(kind, a, b))
            assert lhs == compat_rhs(h, kind, a, b), (kind, a, b)


def test_sampled_morphisms_past_the_exhaustive_range():
    pq, mm = get_algebra("pqsym"), get_algebra("mperm")
    rng = random.Random(7)
    for total in (7, 8, 9) * 4:
        n1 = rng.randint(1, total - 1)
        f, g = _random_surjection(rng, n1), _random_surjection(rng, total - n1)
        for kind in KINDS:
            fg = st_product(kind, f, g)
            assert _map_element(fg, alpha, "pqsym") == el_product(
                pq, kind, alpha(f), alpha(g)
            ), (kind, f, g)
            assert _map_element(fg, phi_element, "mperm") == el_product(
                mm, kind, phi_element(f), phi_element(g)
            ), (kind, f, g)
        x = _random_surjection(rng, total)
        d = st_coproduct(x)
        assert d.map_slots(alpha, alpha, "pqsym") == el_coproduct(pq, alpha(x)), x
        assert d.map_slots(phi_element, phi_element, "mperm") == el_coproduct(
            mm, phi_element(x)
        ), x


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_sampled_render_parse_round_trip_past_the_exhaustive_range(name):
    h = get_algebra(name)
    rng = random.Random(11)
    for total in (7, 8, 9) * 4:
        objs = [h.validate(SAMPLERS[name](rng, total)) for _ in range(3)]
        el = Element(name, {o: int(QPoly({rng.randint(0, 3): rng.choice([-2, -1, 1, 3])})) for o in objs})
        text = render_element(el)
        # cold, then with every term in the memo
        assert parse_element(name, text) == el == parse_element(name, text), text
        d = h.coproduct(objs[0])
        assert parse_tensor2(name, render_tensor2(d)) == d, text
