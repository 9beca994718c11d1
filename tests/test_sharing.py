"""Immutable results are shared, not copied: interned q-powers, cached basis
products and coproducts handed out as they are, the counit as a key
filter, and coassociativity summed as one difference.  Each shortcut
must give what the accumulator route gives."""

from __future__ import annotations

import pytest

from qtridend.algebras import ALGEBRA_NAMES, AlgebraHandle, el_coproduct, get_algebra
from qtridend.linear import (
    KINDS,
    STAR,
    UNIT,
    Element,
    Tensor2,
    bilinear_extend,
    is_coassociative,
    lone_basis,
    tensor_flatten,
)
from qtridend.qpoly import _Q_POWERS, QPoly, _canon
from qtridend.verify import verify_bialgebra

QS = (None, 0, 1, 5)


def _counit_by_sum(t: Tensor2, side: str) -> Element:
    """The counit on one leg through the accumulator: (eps (x) id) or
    (id (x) eps), summed slot by slot."""
    killed = 0 if side == "left" else 1
    return Element.sum(
        t.family,
        (
            (Element.slot(t.family, k[1 - killed]), c)
            for k, c in t.terms.items()
            if k[killed] is UNIT
        ),
    )


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_counit_filter_equals_the_accumulator_route(name):
    h = get_algebra(name)
    for q in QS:
        for n in range(1, 6):
            for x in h.basis(n):
                d = h.coproduct(x, q)
                for side in ("left", "right"):
                    got = d.counit(side)
                    assert got == _counit_by_sum(d, side), (x, q, side)
                    assert got == Element.basis(name, x)
    t = Tensor2("st", {(UNIT, UNIT): 3, (UNIT, (1,)): QPoly({1: 2}), ((1,), (1,)): 1})
    assert t.counit("left") == _counit_by_sum(t, "left")
    assert t.counit("right") == _counit_by_sum(t, "right")
    assert t.counit("right").unit == 3
    with pytest.raises(ValueError):
        t.counit("middle")


def _perturbations(d: Tensor2):
    """d with one term dropped, and d with one coefficient raised by 1,
    for every term of d."""
    items = list(d.terms.items())
    for i, (k, c) in enumerate(items):
        rest = dict(items[:i] + items[i + 1 :])
        yield Tensor2(d.family, rest)
        yield Tensor2(d.family, {**rest, k: c + 1})


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_coassociativity_flags_a_perturbed_coproduct(name):
    h = get_algebra(name)
    cop = lambda o: h.coproduct(o, None)
    for n in range(1, 5):
        for x in h.basis(n):
            d = cop(x)
            assert is_coassociative(d, cop)
            for bad in _perturbations(d):
                assert not is_coassociative(bad, cop), (x, bad.terms)
                assert tensor_flatten(bad, "left", cop) != tensor_flatten(bad, "right", cop)


def test_coassociativity_flags_a_perturbed_leg_coproduct():
    # the tensor is a true coproduct; the map applied to its legs is wrong
    # at one basis object, by a dropped term or a changed coefficient
    h = get_algebra("tree")
    x = h.basis(3)[0]
    d = h.coproduct(x)
    y = next(l for l, r in d.terms if l is not UNIT and r is not UNIT)
    for bad in _perturbations(h.coproduct(y)):
        cop = lambda o: bad if o == y else h.coproduct(o)
        assert not is_coassociative(d, cop)
        assert tensor_flatten(d, "left", cop) != tensor_flatten(d, "right", cop)


def test_q_powers_are_interned_and_never_mutated():
    for e in range(1, 8):
        assert _canon({e: 1}) is _canon({e: 1})
        assert _canon({e: 1}) == QPoly.q_power(e)
    assert _canon({0: 1}) == 1 and _canon({}) == 0
    assert _canon({2: 3}) is not _canon({2: 3})
    assert verify_bialgebra("tree", 4, 5)["ok"]
    assert _Q_POWERS and all(p.m == {e: 1} for e, p in _Q_POWERS.items())


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_lone_basis_results_are_the_cached_ones(name):
    h = get_algebra(name)
    for q in QS:
        for n1 in range(1, 4):
            for n2 in range(1, 5 - n1):
                for x in h.basis(n1):
                    ex = Element.basis(name, x)
                    assert lone_basis(ex) == x
                    for y in h.basis(n2):
                        ey = Element.basis(name, y)
                        for kind in (*KINDS, STAR):
                            rule = lambda a, b: h.product(kind, a, b, q)
                            got = bilinear_extend(rule, kind, ex, ey)
                            assert got is rule(x, y)
                            assert got == Element.sum(name, ((rule(x, y), 1),))
                            twice = bilinear_extend(rule, kind, ex.scale(2), ey)
                            assert twice == got.scale(2)
                d = el_coproduct(h, ex, q)
                assert d is h.coproduct(x, q)
                assert d == Tensor2.sum(name, ((h.coproduct(x, q), 1),))
                assert el_coproduct(h, ex.scale(2), q) == d.scale(2)


def test_lone_basis_needs_one_term_with_coefficient_one_and_no_unit():
    x = Element.basis("st", (1, 2))
    assert lone_basis(x) == (1, 2)
    assert lone_basis(x.scale(2)) is None
    assert lone_basis(x.scale(QPoly.q_power(1))) is None
    assert lone_basis(x + Element.unit_element("st")) is None
    assert lone_basis(x + Element.basis("st", (1,))) is None
    assert lone_basis(Element.unit_element("st")) is None
    assert lone_basis(Element.zero("st")) is None


def test_shared_results_keep_the_family_checks_and_unit_conventions():
    x = Element.basis("st", (1,))
    one = Element.unit_element("st")
    foreign = lambda a, b: Element.basis("tree", ((), ()))
    with pytest.raises(ValueError):
        bilinear_extend(foreign, STAR, x, x)
    with pytest.raises(ValueError):
        bilinear_extend(foreign, STAR, x, Element.basis("tree", ((), ())))
    h = get_algebra("st")
    wrong = AlgebraHandle(
        name="st",
        basis=h.basis,
        degree=h.degree,
        product=h.product,
        coproduct=lambda o, qval=None: get_algebra("tree").coproduct(((), ()), qval),
        validate=h.validate,
    )
    with pytest.raises(ValueError):
        el_coproduct(wrong, x)
    assert el_coproduct(h, one) == Tensor2("st", {(UNIT, UNIT): 1})
    rule = lambda a, b: h.product(STAR, a, b)
    assert bilinear_extend(rule, STAR, one, x) == x
    assert bilinear_extend(rule, STAR, x, one) == x
    assert bilinear_extend(rule, STAR, one, one) == one
    for kind in KINDS:
        with pytest.raises(ValueError):
            bilinear_extend(lambda a, b: h.product(kind, a, b), kind, one, one)
