from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st_

from qtridend.algebras import ALGEBRA_NAMES, get_algebra
from qtridend.grammar import parse_element, render_element
from qtridend.linear import (
    LEFT,
    MIDDLE,
    RIGHT,
    STAR,
    UNIT,
    Element,
    Tensor2,
    bilinear_extend,
    tensor_flatten,
    tensor_of,
)
from qtridend.qpoly import QPoly, q_power, to_pairs

Q = q_power(1, None)

F = "st"


def el(*objs) -> Element:
    out = Element.zero(F)
    for o in objs:
        out = out + Element.basis(F, o)
    return out


def test_element_basics():
    a = Element.basis(F, (1,))
    assert not a.is_zero()
    assert Element.zero(F).is_zero()
    assert (a - a).is_zero()
    assert a + a == a.scale(2)
    assert (-a).coeff((1,)) == -1
    assert not a.coeff((9,))
    assert a.support() == {(1,)}
    one = Element.unit_element(F)
    assert one.unit == 1
    assert not one.is_zero()


def test_family_mismatch_raises():
    a = Element.basis("st", (1,))
    b = Element.basis("tree", ())
    with pytest.raises(ValueError):
        a + b


def test_scale_and_eval_q():
    a = Element.basis(F, (1,)).scale(Q) + Element.basis(F, (1, 2))
    at2 = a.eval_q(2)
    assert at2.coeff((1,)) == 2
    assert at2.coeff((1, 2)) == 1


def test_from_monomials_drops_zeros():
    monos = [((1,), 1), ((1, 2), 0), ((2, 1), 0), ((2, 1), 1), ((2, 1), 1)]
    a = Element.from_monomials(F, monos)
    assert a.coeff((2, 1)) == 1 + 2 * Q
    # a positive exponent vanishes at q = 0
    assert Element.from_monomials(F, monos, 0).support() == {(1, 2), (2, 1)}
    # 1 + q cancels at q = -1
    b = Element.from_monomials(F, [((1,), 0), ((1,), 1), ((1, 2), 1)], -1)
    assert b.support() == {(1, 2)} and b.coeff((1, 2)) == -1
    for q in (-1, 0, 1, 5):
        assert Element.from_monomials(F, monos, q) == a.eval_q(q)
    t = Tensor2.from_monomials(F, [(((1,), UNIT), 0), (((1,), UNIT), 1), ((UNIT, (1,)), 0)], -1)
    assert t == Tensor2(F, {(UNIT, (1,)): 1})


# kinds are extended bilinearly from this toy rule: every product of basis
# objects is the concatenation pair, so unit handling is isolated
def _rule(x, y):
    return Element.basis(F, x + y)


def test_bilinear_unit_conventions():
    x = Element.basis(F, (1,))
    one = Element.unit_element(F)
    assert bilinear_extend(_rule, RIGHT, one, x) == x
    assert bilinear_extend(_rule, STAR, one, x) == x
    assert bilinear_extend(_rule, LEFT, one, x).is_zero()
    assert bilinear_extend(_rule, MIDDLE, one, x).is_zero()
    assert bilinear_extend(_rule, LEFT, x, one) == x
    assert bilinear_extend(_rule, STAR, x, one) == x
    assert bilinear_extend(_rule, RIGHT, x, one).is_zero()
    assert bilinear_extend(_rule, MIDDLE, x, one).is_zero()
    assert bilinear_extend(_rule, STAR, one, one) == one
    for kind in (LEFT, MIDDLE, RIGHT):
        with pytest.raises(ValueError):
            bilinear_extend(_rule, kind, one, one)


def test_bilinear_is_bilinear():
    x = Element.basis(F, (1,)).scale(Q)
    y = el((1,), (2, 1))
    got = bilinear_extend(_rule, MIDDLE, x, y)
    assert got.coeff((1, 1)) == Q
    assert got.coeff((1, 2, 1)) == Q


def test_tensor_of_and_interior():
    a = el((1,)) + Element.unit_element(F)
    b = el((2, 1))
    t = tensor_of(a, b)
    assert t.terms[((1,), (2, 1))] == 1
    assert t.terms[(UNIT, (2, 1))] == 1
    inner = t.interior()
    assert set(inner.terms) == {((1,), (2, 1))}


def test_tensor_algebra():
    t = tensor_of(el((1,)), el((1,)))
    s = t + t
    assert s.terms[((1,), (1,))] == 2
    assert (s - s).is_zero()
    assert t.scale(3).terms[((1,), (1,))] == 3
    assert t.eval_q(5) == t
    with pytest.raises(ValueError):
        t + Tensor2("tree")


def test_map_slots():
    t = tensor_of(el((1,)) + Element.unit_element(F), el((1,)))

    def fn(slot):
        if slot is UNIT:
            return UNIT
        return Element.basis(F, slot).scale(2)

    out = t.map_slots(fn, fn, F)
    assert out.terms[((1,), (1,))] == 4
    assert out.terms[(UNIT, (1,))] == 2


def test_map_slots_keeps_unit_legs_without_calling_the_map():
    t = tensor_of(el((1,)) + Element.unit_element(F), el((2, 1)) + Element.unit_element(F))
    out = t.map_slots(lambda s: Element.basis(F, s).scale(2), lambda s: Element.basis(F, s), F)
    assert out.terms == {((1,), (2, 1)): 2, ((1,), UNIT): 2, (UNIT, (2, 1)): 1, (UNIT, UNIT): 1}


def test_tensor_flatten():
    # toy coproduct: x -> x (x) 1 + 1 (x) x
    def cop(obj):
        return Tensor2(F, {(obj, UNIT): 1, (UNIT, obj): 1})

    t = tensor_of(el((1,)), el((2, 1)))
    left = tensor_flatten(t, "left", cop)
    assert left[((1,), UNIT, (2, 1))] == 1
    assert left[(UNIT, (1,), (2, 1))] == 1
    right = tensor_flatten(t, "right", cop)
    assert right[((1,), (2, 1), UNIT)] == 1
    # unit legs expand to 1 (x) 1
    tu = tensor_of(Element.unit_element(F), el((1,)))
    flat = tensor_flatten(tu, "left", cop)
    assert flat[(UNIT, UNIT, (1,))] == 1
    with pytest.raises(ValueError):
        tensor_flatten(t, "middle", cop)


def test_unit_repr():
    assert repr(UNIT) == "1"


# ------------------------------------------------------------ accumulator

_polys = st_.dictionaries(
    st_.integers(min_value=0, max_value=3),
    st_.integers(min_value=-3, max_value=3),
    max_size=3,
).map(lambda m: int(QPoly(m)))
_scales = st_.one_of(st_.integers(min_value=-3, max_value=3), _polys)
_objs = st_.sampled_from([(1,), (1, 1), (1, 2), (2, 1)])
_slots = st_.sampled_from([UNIT, (1,), (1, 2), (2, 1)])
_elements = st_.builds(
    lambda terms, unit: Element(F, terms, unit),
    st_.dictionaries(_objs, _polys, max_size=3),
    _polys,
)
_tensors = st_.dictionaries(st_.tuples(_slots, _slots), _polys, max_size=4).map(
    lambda terms: Tensor2(F, terms)
)
_legs = st_.one_of(st_.just(UNIT), _elements)


def _snapshot(x):
    """The full content of an Element, Tensor2, pair or UNIT, as plain data."""
    if x is UNIT:
        return "1"
    if isinstance(x, tuple):
        return tuple(_snapshot(leg) for leg in x)
    unit = to_pairs(x.unit) if isinstance(x, Element) else None
    return sorted((repr(k), to_pairs(c)) for k, c in x.terms.items()), unit


def _slot_terms(x):
    if x is UNIT:
        return [(UNIT, 1)]
    return list(x.terms.items()) + ([(UNIT, x.unit)] if x.unit else [])


def _outer(a, b) -> Tensor2:
    """a (x) b term by term, without the accumulator."""
    out = Tensor2(F)
    for sl, cl in _slot_terms(a):
        for sr, cr in _slot_terms(b):
            out = out + Tensor2(F, {(sl, sr): cl * cr})
    return out


@given(st_.lists(st_.tuples(_elements, _scales), max_size=5), st_.booleans())
def test_element_sum_is_the_fold_of_add_and_scale(parts, cancel):
    if cancel:  # every part again with the opposite sign: the sum is 0
        parts = parts + [(-el, s) for el, s in parts]
    before = [_snapshot(el) for el, _ in parts]
    fold = Element.zero(F)
    for el, s in parts:
        fold = fold + el.scale(s)
    got = Element.sum(F, parts)
    assert got == fold
    assert got.is_zero() or not cancel
    assert [_snapshot(el) for el, _ in parts] == before


@given(
    st_.lists(
        st_.tuples(st_.one_of(_tensors, st_.tuples(_legs, _legs)), _scales), max_size=5
    ),
    st_.booleans(),
)
def test_tensor_sum_is_the_fold_of_add_and_scale(parts, cancel):
    if cancel:
        parts = parts + [(p, -s) for p, s in parts]
    before = [_snapshot(p) for p, _ in parts]
    fold = Tensor2(F)
    for p, s in parts:
        fold = fold + (p if isinstance(p, Tensor2) else _outer(*p)).scale(s)
    got = Tensor2.sum(F, parts)
    assert got == fold
    assert got.is_zero() or not cancel
    assert [_snapshot(p) for p, _ in parts] == before


def test_sums_reject_a_foreign_family():
    with pytest.raises(ValueError):
        Element.sum(F, [(Element.basis("tree", ((), ())), 1)])
    with pytest.raises(ValueError):
        Tensor2.sum(F, [((Element.basis("tree", ((), ())), UNIT), 1)])


def _random_element(rng: random.Random, family: str) -> Element:
    h = get_algebra(family)
    terms = {}
    for _ in range(rng.randint(0, 4)):
        obj = rng.choice(h.basis(rng.randint(1, 6)))
        terms[obj] = q_power(rng.randint(0, 4), None) * rng.choice([-3, -1, 1, 2, 5])
    unit = sum(rng.randint(-2, 2) * q_power(e, None) for e in range(rng.randint(0, 2)))
    return Element(family, terms, unit)


@pytest.mark.parametrize("family", ALGEBRA_NAMES)
def test_parse_render_round_trip(family):
    rng = random.Random(6)
    for _ in range(50):
        x = _random_element(rng, family)
        assert parse_element(family, render_element(x)) == x
