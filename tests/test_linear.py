from __future__ import annotations

import pytest

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
from qtridend.qpoly import QPoly

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
    assert (-a).coeff((1,)) == QPoly.const(-1)
    assert a.coeff((9,)).is_zero()
    assert a.support() == {(1,)}
    one = Element.unit_element(F)
    assert one.unit == QPoly.one()
    assert not one.is_zero()


def test_family_mismatch_raises():
    a = Element.basis("st", (1,))
    b = Element.basis("tree", ())
    with pytest.raises(ValueError):
        a + b


def test_scale_and_eval_q():
    a = Element.basis(F, (1,)).scale(QPoly.q_power(1)) + Element.basis(F, (1, 2))
    at2 = a.eval_q(2)
    assert at2.coeff((1,)) == QPoly.const(2)
    assert at2.coeff((1, 2)) == QPoly.one()


def test_from_raw_drops_zeros():
    a = Element.from_raw(F, {(1,): {0: 0}, (1, 2): {1: 1}})
    assert a.support() == {(1, 2)}


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
    x = Element.basis(F, (1,)).scale(QPoly.q_power(1))
    y = el((1,), (2, 1))
    got = bilinear_extend(_rule, MIDDLE, x, y)
    assert got.coeff((1, 1)) == QPoly.q_power(1)
    assert got.coeff((1, 2, 1)) == QPoly.q_power(1)


def test_tensor_of_and_interior():
    a = el((1,)) + Element.unit_element(F)
    b = el((2, 1))
    t = tensor_of(a, b)
    assert t.terms[((1,), (2, 1))] == QPoly.one()
    assert t.terms[(UNIT, (2, 1))] == QPoly.one()
    inner = t.interior()
    assert set(inner.terms) == {((1,), (2, 1))}


def test_tensor_algebra():
    t = tensor_of(el((1,)), el((1,)))
    s = t + t
    assert s.terms[((1,), (1,))] == QPoly.const(2)
    assert (s - s).is_zero()
    assert t.scale(3).terms[((1,), (1,))] == QPoly.const(3)
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
    assert out.terms[((1,), (1,))] == QPoly.const(4)
    assert out.terms[(UNIT, (1,))] == QPoly.const(2)


def test_tensor_flatten():
    # toy coproduct: x -> x (x) 1 + 1 (x) x
    def cop(obj):
        raw = {(obj, UNIT): {0: 1}, (UNIT, obj): {0: 1}}
        return Tensor2.from_raw(F, raw)

    t = tensor_of(el((1,)), el((2, 1)))
    left = tensor_flatten(t, "left", cop)
    assert left[((1,), UNIT, (2, 1))] == QPoly.one()
    assert left[(UNIT, (1,), (2, 1))] == QPoly.one()
    right = tensor_flatten(t, "right", cop)
    assert right[((1,), (2, 1), UNIT)] == QPoly.one()
    # unit legs expand to 1 (x) 1
    tu = tensor_of(Element.unit_element(F), el((1,)))
    flat = tensor_flatten(tu, "left", cop)
    assert flat[(UNIT, UNIT, (1,))] == QPoly.one()
    with pytest.raises(ValueError):
        tensor_flatten(t, "middle", cop)


def test_unit_repr():
    assert repr(UNIT) == "1"
