from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st_

from qtridend.algebras import ALGEBRA_NAMES, el_product, el_rtilde, get_algebra
from qtridend.grammar import parse_element, render_element
from qtridend.linear import (
    KINDS,
    LEFT,
    MIDDLE,
    RIGHT,
    STAR,
    UNIT,
    Element,
    Tensor2,
    bilinear_extend,
    file_tensor,
    file_terms,
    filed_tensor,
    interior_items,
    is_coassociative,
    kind_products,
    tensor_flatten,
    tensor_of,
)
from qtridend.qpoly import X_POWERS, QPoly, q_power, to_pairs
from reference import coassociative_reference

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


def test_kind_products_weigh_each_object_once():
    exps = {
        LEFT: {(1,): 1, (1, 2): 0},
        MIDDLE: {(2, 1): 1, (1, 1): 2},
        RIGHT: {},
        STAR: {(1,): 1, (1, 2): 0, (2, 1): 1, (1, 1): 2},
    }
    sym = kind_products(F, exps, None)
    assert sym[LEFT] == Element(F, {(1,): Q, (1, 2): 1})
    # the middle exponent is one lower: q^(overlap - 1)
    assert sym[MIDDLE] == Element(F, {(2, 1): 1, (1, 1): Q})
    assert sym[RIGHT].is_zero()
    # each symbolic term is the shared X^e itself, not an equal copy
    for kind, terms in exps.items():
        for o, e in terms.items():
            assert sym[kind].coeff(o) is X_POWERS[e - (kind == MIDDLE)], (kind, o)
    # q = 0 drops every term of positive exponent
    zero = kind_products(F, exps, 0)
    assert zero[LEFT].support() == zero[STAR].support() == {(1, 2)}
    assert zero[MIDDLE] == Element.basis(F, (2, 1))
    assert all(c for el in zero.values() for c in el.terms.values())
    for q in (-1, 0, 1, 5):
        assert kind_products(F, exps, q) == {kind: el.eval_q(q) for kind, el in sym.items()}


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
    # multi-term operands with a unit term: (A + a1) o (B + b1) is
    # A o B + a (1 o B) + b (A o 1) + ab (1 o 1), each filed by its convention
    big_a, big_b = el((1,), (2, 1)).scale(3) + el((1, 2)), el((1, 1)) - el((1,)).scale(Q)
    keeps = {RIGHT: (1, 0), LEFT: (0, 1), MIDDLE: (0, 0), STAR: (1, 1)}  # 1 o y = y, x o 1 = x
    for kind, (left_unit, right_unit) in keeps.items():
        for a, b in ((2, 0), (0, -5), (Q, 0), (0, 1), (2, -5)):
            x, y = big_a + one.scale(a), big_b + one.scale(b)
            if a and b and kind != STAR:
                with pytest.raises(ValueError, match="1 o 1"):
                    bilinear_extend(_rule, kind, x, y)
                continue
            want = Element.sum(F, (
                (bilinear_extend(_rule, kind, big_a, big_b), 1),
                (big_b, a * left_unit),
                (big_a, b * right_unit),
                (one, a * b),
            ))
            assert bilinear_extend(_rule, kind, x, y) == want, (kind, a, b)
            assert bilinear_extend(_rule, kind, y, x) == Element.sum(F, (
                (bilinear_extend(_rule, kind, big_b, big_a), 1),
                (big_a, b * left_unit),
                (big_b, a * right_unit),
                (one, a * b),
            )), (kind, b, a)
    # a rule that answers in another family is refused on this path too
    foreign = lambda u, v: Element.basis("tree", ((), ()))
    for kind in (*KINDS, STAR):
        with pytest.raises(ValueError, match="family mismatch"):
            bilinear_extend(foreign, kind, big_a + one, big_b)


@pytest.mark.parametrize("qval", [None, 0, 1, 5])
def test_rtilde_unit_conventions_on_multi_term_operands(qval):
    """(A + a1) rt (B + b1) = A > B + q A.B + a B: 1 rt y = y, x rt 1 = 0,
    and 1 rt 1 raises; a foreign family raises."""
    q = Q if qval is None else qval
    for name in ALGEBRA_NAMES:
        h = get_algebra(name)
        one = Element.unit_element(name)
        objs = [o for d in (1, 2) for o in h.basis(d)]
        big_a = Element(name, {o: k + 1 for k, o in enumerate(objs[::2])})
        big_b = Element(name, {o: 2 - k * q for k, o in enumerate(objs[1::2])})
        core = Element.sum(name, (
            (el_product(h, RIGHT, big_a, big_b, qval), 1),
            (el_product(h, MIDDLE, big_a, big_b, qval), q),
        ))
        for a, b in ((3, 0), (0, -2), (q, 0), (0, 0)):
            got = el_rtilde(h, big_a + one.scale(a), big_b + one.scale(b), qval)
            assert got == core + big_b.scale(a), (name, a, b)
        with pytest.raises(ValueError, match="1 o 1"):
            el_rtilde(h, big_a + one, big_b - one, qval)
        other = "tree" if name != "tree" else "st"
        with pytest.raises(ValueError, match="family mismatch"):
            el_rtilde(h, big_a, Element.basis(other, objs[0]), qval)
        foreign = SimpleNamespace(
            name=name, product=lambda kind, x, y, qval=None: Element.basis(other, x)
        )
        with pytest.raises(ValueError, match="family mismatch"):
            el_rtilde(foreign, big_a + one, big_b, qval)


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
    assert interior_items(t) == [(((1,), (2, 1)), 1)]
    # unit legs on either side, at a scale; a sum that cancels is dropped
    raw = file_tensor({}, F, UNIT, b, 3)
    file_tensor(raw, F, a, UNIT, -2)
    assert raw == {(UNIT, (2, 1)): 3, ((1,), UNIT): -2, (UNIT, UNIT): -2}
    file_tensor(raw, F, UNIT, b.scale(3), -1)
    assert filed_tensor(F, raw) == Tensor2(F, {((1,), UNIT): -2, (UNIT, UNIT): -2})


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
    # a pair (a, b) enters the sum as a (x) b, built by file_tensor
    tensors = [
        (p if isinstance(p, Tensor2) else filed_tensor(F, file_tensor({}, F, *p)), s)
        for p, s in parts
    ]
    got = Tensor2.sum(F, tensors)
    assert got == fold
    raw: dict = {}
    for p, s in parts:
        if isinstance(p, Tensor2):
            file_terms(raw, p.terms.items(), s)
        else:
            file_tensor(raw, F, *p, s)
    assert filed_tensor(F, raw) == fold
    assert got.is_zero() or not cancel
    assert [_snapshot(p) for p, _ in parts] == before


def test_sums_reject_a_foreign_family():
    with pytest.raises(ValueError):
        Element.sum(F, [(Element.basis("tree", ((), ())), 1)])
    with pytest.raises(ValueError):
        Tensor2.sum(F, [(tensor_of(*[Element.basis("tree", ((), ()))] * 2), 1)])
    for legs in ((Element.basis("tree", ((), ())), UNIT), (UNIT, Element.basis("tree", ((), ())))):
        with pytest.raises(ValueError, match="family mismatch"):
            file_tensor({}, F, *legs)


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


def _dropping(h, x, cut):
    """h's coproduct with the one term cut of Delta(x) dropped."""
    bad = Tensor2(h.name, {k: c for k, c in h.coproduct(x).terms.items() if k != cut})
    return lambda o: bad if o == x else h.coproduct(o)


@pytest.mark.parametrize("name", ["st", "pqsym"])
def test_one_pass_coassociativity_agrees_with_the_flattened_sides(name):
    # the flattened sides are built by the reference, not by tensor_flatten
    # dropping one of the cuts of Delta(x) breaks coassociativity exactly
    # when another cut is left: with none, Delta(x) = 1 (x) x + x (x) 1 is
    # coassociative again
    h = get_algebra(name)
    cop = h.coproduct
    faults = 0
    for n in range(1, 6):
        for x in h.basis(n):
            assert is_coassociative(cop(x), cop) and coassociative_reference(cop(x), cop), x
            cuts = list(cop(x).interior().terms)
            for cut in cuts:
                bad = _dropping(h, x, cut)
                holds = is_coassociative(bad(x), bad)
                assert holds == coassociative_reference(bad(x), bad) == (len(cuts) == 1), (x, cut)
                faults += not holds
    assert faults > 1000


def test_coassociativity_sees_a_dropped_or_doubled_cut():
    h = get_algebra("st")
    x, cut = (1, 2, 3), ((1,), (1, 2))
    bad = _dropping(h, x, cut)
    assert not is_coassociative(bad(x), bad)
    doubled = Tensor2(F, {**h.coproduct(x).terms, cut: 2})
    assert not is_coassociative(doubled, lambda o: doubled if o == x else h.coproduct(o))
    # coefficients other than 1, and a unit leg inside a tensor
    assert is_coassociative(h.coproduct(x).scale(3), h.coproduct)
    t = tensor_of(el((1,)) + Element.unit_element(F), el((1, 2)).scale(2))
    assert not is_coassociative(t, h.coproduct) and not coassociative_reference(t, h.coproduct)
