"""Renders read through the basis-text memo and `qpoly.digits`, once per
distinct coefficient of each output; they must equal, byte for byte, the
long route of `tests/reference.py`, which renders every basis object
afresh and decodes every coefficient of every term into a QPoly."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st_

import qtridend
from qtridend import qpoly
from qtridend.algebras import ALGEBRA_NAMES, get_algebra
from qtridend.grammar import (
    element_to_json,
    render_basis,
    render_element,
    render_tensor2,
    tensor2_to_json,
)
from qtridend.linear import UNIT, Element, Tensor2
from qtridend.memo import CACHES
from qtridend.qpoly import HALF, MAX_EXPONENT, QPoly
from reference import (
    element_to_json_reference,
    render_element_reference,
    render_tensor2_reference,
    tensor2_to_json_reference,
)

BASES = {name: [o for n in range(1, 5) for o in get_algebra(name).basis(n)] for name in ALGEBRA_NAMES}


def assert_renders_by_the_long_route(x, qval=None):
    if isinstance(x, Tensor2):
        assert render_tensor2(x, qval) == render_tensor2_reference(x, qval)
        got, want = tensor2_to_json(x, qval), tensor2_to_json_reference(x, qval)
    else:
        assert render_element(x, qval) == render_element_reference(x, qval)
        got, want = element_to_json(x, qval), element_to_json_reference(x, qval)
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("family", ALGEBRA_NAMES)
def test_every_basis_object_to_degree_four_renders_by_the_long_route(family):
    h = get_algebra(family)
    qtridend.clear_caches()
    for obj in BASES[family]:
        for _ in range(2):  # rendered afresh, then read from the memo
            assert_renders_by_the_long_route(Element.basis(family, obj))
            assert_renders_by_the_long_route(h.coproduct(obj))
        assert render_basis(family, obj) == render_element_reference(Element.basis(family, obj))
    # one element of them all, each with its own signed q-monomial
    terms = {o: int(QPoly({i % 9: (-1) ** i * (i % 4 + 1)})) for i, o in enumerate(BASES[family])}
    assert_renders_by_the_long_route(Element(family, terms, int(QPoly({0: -1, 3: 2}))))


# Digits of +-1 (the terms printed without a number) and up to 2^40, at
# exponents 0-8: with or without a constant term, and with a negative
# leading digit about as often as a positive one.
_digit = st_.one_of(st_.sampled_from([1, -1]), st_.integers(-(2**40), 2**40))
coefficients = st_.dictionaries(st_.integers(0, 8), _digit, max_size=4).map(lambda m: int(QPoly(m)))
# Plain values under an int qval, past X/2 too.
plain_values = st_.one_of(st_.integers(-3, 3), st_.integers(-(2**200), 2**200))


@st_.composite
def elements(draw, coeffs=coefficients):
    family = draw(st_.sampled_from(ALGEBRA_NAMES))
    objs = draw(st_.lists(st_.sampled_from(BASES[family]), max_size=6, unique=True))
    return Element(family, {o: draw(coeffs) for o in objs}, draw(coeffs))


@st_.composite
def tensors(draw, coeffs=coefficients):
    """Tensors whose legs may be the unit."""
    family = draw(st_.sampled_from(ALGEBRA_NAMES))
    leg = st_.one_of(st_.just(UNIT), st_.sampled_from(BASES[family]))
    keys = draw(st_.lists(st_.tuples(leg, leg), max_size=6, unique=True))
    return Tensor2(family, {k: draw(coeffs) for k in keys})


@given(elements())
def test_symbolic_elements_render_by_the_long_route(el):
    assert_renders_by_the_long_route(el)


@given(tensors())
def test_symbolic_tensors_render_by_the_long_route(t):
    assert_renders_by_the_long_route(t)


@given(st_.one_of(elements(plain_values), tensors(plain_values)), st_.integers(-2, 5))
def test_values_under_an_int_q_render_by_the_long_route(x, qval):
    assert_renders_by_the_long_route(x, qval)


# Many terms over a few distinct coefficients, so the per-output table is
# read far more often than it is filled: +-1, small constants, and values
# of up to three digits at exponents up to the grammar's largest.
_shared_coefficient = st_.one_of(
    st_.sampled_from([1, -1]),
    st_.integers(-9, 9),
    st_.dictionaries(st_.integers(0, MAX_EXPONENT), _digit, min_size=1, max_size=3).map(
        lambda m: int(QPoly(m))
    ),
).filter(bool)


@st_.composite
def shared_coefficients(draw):
    """(element or tensor, qval): up to 24 terms, and maybe a unit term,
    over at most 3 distinct coefficients; tensor legs may be the unit."""
    family = draw(st_.sampled_from(ALGEBRA_NAMES))
    palette = draw(st_.lists(_shared_coefficient, min_size=1, max_size=3, unique=True))
    coeff = st_.sampled_from(palette)
    if draw(st_.booleans()):
        leg = st_.one_of(st_.just(UNIT), st_.sampled_from(BASES[family]))
        keys = draw(st_.lists(st_.tuples(leg, leg), max_size=24, unique=True))
        x = Tensor2(family, {k: draw(coeff) for k in keys})
    else:
        objs = draw(st_.lists(st_.sampled_from(BASES[family]), max_size=24, unique=True))
        x = Element(family, {o: draw(coeff) for o in objs}, draw(st_.one_of(st_.just(0), coeff)))
    return x, draw(st_.one_of(st_.none(), st_.integers(-2, 5)))


@given(shared_coefficients())
def test_terms_sharing_coefficients_render_by_the_long_route(case):
    assert_renders_by_the_long_route(*case)


def _counting_decode(monkeypatch) -> list:
    """Count the calls of `qpoly.decode` from here on."""
    calls, decode = [], qpoly.decode
    monkeypatch.setattr(qpoly, "decode", lambda c: calls.append(c) or decode(c))
    return calls


@pytest.mark.parametrize("render", [render_element, element_to_json])
def test_each_render_decodes_each_distinct_symbolic_coefficient_once(monkeypatch, render):
    # three coefficients at or past X/2, two constants below it, twelve terms
    wide = [int(QPoly({0: 2, 3: -1})), int(QPoly({1: 1})), -HALF]
    pool = wide + [HALF - 1, -1]
    el = Element("st", {o: pool[i % 5] for i, o in enumerate(BASES["st"][:12])}, wide[1])
    calls = _counting_decode(monkeypatch)
    first = render(el)
    assert sorted(calls) == sorted(wide)
    # nothing is kept between calls: a second render decodes them again
    calls.clear()
    assert render(el) == first
    assert sorted(calls) == sorted(wide)


def test_json_terms_with_one_coefficient_get_lists_of_their_own():
    el = Element("st", {o: int(QPoly({2: 1})) for o in BASES["st"][:2]})
    terms = element_to_json(el)["terms"]
    assert terms[0]["coeff"] == terms[1]["coeff"]
    assert terms[0]["coeff"] is not terms[1]["coeff"]
    assert terms[0]["coeff"][0] is not terms[1]["coeff"][0]


def test_tensor_renders_decode_each_distinct_coefficient_once(monkeypatch):
    legs = [UNIT] + BASES["tree"][:5]
    coeffs = [int(QPoly({2: 3})), int(QPoly({0: -1, 1: 1}))]
    t = Tensor2("tree", {(l, r): coeffs[i % 2] for i, (l, r) in enumerate(zip(legs, legs[::-1]))})
    calls = _counting_decode(monkeypatch)
    for render in (render_tensor2, tensor2_to_json):
        calls.clear()
        render(t)
        assert sorted(calls) == sorted(coeffs)


def test_renders_add_no_cache():
    before = [id(c) for c in CACHES]
    x = Element("pqsym", {o: int(QPoly({1: 2})) for o in BASES["pqsym"][:20]})
    for qval in (None, 3):
        render_element(x, qval)
        element_to_json(x, qval)
        render_tensor2(get_algebra("pqsym").coproduct(BASES["pqsym"][-1]), qval)
    assert [id(c) for c in CACHES] == before
