"""Renders read through the basis-text memo and `qpoly.digits`; they must
equal, byte for byte, the long route of `tests/reference.py`, which renders
every basis object afresh and decodes every coefficient into a QPoly."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st_

import qtridend
from qtridend.algebras import ALGEBRA_NAMES, get_algebra
from qtridend.grammar import (
    element_to_json,
    render_basis,
    render_element,
    render_tensor2,
    tensor2_to_json,
)
from qtridend.linear import UNIT, Element, Tensor2
from qtridend.qpoly import QPoly
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
