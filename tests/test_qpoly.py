from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st_

from qtridend.grammar import render_element
from qtridend.linear import Element
from qtridend.qpoly import (
    HALF,
    X,
    QPoly,
    decode,
    digits,
    evaluate,
    q_power,
    term_prefix,
    to_pairs,
)

polys = st_.dictionaries(
    st_.integers(min_value=0, max_value=8),
    st_.integers(min_value=-9, max_value=9),
    max_size=5,
).map(QPoly)
Q = q_power(1, None)


def ev(p: QPoly, q: int) -> int:
    return sum(c * q**e for e, c in p.m.items())


def test_constructors():
    assert not QPoly() and not QPoly({0: 0})
    assert QPoly({0: 1}) and QPoly({0: 3}).m == {0: 3}
    assert QPoly({0: 1, 2: 0}).m == {0: 1}
    assert decode(q_power(2, None)).m == {2: 1} and decode(-4 * Q).m == {1: -4}


def test_q_power_rejects_negative_exponent():
    with pytest.raises(ValueError, match="negative q exponent"):
        q_power(-1, None)


def test_eq_and_hash():
    assert QPoly({0: 2}) == 2
    assert QPoly() == 0
    assert QPoly({1: 1}) != 1
    assert hash(QPoly({1: 2, 0: 3})) == hash(QPoly({0: 3, 1: 2}))


def test_arithmetic_small():
    p = QPoly({1: 1, 0: 2})
    assert p * QPoly({1: 1}) == QPoly({2: 1, 1: 2})
    assert 3 * p == QPoly({1: 3, 0: 6})
    assert p + QPoly({1: -1, 0: -2}) == 0 and not p + QPoly({1: -1, 0: -2})
    assert p * q_power(2, None) == QPoly({3: 1, 2: 2}) == int(p) * q_power(2, None)


def test_eval_degree():
    c = 2 * q_power(3, None) - Q + 5
    assert evaluate(c, 0) == 5
    assert evaluate(c, 1) == 6
    assert evaluate(c, 2) == 2 * 8 - 2 + 5
    assert evaluate(0, 7) == 0 and evaluate(-7, 2) == -7
    assert evaluate(QPoly({3: 2, 1: -1, 0: 5}), 2) == evaluate(c, 2)


@given(polys, polys)
def test_add_matches_eval(a, b):
    s = a + b
    for q in (0, 1, 2, 5):
        assert ev(s, q) == ev(a, q) + ev(b, q)


@given(polys, polys)
def test_mul_matches_eval(a, b):
    p = a * b
    for q in (0, 1, 2, 5):
        assert ev(p, q) == ev(a, q) * ev(b, q)


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    # The ring is the int: + and * on the encodings are + and * on the
    # polynomials, so long as no coefficient reaches X/2.
    x, y, z = int(a), int(b), int(c)
    assert decode(x + y) == a + b and decode(x * y) == a * b
    assert decode((x + y) * z) == (a + b) * c == a * c + b * c
    assert a * 1 == a and a + 0 == a


def test_pairs_round_trip():
    c = int(QPoly({2: -3, 0: 1}))
    assert to_pairs(c) == [[0, 1], [2, -3]] and digits(c) == [(0, 1), (2, -3)]
    assert to_pairs(QPoly({2: -3, 0: 1})) == to_pairs(c)
    assert to_pairs(-7, 5) == [[0, -7]] and to_pairs(0) == [] and to_pairs(X, 5) == [[0, X]]


def test_encoding_round_trips_through_balanced_digits():
    assert int(QPoly({1: 1})) == X and int(QPoly({0: 3, 2: -1})) == 3 - X * X
    assert decode(X - 1).m == {1: 1, 0: -1}
    assert decode(-X).m == {1: -1}
    assert decode(HALF - 1).m == {0: HALF - 1} and decode(-HALF + 1).m == {0: 1 - HALF}
    assert decode(HALF).m == {1: 1, 0: -HALF}  # the first value that is not a constant
    assert not decode(0)
    assert evaluate(X * X - 2 * X + 7, 3) == 9 - 6 + 7 and evaluate(-7, 2) == -7
    assert not QPoly({0: 1}) + QPoly({0: -1})
    assert QPoly({1: 2}) * QPoly({2: 3}) == QPoly({3: 6})


@given(polys)
def test_decode_inverts_int(p):
    assert decode(int(p)).m == p.m


def test_render():
    # A scalar renders as a multiple of the unit, through `term_prefix`.
    def text(c):
        return render_element(Element("st", {}, c))

    assert text(0) == "0"
    assert text(int(QPoly({2: 1, 1: -1, 0: 3}))) == "q^2*1 - q*1 + 3*1"
    assert text(-Q) == "-q*1"
    assert text(5) == "5*1" and text(-q_power(2, None)) == "-q^2*1" and text(2 * Q) == "2*q*1"
    assert text(1) == "1" and text(-1) == "-1"


def test_term_prefix_is_the_text_before_the_basis_text():
    cases = {
        (1, 0): "", (-1, 0): "-", (3, 0): "3*", (-12, 0): "-12*",
        (1, 1): "q*", (-1, 2): "-q^2*", (3, 2): "3*q^2*", (-5, 64): "-5*q^64*",
    }
    assert {ce: term_prefix(*ce) for ce in cases} == cases


def test_encoding_refuses_a_coefficient_past_half_of_x():
    assert int(QPoly({3: HALF - 1, 0: 1 - HALF})) == (HALF - 1) * X**3 + 1 - HALF
    for c in (HALF, -HALF, 2**70):
        with pytest.raises(ValueError, match="too large for symbolic q"):
            int(QPoly({1: c}))
    big = QPoly({0: 2**70})
    assert big != 2**70 and big == QPoly({0: 2**70}) and hash(big) == hash(QPoly({0: 2**70}))


def test_arithmetic_stays_exact_past_half_of_x():
    assert (QPoly({0: 2**32}) * QPoly({0: 2**32})).m == {0: 2**64}
    assert (QPoly({0: HALF - 1}) + QPoly({0: HALF - 1})).m == {0: X - 2}
    # An int operand is the polynomial it encodes: a constant below X/2.
    assert (QPoly({0: HALF - 1}) + (HALF - 1)).m == {0: X - 2}
    assert (QPoly({1: 1}) * X).m == {2: 1}


big_polys = st_.dictionaries(
    st_.integers(min_value=0, max_value=4),
    st_.integers(min_value=-(2**80), max_value=2**80),
    max_size=4,
).map(QPoly)


@given(big_polys, big_polys)
def test_big_coefficient_arithmetic_matches_eval(a, b):
    for q in (-2, 0, 1, 3):
        assert ev(a + b, q) == ev(a, q) + ev(b, q)
        assert ev(a * b, q) == ev(a, q) * ev(b, q)
