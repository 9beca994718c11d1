from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st_

from qtridend.qpoly import (
    HALF,
    X,
    QPoly,
    decode,
    evaluate,
    render_qpoly,
    term_text,
)

polys = st_.dictionaries(
    st_.integers(min_value=0, max_value=8),
    st_.integers(min_value=-9, max_value=9),
    max_size=5,
).map(QPoly)


def test_constructors():
    assert QPoly.zero().is_zero()
    assert not QPoly.one().is_zero()
    assert QPoly.const(0).is_zero()
    assert QPoly.const(3).m == {0: 3}
    assert QPoly.q_power(2).m == {2: 1}
    assert QPoly.q_power(1, -4).m == {1: -4}
    assert QPoly({0: 1, 2: 0}).m == {0: 1}


def test_q_power_rejects_negative_exponent():
    try:
        QPoly.q_power(-1)
    except ValueError:
        pass
    else:
        assert False, "negative exponent must raise"


def test_eq_and_hash():
    assert QPoly.const(2) == 2
    assert QPoly.zero() == 0
    assert QPoly.q_power(1) != 1
    assert hash(QPoly({1: 2, 0: 3})) == hash(QPoly({0: 3, 1: 2}))


def test_arithmetic_small():
    p = QPoly.q_power(1) + QPoly.const(2)
    assert (p - p).is_zero()
    assert (-p) + p == QPoly.zero()
    assert p * QPoly.q_power(1) == QPoly({2: 1, 1: 2})
    assert 3 * p == QPoly({1: 3, 0: 6})
    assert p.shift(2) == QPoly({3: 1, 2: 2})
    assert p.shift(0) is p


def test_eval_degree():
    p = QPoly({3: 2, 1: -1, 0: 5})
    assert p.eval(0) == 5
    assert p.eval(1) == 6
    assert p.eval(2) == 2 * 8 - 2 + 5
    assert p.degree() == 3
    assert QPoly.zero().degree() == -1
    assert QPoly.zero().eval(7) == 0


@given(polys, polys)
def test_add_matches_eval(a, b):
    s = a + b
    for q in (0, 1, 2, 5):
        assert s.eval(q) == a.eval(q) + b.eval(q)


@given(polys, polys)
def test_mul_matches_eval(a, b):
    p = a * b
    for q in (0, 1, 2, 5):
        assert p.eval(q) == a.eval(q) * b.eval(q)


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * QPoly.one() == a
    assert a + QPoly.zero() == a


def test_pairs_round_trip():
    p = QPoly({2: -3, 0: 1})
    assert p.to_pairs() == [[0, 1], [2, -3]]
    assert QPoly.from_pairs(p.to_pairs()) == p
    assert QPoly.from_pairs([[1, 2], [1, -2]]).is_zero()


def test_encoding_round_trips_through_balanced_digits():
    assert int(QPoly.q_power(1)) == X and int(QPoly({0: 3, 2: -1})) == 3 - X * X
    assert decode(X - 1).m == {1: 1, 0: -1}
    assert decode(-X).m == {1: -1}
    assert decode(HALF - 1).m == {0: HALF - 1} and decode(-HALF + 1).m == {0: 1 - HALF}
    assert decode(HALF).m == {1: 1, 0: -HALF}  # the first value that is not a constant
    assert decode(0).is_zero()
    assert evaluate(X * X - 2 * X + 7, 3) == 9 - 6 + 7 and evaluate(-7, 2) == -7
    assert (QPoly({0: 1}) + QPoly({0: -1})).is_zero()
    assert QPoly({1: 2}) * QPoly({2: 3}) == QPoly({3: 6})


@given(polys)
def test_decode_inverts_int(p):
    assert decode(int(p)).m == p.m


def test_render():
    assert render_qpoly(QPoly.zero()) == "0"
    assert str(QPoly({2: 1, 1: -1, 0: 3})) == "q^2 - q + 3"
    assert str(QPoly({1: -1})) == "-q"
    assert term_text(5, 0) == "5"
    assert term_text(-1, 2) == "-q^2"
    assert term_text(2, 1) == "2*q"


def test_encoding_refuses_a_coefficient_past_half_of_x():
    assert int(QPoly({3: HALF - 1, 0: 1 - HALF})) == (HALF - 1) * X**3 + 1 - HALF
    for c in (HALF, -HALF, 2**70):
        with pytest.raises(ValueError, match="too large for symbolic q"):
            int(QPoly({1: c}))
    big = QPoly({0: 2**70})
    assert big != 2**70 and big == QPoly({0: 2**70}) and hash(big) == hash(QPoly({0: 2**70}))


def test_arithmetic_stays_exact_past_half_of_x():
    assert QPoly.const(2**32) * QPoly.const(2**32) == QPoly.const(2**64)
    assert (QPoly.const(2**32) * QPoly.const(2**32)).m == {0: 2**64}
    assert (QPoly.const(HALF - 1) + QPoly.const(HALF - 1)).m == {0: X - 2}
    assert (QPoly.const(-HALF) - QPoly.const(HALF)).m == {0: -X}
    assert (-QPoly({2: 2**70})).m == {2: -(2**70)}
    assert QPoly.from_pairs([[0, 2**64]]).m == {0: 2**64}
    # An int operand is the polynomial it encodes: a constant below X/2.
    assert (QPoly.const(HALF - 1) + (HALF - 1)).m == {0: X - 2}
    assert (QPoly.q_power(1) * X).m == {2: 1}
    assert (1 - QPoly.q_power(1)).m == {0: 1, 1: -1}


big_polys = st_.dictionaries(
    st_.integers(min_value=0, max_value=4),
    st_.integers(min_value=-(2**80), max_value=2**80),
    max_size=4,
).map(QPoly)


@given(big_polys, big_polys)
def test_big_coefficient_arithmetic_matches_eval(a, b):
    for q in (-2, 0, 1, 3):
        assert (a + b).eval(q) == a.eval(q) + b.eval(q)
        assert (a - b).eval(q) == a.eval(q) - b.eval(q)
        assert (a * b).eval(q) == a.eval(q) * b.eval(q)
