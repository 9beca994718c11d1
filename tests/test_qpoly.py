from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st_

from qtridend.qpoly import (
    QPoly,
    acc_add,
    acc_mul_add,
    qp_eval,
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
    assert qp_eval({}, 7) == 0


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


def test_raw_dict_helpers():
    d = {0: 1}
    acc_add(d, {0: -1, 2: 3})
    assert d == {2: 3}
    acc_add(d, {1: 1}, shift=1, scale=2)
    assert d == {2: 5}
    acc_mul_add(d, {1: 1}, {1: -5})
    assert d == {}
    assert (QPoly({0: 1}) + QPoly({0: -1})).is_zero()
    assert QPoly({1: 2}) * QPoly({2: 3}) == QPoly({3: 6})


def test_render():
    assert render_qpoly(QPoly.zero()) == "0"
    assert str(QPoly({2: 1, 1: -1, 0: 3})) == "q^2 - q + 3"
    assert str(QPoly({1: -1})) == "-q"
    assert term_text(5, 0) == "5"
    assert term_text(-1, 2) == "-q^2"
    assert term_text(2, 1) == "2*q"
