"""Every stored coefficient has one canonical form: a nonzero int when it is
constant, else a QPoly with a positive power of q.  So every coefficient
at an integer q is an int, and equal Elements compare and hash alike
however they were built."""

from __future__ import annotations

import pytest

from qtridend.algebras import ALGEBRA_NAMES, compat_rhs, el_coproduct, el_product, get_algebra
from qtridend.grammar import parse_basis, parse_element, parse_tensor2
from qtridend.linear import KINDS, STAR, UNIT, Element, Tensor2, tensor_flatten, tensor_of
from qtridend.qpoly import QPoly, evaluate, to_pairs

QS = (None, 0, 1, 5)
MAX_TOTAL = 4
F = "st"


def _is_canonical(c) -> bool:
    if isinstance(c, QPoly):
        return c.degree() > 0
    return type(c) is int and c != 0


def _assert_canonical(x, where) -> None:
    """Every coefficient of an Element, a Tensor2 or a rank-3 dict."""
    terms = x if isinstance(x, dict) else x.terms
    bad = [(k, c) for k, c in terms.items() if not _is_canonical(c)]
    if isinstance(x, Element) and not (type(x.unit) is int and x.unit == 0):
        bad += [] if _is_canonical(x.unit) else [(UNIT, x.unit)]
    assert bad == [], where


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_products_and_coproducts_store_canonical_coefficients(name):
    h = get_algebra(name)
    for q in QS:
        for n in range(1, MAX_TOTAL):
            for x in h.basis(n):
                for m in range(1, MAX_TOTAL - n + 1):
                    for y in h.basis(m):
                        for kind in KINDS + (STAR,):
                            _assert_canonical(h.product(kind, x, y, q), (kind, x, y, q))
        for n in range(1, MAX_TOTAL + 1):
            for x in h.basis(n):
                cop = h.coproduct(x, q)
                _assert_canonical(cop, (x, q))
                if q is not None:
                    continue
                # the symbolic coproducts of st, pqsym and mperm are q-free
                assert name == "tree" or all(type(c) is int for c in cop.terms.values())


@pytest.mark.parametrize("q", QS)
def test_element_operations_store_canonical_coefficients(q):
    h = get_algebra("tree")
    x = parse_element("tree", "V(|,|) + q*V(V(|,|),|) + 2*1")
    y = parse_element("tree", "3*V(|,V(|,|)) - q^2*V(|,|,|)")
    if q is not None:
        x, y = x.eval_q(q), y.eval_q(q)
    _assert_canonical(x, "parsed")
    for kind in KINDS + (STAR,):
        _assert_canonical(el_product(h, kind, x, y, q), kind)
    _assert_canonical(Element.sum("tree", [(x, 1), (y, QPoly.q_power(1)), (x, -1)]), "sum")
    _assert_canonical(el_coproduct(h, x, q), "coproduct")
    a, b = parse_basis("tree", "V(|,|)"), parse_basis("tree", "V(V(|,|),|)")
    _assert_canonical(compat_rhs(h, STAR, a, b, q), "compat_rhs")
    t = tensor_of(x, y)
    _assert_canonical(t, "tensor_of")
    _assert_canonical(tensor_flatten(t, "left", lambda o: h.coproduct(o, q)), "flatten")


def test_constant_sums_settle_to_ints():
    a = Element.basis(F, (1,))
    q = QPoly.q_power(1)
    # the q parts cancel and leave a constant held in an exponent dict
    el = Element.sum(F, [(a, QPoly({0: 2, 1: 1})), (a, -q), (Element.unit_element(F), q - q + 3)])
    assert el.coeff((1,)) == 2 and type(el.coeff((1,))) is int
    assert type(el.unit) is int and el.unit == 3
    assert type(a.scale(QPoly.const(3)).coeff((1,))) is int
    assert type((a.scale(q) - a.scale(q - 1)).coeff((1,))) is int
    t = Tensor2.sum(F, [((a, a), QPoly({0: 1, 1: 1})), ((a, UNIT), 1), ((a, a), -q)])
    assert all(type(c) is int for c in t.terms.values())
    assert type(parse_element(F, "2*(1) + 3").coeff((1,))) is int
    assert type(parse_tensor2(F, "2*(1) # (1)").terms[((1,), (1,))]) is int


def test_qpoly_constants_equal_and_hash_like_ints():
    assert QPoly({0: 3}) == 3 and 3 == QPoly({0: 3})
    assert hash(QPoly({0: 3})) == hash(3)
    assert QPoly() == 0 and hash(QPoly()) == hash(0)
    assert QPoly({1: 3}) != 3
    q = QPoly.q_power(1)
    assert q + 2 == 2 + q == QPoly({0: 2, 1: 1})
    assert q - 2 == QPoly({0: -2, 1: 1})
    assert 2 - q == QPoly({0: 2, 1: -1})
    assert isinstance(q - q + 3, QPoly)  # QPoly op QPoly stays a QPoly


def test_public_constructors_canonicalize():
    built = Element(F, {(1,): QPoly.const(3), (2, 1): QPoly.q_power(1), (1, 1): QPoly()}, QPoly.const(2))
    summed = Element.sum(
        F,
        [
            (Element.basis(F, (1,)), 3),
            (Element.basis(F, (2, 1)), QPoly.q_power(1)),
            (Element.unit_element(F), 2),
        ],
    )
    assert built == summed and hash(built) == hash(summed)
    assert type(built.coeff((1,))) is int and type(built.unit) is int
    assert built.support() == {(1,), (2, 1)}
    t = Tensor2(F, {((1,), UNIT): QPoly.const(-1), (UNIT, (1,)): 0})
    assert t == Tensor2.sum(F, [((Element.basis(F, (1,)), UNIT), -1)])
    assert type(t.terms[((1,), UNIT)]) is int


def test_ring_neutral_helpers():
    p = QPoly({0: 1, 2: -3})
    assert to_pairs(p) == [[0, 1], [2, -3]]
    assert to_pairs(4) == [[0, 4]] and to_pairs(0) == []
    assert evaluate(p, 2) == -11 and evaluate(-7, 2) == -7
