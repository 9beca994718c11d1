from __future__ import annotations

import re

import pytest

from qtridend.grammar import (
    element_to_json,
    parse_basis,
    parse_element,
    parse_mperm,
    parse_tensor2,
    parse_tree,
    parse_word,
    render_basis,
    render_element,
    render_tensor2,
    tensor2_to_json,
)
from qtridend.linear import Element
from qtridend.qpoly import X, QPoly
from reference import parse_qpoly


def test_parse_word():
    assert parse_word("(1,2,1)") == (1, 2, 1)
    assert parse_word(" (3) ") == (3,)
    with pytest.raises(ValueError):
        parse_word("1,2")
    with pytest.raises(ValueError):
        parse_word("()")


def test_parse_tree():
    assert parse_tree("|") == ()
    assert parse_tree("V(|,V(|,|))") == ((), ((), ()))
    assert parse_tree("V(|,|,|)") == ((), (), ())
    with pytest.raises(ValueError):
        parse_tree("V(|")
    with pytest.raises(ValueError):
        parse_tree("V(|,|) x")


def test_parse_mperm():
    fs = frozenset
    assert parse_mperm("[(1,3),(2)]") == (fs({1, 3}), fs({2}))
    # bare integer singletons are accepted on input only
    assert parse_mperm("[(1,3),2]") == (fs({1, 3}), fs({2}))
    assert render_basis("mperm", (fs({1, 3}), fs({2}))) == "[(1,3),(2)]"
    with pytest.raises(ValueError):
        parse_mperm("(1,3)")
    with pytest.raises(ValueError):
        parse_mperm("[]")


def test_parse_basis_validates():
    assert parse_basis("st", "(2,1,2)") == (2, 1, 2)
    with pytest.raises(ValueError):
        parse_basis("st", "(1,3)")
    assert parse_basis("pqsym", "(1,1,2)") == (1, 1, 2)
    with pytest.raises(ValueError):
        parse_basis("pqsym", "(2,2)")
    with pytest.raises(ValueError):
        parse_basis("mperm", "[(1,2)]")
    with pytest.raises(ValueError):
        parse_basis("nope", "(1)")


def test_round_trip_basis():
    for fam, text in [
        ("st", "(2,1,3,5,3,4,4,1)"),
        ("pqsym", "(1,5,5,3,6,2,3)"),
        ("tree", "V(V(|,|),|,V(|,|,|))"),
        ("mperm", "[(1,3),(2),(5),(4)]"),
    ]:
        obj = parse_basis(fam, text)
        assert render_basis(fam, obj) == text
        assert parse_basis(fam, render_basis(fam, obj)) == obj


def test_parse_element():
    e = parse_element("st", "q*(1,2) + 2*(2,1) - (1,1)")
    assert e.coeff((1, 2)) == X
    assert e.coeff((2, 1)) == 2
    assert e.coeff((1, 1)) == -1
    assert render_element(e) == "-(1,1) + q*(1,2) + 2*(2,1)"
    assert parse_element("st", render_element(e)) == e
    assert parse_element("st", "0").is_zero()
    assert render_element(Element.zero("st")) == "0"


def test_parse_element_unit_terms():
    e = parse_element("st", "3 - q^2*(1,1)")
    assert e.unit == 3
    assert e.coeff((1, 1)) == -X * X
    assert render_element(e) == "-q^2*(1,1) + 3*1"
    assert parse_element("st", render_element(e)) == e


def test_parse_tensor():
    t = parse_tensor2("st", "(1) # (1) + q*(2,1) # 1")
    assert render_tensor2(t) == "(1) # (1) + q*(2,1) # 1"
    assert parse_tensor2("st", render_tensor2(t)) == t


def test_parse_qpoly():
    assert parse_qpoly("q^2 - 3*q + 1").m == {2: 1, 1: -3, 0: 1}
    assert not parse_qpoly("0")
    assert parse_qpoly("q") == QPoly({1: 1}) == X


def test_render_sorted_and_deterministic():
    e = parse_element("st", "(2,1) + (1,2) + (1,1)")
    assert render_element(e) == "(1,1) + (1,2) + (2,1)"


def test_json_shapes():
    e = parse_element("st", "q*(1,2) + 1")
    j = element_to_json(e)
    assert j["algebra"] == "st"
    assert j["terms"] == [{"basis": "(1,2)", "coeff": [[1, 1]]}]
    assert j["unit"] == [[0, 1]]
    t = parse_tensor2("st", "(1) # (1) + q*(2,1) # 1")
    jt = tensor2_to_json(t)
    assert {"left": "(2,1)", "right": "1", "coeff": [[1, 1]]} in jt["terms"]


@pytest.mark.parametrize("text", ["q - - 1", "q +", "- - q", "-"])
def test_parse_qpoly_refuses_an_empty_term(text):
    with pytest.raises(ValueError, match=re.escape(f"empty term in {text!r}")):
        parse_qpoly(text)


def test_parse_qpoly_keeps_a_single_leading_sign():
    assert parse_qpoly("-q + 1") == QPoly({1: -1, 0: 1}) == 1 - X


@pytest.mark.parametrize("text", ["(1) # 1 - - 1 # (1)", "(1) # 1 +"])
def test_parse_tensor2_refuses_an_empty_term(text):
    with pytest.raises(ValueError, match=re.escape(f"empty term in {text!r}")):
        parse_tensor2("st", text)


@pytest.mark.parametrize("family, text", [("st", f"(1,{'7' * 4301})"), ("mperm", f"[1,{'7' * 4301}]")])
def test_parse_basis_refuses_a_number_too_long_to_convert(family, text):
    with pytest.raises(ValueError, match="^number too long in '"):
        parse_basis(family, text)
