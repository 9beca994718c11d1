from __future__ import annotations

import random
import re

import pytest

from qtridend.algebras import ALGEBRA_NAMES, get_algebra
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
from reference import parse_element_reference, parse_qpoly


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


@pytest.mark.parametrize("text", ["[(1,1)]", "[(1,1,2)]", "[(2), ( 1 , 3 , 1 )]"])
def test_parse_mperm_refuses_a_value_repeated_in_a_block(text):
    # the block is not folded to a set: [(1,1)] is not [(1)]
    message = f"repeated value in a block of {text.strip()!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_mperm(text)


@pytest.mark.parametrize("family", ALGEBRA_NAMES)
@pytest.mark.parametrize("text", ["", "   ", " \t\n"])
def test_blank_text_is_refused_and_0_stays_the_zero(family, text):
    for parse in (parse_element, parse_tensor2):
        for qval in (None, 1):
            with pytest.raises(ValueError, match="^empty element; the zero is written 0$"):
                parse(family, text, qval)
    assert parse_element(family, " 0 ").is_zero()
    assert parse_tensor2(family, " 0 ").is_zero()


@pytest.mark.parametrize("family", ALGEBRA_NAMES)
def test_parse_tensor2_takes_a_zero_term_where_parse_element_does(family):
    x = get_algebra(family).basis(2)[0]
    pair = f"{render_basis(family, x)} # 1"
    for qval in (None, 0, 1):
        for zero in ("0", "-0", " - 0 ", "0*q^2", "3*0"):
            assert parse_element(family, zero, qval).is_zero()
            assert parse_tensor2(family, zero, qval).is_zero()
        want = parse_tensor2(family, pair, qval)
        assert parse_tensor2(family, f"0 + {pair}", qval) == want
        assert parse_tensor2(family, f"{pair} - 0", qval) == want
        assert parse_tensor2(family, f"-0 + {pair} + 0*q", qval) == want


@pytest.mark.parametrize("text", ["(1)", "3", "q", "0 + (1)", "(1,3)"])
def test_parse_tensor2_still_needs_a_separator_in_a_nonzero_term(text):
    chunk = text.split("+")[-1].strip()
    with pytest.raises(ValueError, match=f"^tensor term without separator: {re.escape(repr(chunk))}$"):
        parse_tensor2("st", text)


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


_UNIT_TERMS = ("1", "3", "q*1", "2*q^2*1", "0")
_PREFIXES = ("", "2*", "q*", "3*q^2*", "q*2*")


def _parse_texts(family: str, rng: random.Random) -> list:
    """Element texts of 1-6 terms over the basis to degree 3: unit terms
    and bare integers among them, a leading minus, a repeated term, and a
    term with its negation, so that some cancel to 0."""
    objs = [render_basis(family, o) for d in (1, 2, 3) for o in get_algebra(family).basis(d)]
    texts = []
    for _ in range(40):
        terms = [
            rng.choice(_UNIT_TERMS)
            if rng.random() < 0.2
            else rng.choice(_PREFIXES) + rng.choice(objs)
            for _ in range(rng.randint(1, 6))
        ]
        signs = [rng.choice("+-") for _ in terms]
        if rng.random() < 0.4:  # a repeated term
            terms.append(terms[0])
            signs.append(signs[0])
        if rng.random() < 0.4:  # a term and its negation
            terms.append(terms[-1])
            signs.append("-" if signs[-1] == "+" else "+")
        head = ("-" if signs[0] == "-" else "") + terms[0]
        texts.append(head + "".join(f" {sg} {t}" for sg, t in zip(signs[1:], terms[1:])))
    pairs = [f"{t} - {t}" for t in rng.sample(objs, 3)]
    return texts + pairs + ["q*1 - q*1", "-2*q*1 + q*2*1 + 0"]


@pytest.mark.parametrize("qval", [None, 0, 1, 5])
@pytest.mark.parametrize("family", ALGEBRA_NAMES)
def test_parse_element_matches_the_per_term_fold(family, qval):
    """parse_element files every term into one accumulator; the reference
    builds an Element per term and sums them."""
    rng = random.Random(f"{family} {qval}")
    zeros = 0
    for text in _parse_texts(family, rng):
        got = parse_element(family, text, qval)
        assert got == parse_element_reference(family, text, qval), text
        zeros += got.is_zero()
    assert zeros >= 5  # the cancelling texts render as 0
    assert render_element(parse_element(family, "q*1 - q*1", qval), qval) == "0"


_REFUSALS = [
    ("foo", "(1)", "unknown family 'foo'"),
    ("st", "V(|,|)", "bad word literal: 'V(|,|)'"),
    ("tree", "(1,2)", "bad tree literal near '(1,2)'"),
    ("mperm", "(1)", "bad multipermutation literal: '(1)'"),
    ("st", "(1,x) + (1)", "bad word literal: '(1,x)'"),
    ("pqsym", "2*(3,1)", "not a parking function: (3,1)"),
    ("st", "q^x*(1)", "bad q factor 'q^x'"),
    ("st", "  ", "empty element; the zero is written 0"),
    ("mperm", "[(1,1,2)]", "repeated value in a block of '[(1,1,2)]'"),
    (
        "st",
        "9223372036854775808*(1)",
        "coefficients of '9223372036854775808*(1)' reach 2^63, too large for symbolic q",
    ),
    (
        "pqsym",
        "4611686018427387904*(1) - 4611686018427387904*(1,1)",
        "coefficients of '4611686018427387904*(1) - 4611686018427387904*(1,1)' reach 2^63,"
        " too large for symbolic q",
    ),
]


@pytest.mark.parametrize("family, text, message", _REFUSALS)
def test_parse_element_refusals_are_those_of_the_per_term_fold(family, text, message):
    """The messages are pinned as the per-term fold gave them; a sum of
    magnitudes that reaches 2^63 is refused only for symbolic q."""
    qvals = [None] if "2^63" in message else [None, 0, 1, 5]
    for qval in qvals:
        for parse in (parse_element, parse_element_reference):
            with pytest.raises(ValueError) as info:
                parse(family, text, qval)
            assert str(info.value) == message, (parse, qval)
