"""Parses read each term through the memo `grammar._term_cache`.  A warm
parse must equal a cold one and the memo's compute called directly, a
repeated term must not reach compute, and input that fails to parse must
leave every memo of the package as it was."""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st_

import qtridend
from qtridend.algebras import ALGEBRA_NAMES, get_algebra
from qtridend.grammar import (
    _split_top,
    _term_cache,
    parse_basis,
    parse_element,
    parse_tensor2,
    render_basis,
    render_element,
    render_tensor2,
)
from qtridend.linear import UNIT, Element, Tensor2
from qtridend.memo import CACHES
from qtridend.qpoly import QPoly, evaluate, q_power

BASES = {name: [o for n in range(1, 5) for o in get_algebra(name).basis(n)] for name in ALGEBRA_NAMES}


def _spaced(text: str) -> str:
    """The same literal with a space inside every bracket and around every comma."""
    return re.sub(r"([(\[,])", r"\1 ", text).replace(",", " ,").replace(")", " )").replace("]", " ]")


def _terms_by_compute(family: str, text: str) -> None:
    """Each term of text (the left leg of a tensor term) is in the memo,
    as compute gives it afresh."""
    for _, chunk in _split_top(text.strip()):
        left = chunk.split(" # ", 1)[0].strip()
        assert _term_cache.get((family, left)) == _term_cache.compute(family, left)


@pytest.mark.parametrize("family", ALGEBRA_NAMES)
def test_every_basis_literal_to_degree_four_parses_the_same_cold_warm_and_by_compute(family):
    qtridend.clear_caches()
    for obj in BASES[family]:
        text = render_basis(family, obj)
        for literal in (text, _spaced(text)):
            term = f"3*q^2*{literal}"
            assert (family, term) not in _term_cache
            cold = parse_element(family, term)
            warm = parse_element(family, term)
            assert cold == warm == Element(family, {obj: 3 * q_power(2, None)})
            assert _term_cache.compute(family, term) == _term_cache[family, term] == (3, 2, obj)
            tensor = f"{literal} # {literal} - {literal} # 1"
            cold = parse_tensor2(family, tensor)
            assert cold == parse_tensor2(family, tensor) == Tensor2(family, {(obj, obj): 1, (obj, UNIT): -1})
            assert _term_cache.compute(family, literal) == _term_cache[family, literal] == (1, 0, obj)


# Digits of +-1 and up to 2^20 at exponents 0-8, so a sum of a few terms
# stays far below the symbolic bound.
_digit = st_.one_of(st_.sampled_from([1, -1]), st_.integers(-(2**20), 2**20))
coefficients = st_.dictionaries(st_.integers(0, 8), _digit, max_size=3).map(lambda m: int(QPoly(m)))


@st_.composite
def elements(draw):
    family = draw(st_.sampled_from(ALGEBRA_NAMES))
    objs = draw(st_.lists(st_.sampled_from(BASES[family]), max_size=5, unique=True))
    return Element(family, {o: draw(coefficients) for o in objs}, draw(coefficients))


@st_.composite
def tensors(draw):
    """Tensors whose legs may be the unit."""
    family = draw(st_.sampled_from(ALGEBRA_NAMES))
    leg = st_.one_of(st_.just(UNIT), st_.sampled_from(BASES[family]))
    keys = draw(st_.lists(st_.tuples(leg, leg), max_size=5, unique=True))
    return Tensor2(family, {k: draw(coefficients) for k in keys})


def _at(x, qval):
    """x with each coefficient evaluated at q = qval, or x for symbolic q."""
    if qval is None:
        return x
    terms = {k: evaluate(c, qval) for k, c in x.terms.items()}
    if isinstance(x, Tensor2):
        return Tensor2(x.family, terms)
    return Element(x.family, terms, evaluate(x.unit, qval))


QVALS = st_.sampled_from([None, 0, 1, 5])


@given(elements(), QVALS)
def test_rendered_elements_parse_back_cold_and_warm(el, qval):
    text = render_element(el)
    qtridend.clear_caches()
    cold = parse_element(el.family, text, qval)
    assert cold == parse_element(el.family, text, qval) == _at(el, qval)
    _terms_by_compute(el.family, text)


@given(tensors(), QVALS)
def test_rendered_tensors_parse_back_cold_and_warm(t, qval):
    text = render_tensor2(t)
    qtridend.clear_caches()
    cold = parse_tensor2(t.family, text, qval)
    assert cold == parse_tensor2(t.family, text, qval) == _at(t, qval)
    if t.terms:  # the zero tensor, text 0, has no term to parse
        _terms_by_compute(t.family, text)


def test_a_repeated_term_does_not_reach_compute(monkeypatch):
    calls = []
    compute = _term_cache.compute
    monkeypatch.setattr(_term_cache, "compute", lambda *key: calls.append(key) or compute(*key))
    qtridend.clear_caches()
    el = parse_element("st", "(1,2) + 2*(1,2) - (1,2)")
    assert el == Element("st", {(1, 2): 2})
    assert calls == [("st", "(1,2)"), ("st", "2*(1,2)")]
    # again, at an int q, and as the left leg of a tensor term: all hits
    assert parse_element("st", "(1,2) + 2*(1,2) - (1,2)") == el
    assert parse_element("st", "2*(1,2)", 5) == parse_element("st", "2*(1,2)")
    assert parse_tensor2("st", "(1,2) # 1") == Tensor2("st", {((1, 2), UNIT): 1})
    assert len(calls) == 2


def _sizes() -> list:
    return [len(c) if isinstance(c, dict) else c.cache_info().currsize for c in CACHES]


# Each fails at its first term, so nothing of it is valid to store.
BAD_ELEMENTS = [
    ("st", "(1,3)"),
    ("st", "2*q*(1,3) + (1)"),
    ("pqsym", "(2,2)"),
    ("tree", "V(|)"),
    ("mperm", "[(1,2)]"),
    ("mperm", "[1 2]"),
    ("mperm", "[(1)(2)]"),
    ("mperm", "[(1),,(2)]"),
    ("st", "(١)"),
    ("st", "３*(1)"),
    ("st", "q^３*(1)"),
    ("st", "(1)*(1)"),
]
BAD_TENSORS = [("st", "(1,3) # (1)"), ("pqsym", "(2,2) # 1"), ("mperm", "[(1)(2)] # 1"), ("st", "(1)")]
BAD_BASES = [("st", "(1,3)"), ("st", "(2,2)"), ("st", "(5)"), ("pqsym", "(2,2)"), ("tree", "V(|)"),
             ("mperm", "[(1,2)]"), ("mperm", "[1 2]")]


def test_bad_input_leaves_every_memo_as_it_was():
    qtridend.clear_caches()
    sizes = _sizes()
    for parse, cases in ((parse_element, BAD_ELEMENTS), (parse_tensor2, BAD_TENSORS), (parse_basis, BAD_BASES)):
        for family, text in cases:
            messages = []
            for _ in range(2):
                with pytest.raises(ValueError) as exc:
                    parse(family, text)
                messages.append(str(exc.value))
                assert _sizes() == sizes, (parse.__name__, text)
            assert messages[0] == messages[1]
