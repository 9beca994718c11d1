"""Immutable results are shared, not copied: the powers X^e, cached basis
products and coproducts handed out as they are, the counit as a key
filter, and coassociativity summed as one difference.  The coalgebra
laws are decided on the reduced coproduct, and primitivity from the
interior terms alone.  Each shortcut must give what the accumulator
route, or the full check, gives."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from qtridend import pqsym, verify
from qtridend.algebras import ALGEBRA_NAMES, el_coproduct, get_algebra
from qtridend.brace import e_tri_basis, is_primitive
from qtridend.grammar import parse_basis
from qtridend.linear import (
    KINDS,
    STAR,
    UNIT,
    Element,
    Tensor2,
    bilinear_extend,
    coalgebra_laws,
    interior_items,
    is_coassociative,
    lone_basis,
    tensor_flatten,
)
from qtridend.qpoly import X, X_POWERS, q_power
from qtridend.verify import verify_bialgebra

QS = (None, 0, 1, 5)


def _counit_by_sum(t: Tensor2, side: str) -> Element:
    """The counit on one leg through the accumulator: (eps (x) id) or
    (id (x) eps), summed slot by slot."""
    killed = 0 if side == "left" else 1
    return Element.sum(
        t.family,
        (
            (Element.slot(t.family, k[1 - killed]), c)
            for k, c in t.terms.items()
            if k[killed] is UNIT
        ),
    )


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_counit_filter_equals_the_accumulator_route(name):
    h = get_algebra(name)
    for q in QS:
        for n in range(1, 6):
            for x in h.basis(n):
                d = h.coproduct(x, q)
                for side in ("left", "right"):
                    got = d.counit(side)
                    assert got == _counit_by_sum(d, side), (x, q, side)
                    assert got == Element.basis(name, x)
    t = Tensor2("st", {(UNIT, UNIT): 3, (UNIT, (1,)): 2 * X, ((1,), (1,)): 1})
    assert t.counit("left") == _counit_by_sum(t, "left")
    assert t.counit("right") == _counit_by_sum(t, "right")
    assert t.counit("right").unit == 3
    with pytest.raises(ValueError):
        t.counit("middle")


def _perturbations(d: Tensor2):
    """d with one term dropped, and d with one coefficient raised by 1,
    for every term of d."""
    items = list(d.terms.items())
    for i, (k, c) in enumerate(items):
        rest = dict(items[:i] + items[i + 1 :])
        yield Tensor2(d.family, rest)
        yield Tensor2(d.family, {**rest, k: c + 1})


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_coassociativity_flags_a_perturbed_coproduct(name):
    h = get_algebra(name)
    cop = lambda o: h.coproduct(o, None)
    for n in range(1, 5):
        for x in h.basis(n):
            d = cop(x)
            assert is_coassociative(d, cop)
            assert interior_items(d) == list(d.interior().terms.items())
            for bad in _perturbations(d):
                assert not is_coassociative(bad, cop), (x, bad.terms)
                assert tensor_flatten(bad, "left", cop) != tensor_flatten(bad, "right", cop)


def test_coassociativity_flags_a_perturbed_leg_coproduct():
    # the tensor is a true coproduct; the map applied to its legs is wrong
    # at one basis object, by a dropped term or a changed coefficient
    # y is named, not read off the term order of Delta(x), which is not a
    # contract.  Delta(x) = ... + Y # y + y # Y with y = V(|,|) and
    # Y = V(|,V(|,|)); dropping the interior term y # y of Delta(Y) would
    # take y # y # y from both sides alike, leaving them equal
    h = get_algebra("tree")
    x = h.basis(3)[0]
    d = h.coproduct(x)
    y, big_y = parse_basis("tree", "V(|,|)"), parse_basis("tree", "V(|,V(|,|))")
    assert (big_y, y) in d.terms and (y, big_y) in d.terms
    for bad in _perturbations(h.coproduct(y)):
        cop = lambda o: bad if o == y else h.coproduct(o)
        assert not is_coassociative(d, cop)
        assert tensor_flatten(d, "left", cop) != tensor_flatten(d, "right", cop)


def _full_laws(objects, cop):
    """The coalgebra laws by the full checks: both counits against the
    basis element, and `is_coassociative` on the whole coproduct."""
    for x in objects:
        d = cop(x)
        ex = Element.basis(d.family, x)
        yield x, d.counit("left") == ex, d.counit("right") == ex, is_coassociative(d, cop)


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_reduced_coalgebra_laws_flag_what_the_full_checks_flag(name):
    # every single-term drop or +1 of Delta(y), and Delta(y) + 1 (x) 1,
    # y of degree at most 4, injected through the coproduct.  Only the
    # objects whose coproduct is Delta(y) or has y as a leg read it; every
    # other object reads true coproducts only, so its full flags are the
    # unperturbed ones
    h = get_algebra(name)
    objects = [x for n in range(1, 5) for x in h.basis(n)]
    full = list(_full_laws(objects, h.coproduct))
    assert list(coalgebra_laws(objects, h.coproduct)) == full == [(x, True, True, True) for x in objects]
    readers = {
        y: [x for x in objects if x == y or any(y in k for k in h.coproduct(x).terms)]
        for y in objects
    }
    failing = 0
    for y in objects:
        d = h.coproduct(y)
        for bad in (*_perturbations(d), Tensor2(name, {**d.terms, (UNIT, UNIT): 1})):
            cop = lambda o: bad if o == y else h.coproduct(o)
            want = dict.fromkeys(objects, (True, True, True))
            want.update((x, tuple(flags)) for x, *flags in _full_laws(readers[y], cop))
            assert list(coalgebra_laws(objects, cop)) == [(x, *want[x]) for x in objects], y
            failing += sum(not all(flags) for flags in want.values())
    assert failing > len(objects)


_PQ_X = (1, 1, 3, 4)


def _without(k):
    return lambda terms: {t: c for t, c in terms.items() if t != k}


@pytest.mark.parametrize(
    "key, change, first",
    [
        (_PQ_X, _without(((1, 1), (1, 2))), "coassociativity fails at (1,1,3,4)"),
        (_PQ_X, _without((UNIT, _PQ_X)), "left counit law fails at (1,1,3,4)"),
        ((1, 1), lambda terms: {**terms, ((1, 1), UNIT): 2}, "right counit law fails at (1,1)"),
    ],
    ids=["dropped cut", "dropped boundary term", "doubled boundary term on a leg"],
)
def test_a_planted_coproduct_fault_fails_the_bialgebra_suite_as_the_full_checks_do(
    monkeypatch, key, change, first
):
    # the fault sits in the coproduct cache, so every reader sees it
    bad = Tensor2("pqsym", change(dict(pqsym.pf_coproduct(key).terms)))
    monkeypatch.setitem(pqsym._cop_cache, key, bad)
    report = verify_bialgebra("pqsym", 4, 5)
    with monkeypatch.context() as m:
        m.setattr(verify, "coalgebra_laws", _full_laws)
        assert verify_bialgebra("pqsym", 4, 5) == report
    assert report["failures"][0] == first


def _random_element(rng, h, q) -> Element:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        obj = rng.choice(h.basis(rng.randint(1, 4)))
        terms[obj] = q_power(rng.randint(0, 2), q) * rng.choice([-2, -1, 1, 3])
    return Element(h.name, terms)


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_lean_primitivity_agrees_with_the_interior_of_the_coproduct(name):
    # random sums, and sums of e images, whose interiors cancel; each also
    # with a unit term, whose 1 (x) 1 has unit legs only
    h = get_algebra(name)
    rng = random.Random(31)
    seen = set()
    for q in QS:
        for _ in range(40):
            x = _random_element(rng, h, q)
            prim = Element.sum(name, ((e_tri_basis(h, o, q), c) for o, c in x.terms.items()))
            for el in (x, prim, prim + x.scale(rng.choice([0, 1]))):
                for y in (el, el + Element.unit_element(name).scale(rng.choice([-1, 2]))):
                    holds = el_coproduct(h, y, q).interior().is_zero()
                    assert is_primitive(h, y, q) == holds, (q, y.terms, y.unit)
                    seen.add(holds)
    assert seen == {True, False}


def test_x_powers_are_shared():
    # a lone q^e filed by a kernel is the one X^e of the table, not a copy
    assert verify_bialgebra("tree", 4, 5)["ok"]
    assert X_POWERS and all(p == X**e for e, p in X_POWERS.items())
    for name in ("st", "pqsym", "mperm"):
        h = get_algebra(name)
        lone = [
            c
            for n in range(1, 4)
            for x in h.basis(n)
            for y in h.basis(4 - n)
            for c in h.product(STAR, x, y).terms.values()
            if c in (X, X * X)
        ]
        assert lone and all(c is X_POWERS[1] or c is X_POWERS[2] for c in lone), name
    with pytest.raises(ValueError):
        X_POWERS[-1]


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_lone_basis_results_are_the_cached_ones(name):
    h = get_algebra(name)
    for q in QS:
        for n1 in range(1, 4):
            for n2 in range(1, 5 - n1):
                for x in h.basis(n1):
                    ex = Element.basis(name, x)
                    assert lone_basis(ex) == x
                    for y in h.basis(n2):
                        ey = Element.basis(name, y)
                        for kind in (*KINDS, STAR):
                            rule = lambda a, b: h.product(kind, a, b, q)
                            got = bilinear_extend(rule, kind, ex, ey)
                            assert got is rule(x, y)
                            assert got == Element.sum(name, ((rule(x, y), 1),))
                            twice = bilinear_extend(rule, kind, ex.scale(2), ey)
                            assert twice == got.scale(2)
                d = el_coproduct(h, ex, q)
                assert d is h.coproduct(x, q)
                assert d == Tensor2.sum(name, ((h.coproduct(x, q), 1),))
                assert el_coproduct(h, ex.scale(2), q) == d.scale(2)
                # several terms, one with a q-power, and a unit term
                z, one = Element.basis(name, h.basis(1)[0]), Element.unit_element(name)
                many = Element.sum(name, ((ex, 2), (z, -3 * q_power(1, q)), (one, 5)))
                want = Tensor2(name, {(UNIT, UNIT): many.unit})
                for o, c in many.terms.items():
                    want = want + h.coproduct(o, q).scale(c)
                assert el_coproduct(h, many, q) == want


def test_lone_basis_needs_one_term_with_coefficient_one_and_no_unit():
    x = Element.basis("st", (1, 2))
    assert lone_basis(x) == (1, 2)
    assert lone_basis(x.scale(2)) is None
    assert lone_basis(x.scale(X)) is None
    assert lone_basis(x + Element.unit_element("st")) is None
    assert lone_basis(x + Element.basis("st", (1,))) is None
    assert lone_basis(Element.unit_element("st")) is None
    assert lone_basis(Element.zero("st")) is None


def test_shared_results_keep_the_family_checks_and_unit_conventions():
    x = Element.basis("st", (1,))
    one = Element.unit_element("st")
    foreign = lambda a, b: Element.basis("tree", ((), ()))
    with pytest.raises(ValueError):
        bilinear_extend(foreign, STAR, x, x)
    with pytest.raises(ValueError):
        bilinear_extend(foreign, STAR, x, Element.basis("tree", ((), ())))
    h = get_algebra("st")
    wrong = SimpleNamespace(
        name="st",
        basis=h.basis,
        degree=h.degree,
        product=h.product,
        coproduct=lambda o, qval=None: get_algebra("tree").coproduct(((), ()), qval),
        validate=h.validate,
    )
    with pytest.raises(ValueError):
        el_coproduct(wrong, x)
    assert el_coproduct(h, one) == Tensor2("st", {(UNIT, UNIT): 1})
    rule = lambda a, b: h.product(STAR, a, b)
    assert bilinear_extend(rule, STAR, one, x) == x
    assert bilinear_extend(rule, STAR, x, one) == x
    assert bilinear_extend(rule, STAR, one, one) == one
    for kind in KINDS:
        with pytest.raises(ValueError):
            bilinear_extend(lambda a, b: h.product(kind, a, b), kind, one, one)
