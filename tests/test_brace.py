"""Brace operations, the distributive law with the dot product, the
primitive projector, the coradical filtration, and primitive ranks."""

from __future__ import annotations

import random
import sys
import time

import pytest

import qtridend
from qtridend.algebras import (
    ALGEBRA_NAMES,
    el_coproduct,
    el_product,
    el_rtilde,
    get_algebra,
    reduced_coproduct,
)
from qtridend.brace import (
    _bound_sequences,
    _coefficient_rows,
    _etri_cache,
    brace,
    brace_relation_check,
    check_gvq,
    e_tri,
    e_tri_basis,
    e_tri_oracle,
    filtration_degree,
    is_primitive,
    omega_coproduct_check,
    omega_left,
    omega_right,
    omega_rtilde,
    primitive_kernel_basis,
    primitive_rank,
    reconstruct,
)
from qtridend.grammar import parse_element, parse_mperm, render_basis, render_element
from qtridend.linear import LEFT, MIDDLE, RIGHT, Element
from qtridend.pqsym import pirr_count
from qtridend.qpoly import q_scalar
from qtridend.rank import fraction_nullspace
from qtridend.trees import corolla
from reference import brace_reference, reconstruct_reference

ST = get_algebra("st")
PQ = get_algebra("pqsym")
TREE = get_algebra("tree")
MPERM = get_algebra("mperm")

G = Element.basis("st", (1,))


def _el(text: str) -> Element:
    return parse_element("st", text)


def test_omega_words():
    assert render_element(omega_left(ST, [G, G])) == "(2,1)"
    assert render_element(omega_right(ST, [G, G])) == "(1,2)"
    assert render_element(omega_rtilde(ST, [G, G])) == "q*(1,1) + (1,2)"
    with pytest.raises(ValueError):
        omega_left(ST, [])


def test_brace_identity_and_small_values():
    x = _el("(2,1)")
    assert brace(ST, x, []) == x
    assert brace(ST, G, [G]) == _el("q*(1,1) + (1,2) - (2,1)")
    assert brace(ST, G, [G, G]) == _el(
        "-q*(1,2,1) - (1,3,2) + q*(2,1,1) + q*(2,1,2) + (2,1,3)"
        " - q*(2,2,1) - (2,3,1) + (3,1,2)"
    )


def test_brace_relation_grid():
    # the nestings of one y into two z's, in the order the right side sums them
    assert list(_bound_sequences(1, 2)) == [
        [(0, 0)], [(0, 1)], [(0, 2)], [(1, 1)], [(1, 2)], [(2, 2)]
    ]
    for n in (0, 1, 2):
        for m in (0, 1, 2):
            assert brace_relation_check(ST, G, [G] * n, [G] * m)
    y = Element.basis("tree", corolla(1))
    assert brace_relation_check(TREE, y, [y], [y])
    z = Element.basis("mperm", (frozenset({1}),))
    assert brace_relation_check(MPERM, z, [z], [z])


def test_distributive_law():
    for n in (0, 1, 2):
        assert check_gvq(ST, G, G, [G] * n)
    y = Element.basis("tree", corolla(1))
    assert check_gvq(TREE, y, y, [y])
    p = Element.basis("pqsym", (1,))
    assert check_gvq(PQ, p, p, [p])
    z = Element.basis("mperm", (frozenset({1}),))
    assert check_gvq(MPERM, z, z, [z])


def test_projector_small_values():
    assert e_tri(ST, _el("(1,1)")) == _el("(1,1)")
    assert e_tri(ST, _el("(1,2)")).is_zero()
    assert e_tri(ST, _el("(2,1)")) == _el("(2,1) - (1,2)")
    assert e_tri(ST, _el("(1,2,1)")) == _el("(1,2,1) - (1,1,2)")
    c2 = Element.basis("tree", corolla(2))
    assert e_tri(TREE, c2) == c2
    w = Element.basis("mperm", parse_mperm("[(1,3),(2)]"))
    assert e_tri(MPERM, w) == w - Element.basis("mperm", parse_mperm("[(1),(2)]"))


def test_projector_rejects_unit_part():
    with pytest.raises(ValueError):
        e_tri(ST, Element.unit_element("st"))
    with pytest.raises(ValueError):
        filtration_degree(ST, Element.unit_element("st"))


def test_projector_matches_oracle_and_is_idempotent():
    for h, deg in ((ST, 3), (TREE, 3), (MPERM, 3)):
        for n in (1, 2, deg):
            for o in h.basis(n):
                x = Element.basis(h.name, o)
                e = e_tri(h, x)
                assert e == e_tri_oracle(h, x)
                assert e_tri(h, e) == e


@pytest.mark.parametrize("qval", [None, 1])
def test_projector_matches_its_oracle_at_degree_five_cold_and_warm(qval):
    """The memoized recursion e against the alternating leg-tuple sum, on
    every object of st, tree and mperm at degree 5 and pqsym at degree 4:
    filled from cleared caches, then read back warm."""
    for h, n in ((ST, 5), (TREE, 5), (MPERM, 5), (PQ, 4)):
        qtridend.clear_caches()
        cold = [e_tri_basis(h, o, qval) for o in h.basis(n)]
        oracle = [e_tri_oracle(h, Element.basis(h.name, o), qval) for o in h.basis(n)]
        assert cold == oracle, h.name
        assert [e_tri_basis(h, o, qval) for o in h.basis(n)] == oracle, h.name


def test_projector_kills_right_products():
    for f in ST.basis(1):
        for g in ST.basis(2):
            prod = el_product(ST, "right", Element.basis("st", f), Element.basis("st", g))
            assert e_tri(ST, prod).is_zero()


def test_filtration_degrees():
    assert filtration_degree(ST, _el("(1,1)")) == 1
    assert filtration_degree(ST, _el("(1,2)")) == 2
    assert filtration_degree(ST, _el("(1,2,1)")) == 2
    assert filtration_degree(ST, Element.zero("st")) == 0
    assert filtration_degree(TREE, Element.basis("tree", corolla(2))) == 1
    w = Element.basis("mperm", parse_mperm("[(1,3),(2)]"))
    assert filtration_degree(MPERM, w) == 2


def test_reconstruct_is_identity():
    for h in (ST, PQ, TREE, MPERM):
        for n in (1, 2, 3):
            for o in h.basis(n):
                x = Element.basis(h.name, o)
                assert reconstruct(h, x) == x


def _reconstruct_cold_then_warm(h, xs, qval):
    """reconstruct on xs with every cache cleared first, then again from
    the warm memos; both must equal the leg-tuple reference."""
    qtridend.clear_caches()
    cold = [reconstruct(h, x, qval) for x in xs]
    ref = [reconstruct_reference(h, x, qval) for x in xs]
    assert cold == ref, h.name
    assert [reconstruct(h, x, qval) for x in xs] == ref, h.name
    return cold


@pytest.mark.parametrize("qval", [None, 0, 1, 5])
def test_reconstruct_matches_the_leg_tuple_reference(qval):
    """The memoized recursion splits the first leg where the reference
    splits the last; they agree because the reduced coproduct is
    coassociative."""
    for h in (ST, PQ, TREE, MPERM):
        xs = [Element.basis(h.name, o) for n in range(1, 5) for o in h.basis(n)]
        assert _reconstruct_cold_then_warm(h, xs, qval) == xs


def test_reconstruct_matches_the_reference_at_degree_five():
    for h in (ST, TREE, MPERM):
        xs = [Element.basis(h.name, o) for o in h.basis(5)]
        assert _reconstruct_cold_then_warm(h, xs, 1) == xs


def test_reconstruct_of_combinations_matches_the_reference():
    """Terms of several degrees, with repeats across elements, so the
    memo of one degree is read while another is filled."""
    q = q_scalar(None)
    for h in (ST, PQ, TREE, MPERM):
        objs = [o for n in range(1, 5) for o in h.basis(n)]
        xs = [
            Element(h.name, {o: (-1) ** k * (k + 1) + (k % 3) * q for k, o in enumerate(objs[i::7])})
            for i in range(7)
        ]
        for qval in (None, 5):
            at = [x if qval is None else x.eval_q(qval) for x in xs]
            assert _reconstruct_cold_then_warm(h, at, qval) == at


def test_reconstruct_sees_a_planted_projector_fault():
    """Double one value of e: reconstruct no longer returns x, on the
    object itself and on a degree-3 object whose legs read it."""
    qtridend.clear_caches()
    o = (2, 1)
    try:
        _etri_cache[ST, None, o] = e_tri_basis(ST, o).scale(2)
        x = Element.basis("st", o)
        assert reconstruct(ST, x) != x
        ys = [Element.basis("st", f) for f in ST.basis(3)]
        bad = [y for y in ys if reconstruct(ST, y) != y]
        assert bad and all(reconstruct_reference(ST, y) != y for y in bad)
    finally:
        qtridend.clear_caches()


def _elements_with_units(h, qval):
    """Combinations of degree-1 and degree-2 objects, with and without a
    unit term, at coefficients in q."""
    q = q_scalar(qval)
    objs = [o for n in (1, 2) for o in h.basis(n)]
    plain = [
        Element(h.name, {o: k + 1 - (k % 2) * q for k, o in enumerate(objs[i::3])})
        for i in range(3)
    ]
    return plain + [Element(h.name, x.terms, 2 - q) for x in plain] + [
        Element.unit_element(h.name)
    ]


@pytest.mark.parametrize("qval", [None, 0, 1, 5])
def test_rtilde_is_right_plus_q_times_middle(qval):
    for h in (ST, PQ, TREE, MPERM):
        els = _elements_with_units(h, qval)
        for a in els:
            for b in els:
                if a.unit and b.unit:
                    with pytest.raises(ValueError):
                        el_rtilde(h, a, b, qval)
                    continue
                two = Element.sum(h.name, (
                    (el_product(h, RIGHT, a, b, qval), 1),
                    (el_product(h, MIDDLE, a, b, qval), q_scalar(qval)),
                ))
                assert el_rtilde(h, a, b, qval) == two, (h.name, a, b)
        x = Element.basis(h.name, h.basis(1)[0])
        one = Element.unit_element(h.name)
        assert el_rtilde(h, one, x, qval) == x
        assert el_rtilde(h, x, one, qval).is_zero()
        with pytest.raises(ValueError):
            el_rtilde(h, one, one, qval)


def test_rank_routines_refuse_a_symbolic_q():
    for routine in (primitive_rank, primitive_kernel_basis):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="integer q"):
            routine(PQ, 5, None)
        assert time.perf_counter() - start < 0.5


def test_omega_coproduct():
    assert omega_coproduct_check(ST, [G, G])
    assert omega_coproduct_check(ST, [G, G, G])
    g2 = _el("(1,1)")
    assert omega_coproduct_check(ST, [g2, g2])
    with pytest.raises(ValueError, match="primitive arguments"):
        omega_coproduct_check(ST, [G, _el("(1,1) + (1,2)")])


def test_primitive_ranks_small():
    expected = {"st": [1, 2, 8], "pqsym": [1, 2, 11], "tree": [1, 2, 6]}
    for h in (ST, PQ, TREE):
        for q in (0, 1, 5):
            got = [primitive_rank(h, n, q) for n in (1, 2, 3)]
            assert got == expected[h.name], (h.name, q, got)
    assert [pirr_count(n) for n in (1, 2, 3)] == expected["pqsym"]
    for q in (0, 1, 5):
        assert [primitive_rank(MPERM, n, q) for n in (1, 2, 3)] == [1, 1, 5]


def test_kernel_basis_is_primitive():
    for h in (ST, PQ, TREE, MPERM):
        for q in (0, 1, 5):
            for n in (1, 2, 3):
                kernel = primitive_kernel_basis(h, n, q)
                for el in kernel:
                    assert el_coproduct(h, el, q).interior().is_zero()
                if h.graded:
                    assert len(kernel) == primitive_rank(h, n, q)


@pytest.mark.parametrize("h, top", [(ST, 4), (PQ, 3), (TREE, 4), (MPERM, 4)], ids=lambda x: getattr(x, "name", x))
@pytest.mark.parametrize("q", [0, 1])
def test_primitives_match_the_fraction_elimination_of_the_same_rows(h, top, q):
    """The glue from basis images to sparse rows and back to Elements
    gives what the dense Fraction reference gives on the same rows."""
    for n in range(1, top + 1):
        basis, rows = _coefficient_rows(h, n, q, e_tri_basis)
        assert primitive_rank(h, n, q) == len(basis) - len(fraction_nullspace(rows, len(basis)))
        basis, rows = _coefficient_rows(h, n, q, reduced_coproduct)
        ref = [Element(h.name, {basis[j]: x for j, x in v.items()})
               for v in fraction_nullspace(rows, len(basis))]
        assert primitive_kernel_basis(h, n, q) == ref


def test_primitives_closed_under_dot_and_brace():
    # degree 1 + 1 products of primitives stay primitive
    for h in (ST, TREE):
        for q in (0, 1, 5):
            (p,) = primitive_kernel_basis(h, 1, q)
            dot = el_product(h, MIDDLE, p, p, q)
            assert el_coproduct(h, dot, q).interior().is_zero()
            br = brace(h, p, [p], q)
            assert el_coproduct(h, br, q).interior().is_zero()


@pytest.mark.parametrize("q", [0, 1, 5])
def test_gv_laws_on_primitive_kernel_vectors(q):
    """The distributive law and the brace relation on the primitives of
    st at degrees 1 and 2, not only on the generator."""
    ps = primitive_kernel_basis(ST, 1, q) + primitive_kernel_basis(ST, 2, q)
    assert len(ps) == 3 and all(is_primitive(ST, p, q) for p in ps)
    assert not is_primitive(ST, _el("(1,2)"), q)
    for x in ps:
        for y in ps:
            for zs in ([], ps[:1], ps[:2], ps[1::-1]):
                assert check_gvq(ST, x, y, zs, q), (x, y, len(zs))
            for z in ps:
                assert brace_relation_check(ST, x, [y], [z], q), (x, y, z)


@pytest.mark.parametrize("qval", [None, 1])
def test_gv_laws_see_an_rtilde_without_its_q_part(qval, monkeypatch):
    """With r-tilde cut to > alone, the distributive law and the brace
    relation both fail on generators, in every family."""
    # qtridend.brace is the brace function; the module is in sys.modules
    module = sys.modules["qtridend.brace"]
    monkeypatch.setattr(module, "el_rtilde", lambda h, a, b, qval=None: el_product(h, RIGHT, a, b, qval))
    for h in (ST, PQ, TREE, MPERM):
        g = Element.basis(h.name, h.basis(1)[0])
        assert not check_gvq(h, g, g, [g], qval), h.name
        assert not brace_relation_check(h, g, [g], [g], qval), h.name


# four constants, so that at q = 0 four distinct multiples of a generator remain
_SIGNED = ("+ ", "+ 2*", "- 3*", "+ 5*", "+ q*", "- q^2*")


def _distinct_arguments(h, rng: random.Random, n: int, qval) -> list:
    """n + 1 distinct Elements of 1-3 terms each, parsed at qval.  At most
    two of them reach degree 2 (the rest are multiples of the degree-1
    generator), so no brace of them passes degree 6."""
    caps = [2] * (n + 1)
    while sum(caps) > 6:
        caps[rng.randrange(n + 1)] = 1
    out = []
    while len(out) < n + 1:
        pool = [o for d in range(1, caps[len(out)] + 1) for o in h.basis(d)]
        objs = rng.sample(pool, min(rng.randint(1, 3), len(pool)))
        text = " ".join(rng.choice(_SIGNED) + render_basis(h.name, o) for o in objs)
        el = parse_element(h.name, text, qval)
        if el.terms and el not in out:
            out.append(el)
    return out


def _brace_mismatches(h, qval) -> list:
    """The argument lists, three per n = 1, 2, 3, on which `brace` and
    `brace_reference` differ, rendered."""
    rng = random.Random(f"{h.name} {qval}")
    bad = []
    for n in (1, 2, 3):
        for _ in range(3):
            x, *ys = _distinct_arguments(h, rng, n, qval)
            if brace(h, x, ys, qval) != brace_reference(h, x, ys, qval):
                bad.append([render_element(a, qval) for a in (x, *ys)])
    return bad


@pytest.mark.parametrize("qval", [None, 0, 1, 5])
@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_brace_matches_its_reference_on_distinct_arguments(name, qval):
    """brace files its n + 1 parts into one accumulator; the reference
    builds each part as an Element and sums them."""
    assert _brace_mismatches(get_algebra(name), qval) == []


def test_brace_reference_sees_an_unreversed_left_fold(monkeypatch):
    """omega_< folded the wrong way, y_n < (... < (y_2 < y_1)), passes the
    law checks on copies of one generator but not this comparison."""
    module = sys.modules["qtridend.brace"]

    def unreversed(h, ys, qval=None):
        return module._nested(ys, lambda acc, y: el_product(h, LEFT, y, acc, qval))

    monkeypatch.setattr(module, "omega_left", unreversed)
    for h in (ST, PQ, TREE, MPERM):
        assert _brace_mismatches(h, None), h.name
