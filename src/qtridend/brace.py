"""Brace operations, the distributive law, and the primitive projector.

All operations act on Elements of one algebra through its handle and work
for symbolic q (qval None) or any integer specialization.

The brace M_1n(x; y_1..y_n) is the alternating sum over i of

    omega_<(y_1..y_i)  rtilde  x  <  omega_rtilde(y_{i+1}..y_n)

with omega_< the right-nested < word, rtilde = q. + > and omega_rtilde
its left-nested word; M_10 = Id.

The projector e(x) = x - sum x_(1) > e(x_(2)) (sum over the interior of
the coproduct) is implemented by that recursion and checked against its
closed form, the alternating sum over n of the right-nested > product of
the n legs of the iterated reduced coproduct.

reconstruct re-expands x as the sum over r of the left-nested > products
of e applied to each leg of the r-fold reduced coproduct; it must return
x itself, which exhibits the basis-free filtration underlying the
structure theorem.
"""

from __future__ import annotations

from .algebras import (
    AlgebraHandle,
    el_coproduct,
    el_product,
    el_rtilde,
    reduced_coproduct,
)
from .grammar import render_element
from .linear import LEFT, MIDDLE, RIGHT, UNIT, Element, Tensor2, sum_terms
from .memo import Memo
from .qpoly import q_scalar
from .rank import rational_nullspace, rational_rank

# The most basis objects of one degree that the rank routines take on;
# pqsym degree 6 has 16,807 and degree 7 has 262,144.
BASIS_CEILING = 20_000


def omega_left(h: AlgebraHandle, ys: list, qval: int | None = None) -> Element:
    """Right-nested < word: y1 < (y2 < (... < yn))."""
    if not ys:
        raise ValueError("omega word of no arguments")
    acc = ys[-1]
    for y in reversed(ys[:-1]):
        acc = el_product(h, LEFT, y, acc, qval)
    return acc


def omega_rtilde(h: AlgebraHandle, ys: list, qval: int | None = None) -> Element:
    """Left-nested rtilde word: ((y1 rt y2) rt ...) rt yn."""
    if not ys:
        raise ValueError("omega word of no arguments")
    acc = ys[0]
    for y in ys[1:]:
        acc = el_rtilde(h, acc, y, qval)
    return acc


def omega_right(h: AlgebraHandle, ys: list, qval: int | None = None) -> Element:
    """Left-nested > word: ((y1 > y2) > ...) > yn."""
    if not ys:
        raise ValueError("omega word of no arguments")
    acc = ys[0]
    for y in ys[1:]:
        acc = el_product(h, RIGHT, acc, y, qval)
    return acc


def brace(h: AlgebraHandle, x: Element, ys: list, qval: int | None = None) -> Element:
    """M_1n(x; y_1..y_n); returns x when ys is empty."""
    for arg in [x, *ys]:
        if arg.unit:
            raise ValueError(
                f"brace arguments must have no unit term, got {render_element(arg, qval)}"
            )
    n = len(ys)
    if n == 0:
        return x

    def parts():
        for i in range(n + 1):
            t = x
            if i > 0:
                t = el_rtilde(h, omega_left(h, ys[:i], qval), t, qval)
            if i < n:
                t = el_product(h, LEFT, t, omega_rtilde(h, ys[i:], qval), qval)
            yield t, -1 if (n - i) % 2 else 1

    return Element.sum(h.name, parts())


def check_gvq(
    h: AlgebraHandle, x: Element, y: Element, zs: list, qval: int | None = None
) -> bool:
    """M_1n(x.y; z..) = sum (-q)^{j-i} M_1i(x; z..) . z_{i+1} ... z_j . M_1(n-j)(y; z..).

    The weight of the dotted chain of length j - i is (-q)^{j-i}: the
    alternating sign is what makes the chain terms cancel against the
    q-part of rtilde inside the braces.
    """
    lhs = brace(h, el_product(h, MIDDLE, x, y, qval), zs, qval)
    n = len(zs)
    minus_q = -q_scalar(qval)

    def parts():
        for i in range(n + 1):
            scale = 1  # (-q)^(j - i)
            for j in range(i, n + 1):
                term = brace(h, x, zs[:i], qval)
                for k in range(i, j):
                    term = el_product(h, MIDDLE, term, zs[k], qval)
                term = el_product(h, MIDDLE, term, brace(h, y, zs[j:], qval), qval)
                yield term, scale
                scale = scale * minus_q

    return lhs == Element.sum(h.name, parts())


def _bound_sequences(n: int, m: int):
    """Nondecreasing 0 <= i1 <= j1 <= ... <= in <= jn <= m as pair lists."""
    def grow(prefix, lo, left):
        if left == 0:
            yield prefix
            return
        for i in range(lo, m + 1):
            for j in range(i, m + 1):
                yield from grow(prefix + [(i, j)], j, left - 1)

    yield from grow([], 0, n)


def brace_relation_check(
    h: AlgebraHandle, x: Element, ys: list, zs: list, qval: int | None = None
) -> bool:
    """M(M(x; y..); z..) expands braces of x over all nestings of the y's."""
    lhs = brace(h, brace(h, x, ys, qval), zs, qval)
    n, m = len(ys), len(zs)

    def parts():
        for bounds in _bound_sequences(n, m):
            args = []
            prev = 0
            for k in range(n):
                i_k, j_k = bounds[k]
                args.extend(zs[prev:i_k])
                args.append(brace(h, ys[k], zs[i_k:j_k], qval))
                prev = j_k
            args.extend(zs[prev:])
            yield brace(h, x, args, qval), 1

    return lhs == Element.sum(h.name, parts())


@Memo
def _etri_cache(h: AlgebraHandle, qval: int | None, obj) -> Element:
    """e on a basis object, by the recursion e(x) = x - x_(1) > e(x_(2))."""
    parts = [(Element.basis(h.name, obj), 1)]
    for (o1, o2), c in reduced_coproduct(h, obj, qval).terms.items():
        e2 = e_tri_basis(h, o2, qval)
        if not e2.is_zero():
            parts.append((el_product(h, RIGHT, Element.basis(h.name, o1), e2, qval), -c))
    return Element.sum(h.name, parts)


def e_tri_basis(h: AlgebraHandle, obj, qval: int | None = None) -> Element:
    """e on a basis object, memoized per handle and qval."""
    return _etri_cache[h, qval, obj]


def e_tri(h: AlgebraHandle, x: Element, qval: int | None = None) -> Element:
    if x.unit:
        raise ValueError("e_tri is defined on the augmentation ideal")
    return Element.sum(h.name, ((e_tri_basis(h, o, qval), c) for o, c in x.terms.items()))


def _advance_legs(h: AlgebraHandle, legs: dict, qval: int | None) -> dict:
    """Apply the reduced coproduct to the last leg of every tuple."""

    def parts():
        for objs, c in legs.items():
            red = reduced_coproduct(h, objs[-1], qval)
            yield ((objs[:-1] + o12, c2) for o12, c2 in red.terms.items()), c

    return sum_terms(parts())


def e_tri_oracle(h: AlgebraHandle, x: Element, qval: int | None = None) -> Element:
    """Closed form: sum_n (-1)^(n+1) of right-nested > over the n legs of
    the iterated reduced coproduct."""
    if x.unit:
        raise ValueError("e_tri is defined on the augmentation ideal")
    legs = {(o,): c for o, c in x.terms.items()}
    parts = []
    sign = 1
    while legs:
        for objs, c in legs.items():
            el = Element.basis(h.name, objs[-1])
            for o in reversed(objs[:-1]):
                el = el_product(h, RIGHT, Element.basis(h.name, o), el, qval)
            parts.append((el, c * sign))
        legs = _advance_legs(h, legs, qval)
        sign = -sign
    return Element.sum(h.name, parts)


def filtration_degree(h: AlgebraHandle, x: Element, qval: int | None = None) -> int:
    """Least n with vanishing (n+1)-fold reduced coproduct (0 for x = 0)."""
    if x.unit:
        raise ValueError("filtration degree lives in the augmentation ideal")
    legs = {(o,): c for o, c in x.terms.items() if c}
    n = 0
    while legs:
        n += 1
        legs = _advance_legs(h, legs, qval)
    return n


def reconstruct(h: AlgebraHandle, x: Element, qval: int | None = None) -> Element:
    """Sum over r of left-nested > of e over the legs of the r-fold
    reduced coproduct; equals x."""
    if x.unit:
        raise ValueError("reconstruct is defined on the augmentation ideal")
    legs = {(o,): c for o, c in x.terms.items() if c}
    parts = []
    while legs:
        for objs, c in legs.items():
            el = e_tri_basis(h, objs[0], qval)
            for o in objs[1:]:
                el = el_product(h, RIGHT, el, e_tri_basis(h, o, qval), qval)
            parts.append((el, c))
        legs = _advance_legs(h, legs, qval)
    return Element.sum(h.name, parts)


def omega_coproduct_check(
    h: AlgebraHandle, xs: list, qval: int | None = None
) -> bool:
    """Delta(omega_>(x1..xn)) = sum_i omega_>(x1..xi) (x) omega_>(x_{i+1}..xn)
    for primitive arguments, with the empty omega word equal to 1."""
    for x in xs:
        red = Tensor2.sum(
            h.name, ((reduced_coproduct(h, o, qval), c) for o, c in x.terms.items())
        )
        if not red.is_zero():
            raise ValueError("omega_coproduct_check needs primitive arguments")
    lhs = el_coproduct(h, omega_right(h, xs, qval), qval)

    def omega(ys):  # the empty omega word is 1
        return omega_right(h, ys, qval) if ys else UNIT

    rhs = Tensor2.sum(
        h.name, (((omega(xs[:i]), omega(xs[i:])), 1) for i in range(len(xs) + 1))
    )
    return lhs == rhs


def _coefficient_rows(h: AlgebraHandle, n: int, q: int, image) -> tuple:
    """The degree-n basis and the dense integer rows, at q, of the map that
    sends each basis object o to image(h, o, q): one column per object."""
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    for k in range(1, n + 1):  # stop at the first degree past the ceiling
        if (size := len(h.basis(k))) > BASIS_CEILING:
            raise ValueError(f"{h.name} degree {k} has {size} basis objects, over {BASIS_CEILING}")
    basis = h.basis(n)
    images = [image(h, o, q) for o in basis]
    row_index: dict = {}
    for img in images:
        for k in img.terms:
            row_index.setdefault(k, len(row_index))
    rows = [[0] * len(basis) for _ in range(len(row_index))]
    for j, img in enumerate(images):
        for k, c in img.terms.items():
            rows[row_index[k]][j] = c
    return basis, rows


def primitive_rank(h: AlgebraHandle, n: int, q: int) -> int:
    """Rank of e_tri on the degree-n basis, over Q at integer q."""
    return rational_rank(_coefficient_rows(h, n, q, e_tri_basis)[1])


def primitive_kernel_basis(h: AlgebraHandle, n: int, q: int) -> list[Element]:
    """Basis of ker of the reduced coproduct on the degree-n basis at q."""
    basis, rows = _coefficient_rows(h, n, q, reduced_coproduct)
    return [
        Element(h.name, {basis[j]: x for j, x in enumerate(v) if x})
        for v in rational_nullspace(rows, len(basis))
    ]
