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
    q_scalar,
    reduced_coproduct,
)
from .linear import LEFT, MIDDLE, RIGHT, Element, Tensor2, tensor_of
from .qpoly import QPoly
from .rank import rational_nullspace, rational_rank

_etri_cache: dict = {}


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
    n = len(ys)
    if n == 0:
        return x
    total = Element.zero(h.name)
    for i in range(n + 1):
        t = x
        if i > 0:
            t = el_rtilde(h, omega_left(h, ys[:i], qval), t, qval)
        if i < n:
            t = el_product(h, LEFT, t, omega_rtilde(h, ys[i:], qval), qval)
        if (n - i) % 2:
            total = total - t
        else:
            total = total + t
    return total


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
    q = q_scalar(qval)
    rhs = Element.zero(h.name)
    for i in range(n + 1):
        for j in range(i, n + 1):
            term = brace(h, x, zs[:i], qval)
            for k in range(i, j):
                term = el_product(h, MIDDLE, term, zs[k], qval)
            term = el_product(h, MIDDLE, term, brace(h, y, zs[j:], qval), qval)
            scale = QPoly.one()
            for _ in range(j - i):
                scale = scale * q
            if (j - i) % 2:
                scale = -scale
            rhs = rhs + term.scale(scale)
    return lhs == rhs


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
    rhs = Element.zero(h.name)
    for bounds in _bound_sequences(n, m):
        args = []
        prev = 0
        for k in range(n):
            i_k, j_k = bounds[k]
            args.extend(zs[prev:i_k])
            args.append(brace(h, ys[k], zs[i_k:j_k], qval))
            prev = j_k
        args.extend(zs[prev:])
        rhs = rhs + brace(h, x, args, qval)
    return lhs == rhs


def e_tri_basis(h: AlgebraHandle, obj, qval: int | None = None) -> Element:
    """e on a basis object, by the recursion e(x) = x - x_(1) > e(x_(2))."""
    key = (h.name, qval, obj)
    hit = _etri_cache.get(key)
    if hit is not None:
        return hit
    acc = Element.basis(h.name, obj)
    for (o1, o2), c in reduced_coproduct(h, obj, qval).terms.items():
        e2 = e_tri_basis(h, o2, qval)
        if e2.is_zero():
            continue
        acc = acc - el_product(h, RIGHT, Element.basis(h.name, o1), e2, qval).scale(c)
    _etri_cache[key] = acc
    return acc


def e_tri(h: AlgebraHandle, x: Element, qval: int | None = None) -> Element:
    if x.unit:
        raise ValueError("e_tri is defined on the augmentation ideal")
    acc = Element.zero(h.name)
    for o, c in x.terms.items():
        acc = acc + e_tri_basis(h, o, qval).scale(c)
    return acc


def _advance_legs(h: AlgebraHandle, legs: dict, qval: int | None) -> dict:
    """Apply the reduced coproduct to the last leg of every tuple."""
    nxt: dict = {}
    for objs, c in legs.items():
        for (o1, o2), c2 in reduced_coproduct(h, objs[-1], qval).terms.items():
            key = objs[:-1] + (o1, o2)
            cur = nxt.get(key)
            add = c * c2
            nc = add if cur is None else cur + add
            if nc.is_zero():
                nxt.pop(key, None)
            else:
                nxt[key] = nc
    return nxt


def e_tri_oracle(h: AlgebraHandle, x: Element, qval: int | None = None) -> Element:
    """Closed form: sum_n (-1)^(n+1) of right-nested > over the n legs of
    the iterated reduced coproduct."""
    if x.unit:
        raise ValueError("e_tri is defined on the augmentation ideal")
    legs = {(o,): c for o, c in x.terms.items()}
    total = Element.zero(h.name)
    sign = 1
    while legs:
        for objs, c in legs.items():
            el = Element.basis(h.name, objs[-1])
            for o in reversed(objs[:-1]):
                el = el_product(h, RIGHT, Element.basis(h.name, o), el, qval)
            total = total + el.scale(c * sign)
        legs = _advance_legs(h, legs, qval)
        sign = -sign
    return total


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
    total = Element.zero(h.name)
    while legs:
        for objs, c in legs.items():
            parts = [e_tri_basis(h, o, qval) for o in objs]
            el = parts[0]
            for p in parts[1:]:
                el = el_product(h, RIGHT, el, p, qval)
            total = total + el.scale(c)
        legs = _advance_legs(h, legs, qval)
    return total


def omega_coproduct_check(
    h: AlgebraHandle, xs: list, qval: int | None = None
) -> bool:
    """Delta(omega_>(x1..xn)) = sum_i omega_>(x1..xi) (x) omega_>(x_{i+1}..xn)
    for primitive arguments, with the empty omega word equal to 1."""
    for x in xs:
        red = Tensor2(h.name)
        for o, c in x.terms.items():
            red = red + reduced_coproduct(h, o, qval).scale(c)
        if not red.is_zero():
            raise ValueError("omega_coproduct_check needs primitive arguments")
    word = omega_right(h, xs, qval)
    lhs = el_coproduct(h, word, qval)
    unit = Element.unit_element(h.name)
    n = len(xs)
    rhs = Tensor2(h.name)
    for i in range(n + 1):
        left = omega_right(h, xs[:i], qval) if i else unit
        right = omega_right(h, xs[i:], qval) if i < n else unit
        rhs = rhs + tensor_of(left, right)
    return lhs == rhs


def _coefficient_rows(h: AlgebraHandle, n: int, q: int, image) -> tuple:
    """The degree-n basis and the dense integer rows, at q, of the map that
    sends each basis object o to image(h, o, q): one column per object."""
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    basis = h.basis(n)
    images = [image(h, o, q) for o in basis]
    row_index: dict = {}
    for img in images:
        for k in img.terms:
            row_index.setdefault(k, len(row_index))
    rows = [[0] * len(basis) for _ in range(len(row_index))]
    for j, img in enumerate(images):
        for k, c in img.terms.items():
            rows[row_index[k]][j] = c.eval(q)
    return basis, rows


def primitive_rank(h: AlgebraHandle, n: int, q: int) -> int:
    """Rank of e_tri on the degree-n basis, over Q at integer q."""
    return rational_rank(_coefficient_rows(h, n, q, e_tri_basis)[1])


def primitive_kernel_basis(h: AlgebraHandle, n: int, q: int) -> list[Element]:
    """Basis of ker of the reduced coproduct on the degree-n basis at q."""
    basis, rows = _coefficient_rows(h, n, q, reduced_coproduct)
    return [
        Element(h.name, {basis[j]: QPoly.const(x) for j, x in enumerate(v) if x})
        for v in rational_nullspace(rows, len(basis))
    ]
