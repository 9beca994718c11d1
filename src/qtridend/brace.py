"""Brace operations, the distributive law, and the primitive projector.

All operations act on Elements of one algebra through its handle and work
for symbolic q (qval None) or any integer specialization.

The brace M_1n(x; y_1..y_n) is the alternating sum over i of

    omega_<(y_1..y_i)  rtilde  x  <  omega_rtilde(y_{i+1}..y_n)

with omega_< the right-nested < word, rtilde = q. + > and omega_rtilde
its left-nested word; M_10 = Id.  Every omega word, and the oracle's >
word, is one fold (`_nested`).  brace files its n + 1 parts into one
accumulator (`linear`): each outer < product basis pair by basis pair,
with its sign, and then the last part omega_<(y..) rtilde x.

The projector e(x) = x - sum x_(1) > e(x_(2)) (sum over the interior of
the coproduct) is implemented by that recursion and checked against its
closed form `e_tri_oracle`, the alternating sum over n of the
right-nested > product of the n legs of the iterated reduced coproduct.

reconstruct re-expands x as the sum over r of the left-nested > products
of e applied to each leg of the r-fold reduced coproduct; it must return
x itself, which exhibits the basis-free filtration underlying the
structure theorem.  It sums c R(o) over the terms c o of x, where the
memoized recursion

    R(x) = e(x) + sum R(x_(1)) > e(x_(2))

runs over the reduced coproduct.  e and R are each one accumulator pass
(`_file_steps`): x, or e(x), and every step x_(1) > e(x_(2)) are filed
into one dict, so no step is built as an Element of its own.  Unrolled,
R(x) is that sum over r with the r-fold coproduct grown at its first
leg, (Dbar (x) Id) Dbar ..., where the left-nested sum reads it grown at
the last; the two agree because Dbar is coassociative, which
`verify_bialgebra` certifies.  When the theorem holds, R(x_(1)) = x_(1)
is one basis term, so each step is one basis object > e(x_(2)).
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations_with_replacement

from .algebras import (
    AlgebraHandle,
    el_coproduct,
    el_product,
    el_rtilde,
    file_product,
    reduced_coproduct,
)
from .grammar import render_element
from .linear import (
    LEFT,
    MIDDLE,
    RIGHT,
    UNIT,
    Element,
    file_element,
    file_tensor,
    file_terms,
    filed_element,
    filed_tensor,
    interior_items,
    sum_terms,
)
from .memo import Memo
from .qpoly import q_scalar
from .rank import rational_nullspace, rational_rank

# The most basis objects of one degree that the rank routines take on;
# pqsym degree 6 has 16,807 and degree 7 has 262,144.
BASIS_CEILING = 20_000


def _nested(ys, step) -> Element:
    """step folded over ys from the left: step(..step(y1, y2).., yn)."""
    if not ys:
        raise ValueError("omega word of no arguments")
    return reduce(step, ys)


def omega_left(h: AlgebraHandle, ys: list, qval: int | None = None) -> Element:
    """Right-nested < word: y1 < (y2 < (... < yn))."""
    return _nested(ys[::-1], lambda acc, y: el_product(h, LEFT, y, acc, qval))


def omega_rtilde(h: AlgebraHandle, ys: list, qval: int | None = None) -> Element:
    """Left-nested rtilde word: ((y1 rt y2) rt ...) rt yn."""
    return _nested(ys, lambda acc, y: el_rtilde(h, acc, y, qval))


def omega_right(h: AlgebraHandle, ys: list, qval: int | None = None) -> Element:
    """Left-nested > word: ((y1 > y2) > ...) > yn."""
    return _nested(ys, lambda acc, y: el_product(h, RIGHT, acc, y, qval))


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
    raw: dict = {}
    for i in range(n):
        t = el_rtilde(h, omega_left(h, ys[:i], qval), x, qval) if i else x
        sign = -1 if (n - i) % 2 else 1
        file_product(raw, h, LEFT, t, omega_rtilde(h, ys[i:], qval), sign, qval)
    last = el_rtilde(h, omega_left(h, ys, qval), x, qval)  # i = n, sign +1
    return filed_element(h.name, file_element(raw, h.name, last))


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
    rights = [brace(h, y, zs[j:], qval) for j in range(n + 1)]

    def parts():
        for i in range(n + 1):
            chain = brace(h, x, zs[:i], qval)  # M_1i(x; z..) . z_{i+1} ... z_j
            scale = 1  # (-q)^(j - i)
            for j in range(i, n + 1):
                yield el_product(h, MIDDLE, chain, rights[j], qval), scale
                if j < n:
                    chain = el_product(h, MIDDLE, chain, zs[j], qval)
                scale = scale * minus_q

    return lhs == Element.sum(h.name, parts())


def _bound_sequences(n: int, m: int):
    """Nondecreasing 0 <= i1 <= j1 <= ... <= in <= jn <= m as pair lists."""
    return (
        list(zip(c[::2], c[1::2])) for c in combinations_with_replacement(range(m + 1), 2 * n)
    )


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


def _file_steps(raw: dict, h: AlgebraHandle, qval: int | None, obj, head, sign: int) -> Element:
    """File sign * c * head(x_(1)) > e(x_(2)) into raw over the terms
    c x_(1) (x) x_(2) of the reduced coproduct of obj, read off the
    coproduct by `interior_items`, and skipping those with
    e(x_(2)) = 0; return the Element of raw."""
    for (o1, o2), c in interior_items(h.coproduct(obj, qval)):
        e2 = e_tri_basis(h, o2, qval)
        if not e2.is_zero():
            file_product(raw, h, RIGHT, head(o1), e2, sign * c, qval)
    return filed_element(h.name, raw)


@Memo
def _etri_cache(h: AlgebraHandle, qval: int | None, obj) -> Element:
    """e on a basis object, by the recursion e(x) = x - x_(1) > e(x_(2))."""
    return _file_steps({obj: 1}, h, qval, obj, lambda o: Element.basis(h.name, o), -1)


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
            head, red = objs[:-1], interior_items(h.coproduct(objs[-1], qval))
            yield ((head + o12, c2) for o12, c2 in red), c

    return sum_terms(parts())


def _leg_levels(h: AlgebraHandle, x: Element, qval: int | None):
    """The leg dicts {(x_(1), .., x_(r)): c} of the r-fold reduced
    coproduct of x, for r = 1, 2, ... up to the last non-zero one."""
    legs = {(o,): c for o, c in x.terms.items() if c}
    while legs:
        yield legs
        legs = _advance_legs(h, legs, qval)


def e_tri_oracle(h: AlgebraHandle, x: Element, qval: int | None = None) -> Element:
    """Closed form: sum_n (-1)^(n+1) of right-nested > over the n legs of
    the iterated reduced coproduct."""
    if x.unit:
        raise ValueError("e_tri is defined on the augmentation ideal")

    def parts():
        for r, legs in enumerate(_leg_levels(h, x, qval)):
            for objs, c in legs.items():
                ys = [Element.basis(h.name, o) for o in reversed(objs)]
                word = _nested(ys, lambda acc, y: el_product(h, RIGHT, y, acc, qval))
                yield word, -c if r % 2 else c

    return Element.sum(h.name, parts())


def filtration_degree(h: AlgebraHandle, x: Element, qval: int | None = None) -> int:
    """Least n with vanishing (n+1)-fold reduced coproduct (0 for x = 0)."""
    if x.unit:
        raise ValueError("filtration degree lives in the augmentation ideal")
    return sum(1 for _ in _leg_levels(h, x, qval))


@Memo
def _recon_cache(h: AlgebraHandle, qval: int | None, obj) -> Element:
    """R on a basis object, by the recursion R(x) = e(x) + R(x_(1)) > e(x_(2))."""
    raw = file_element({}, h.name, e_tri_basis(h, obj, qval))
    return _file_steps(raw, h, qval, obj, lambda o: _recon_cache[h, qval, o], 1)


def reconstruct(h: AlgebraHandle, x: Element, qval: int | None = None) -> Element:
    """Sum over r of left-nested > of e over the legs of the r-fold
    reduced coproduct, by the memoized recursion R; equals x."""
    if x.unit:
        raise ValueError("reconstruct is defined on the augmentation ideal")
    return Element.sum(h.name, ((_recon_cache[h, qval, o], c) for o, c in x.terms.items()))


def is_primitive(h: AlgebraHandle, x: Element, qval: int | None = None) -> bool:
    """Whether the reduced coproduct of x vanishes.  The interior terms of
    c * Delta(o), over the terms c * o of x, are filed into one dict, and
    every sum must be 0.  A term with a unit leg, the unit of x's 1 (x) 1
    among them, never reaches the interior, so none is filed: the full
    coproduct of x is never built."""
    raw: dict = {}
    for o, c in x.terms.items():
        file_terms(raw, interior_items(h.coproduct(o, qval)), c)
    return not any(raw.values())


def omega_coproduct_check(
    h: AlgebraHandle, xs: list, qval: int | None = None
) -> bool:
    """Delta(omega_>(x1..xn)) = sum_i omega_>(x1..xi) (x) omega_>(x_{i+1}..xn)
    for primitive arguments, with the empty omega word equal to 1."""
    if not all(is_primitive(h, x, qval) for x in xs):
        raise ValueError("omega_coproduct_check needs primitive arguments")
    lhs = el_coproduct(h, omega_right(h, xs, qval), qval)

    def omega(ys):  # the empty omega word is 1
        return omega_right(h, ys, qval) if ys else UNIT

    rhs: dict = {}
    for i in range(len(xs) + 1):
        file_tensor(rhs, h.name, omega(xs[:i]), omega(xs[i:]))
    return lhs == filed_tensor(h.name, rhs)


def _coefficient_rows(h: AlgebraHandle, n: int, q: int, image) -> tuple:
    """The degree-n basis and the sparse integer rows ({column: entry}), at
    q, of the map that sends basis[j] to image(h, basis[j], q): column j,
    and one row per term key of the images.  A q that is not an int is
    refused: symbolic entries would leave only dense Fraction elimination."""
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    if not isinstance(q, int):
        raise ValueError(f"primitive ranks need an integer q, got {q!r}; ranks are taken over Q")
    for k in range(1, n + 1):  # stop at the first degree past the ceiling
        if (size := len(h.basis(k))) > BASIS_CEILING:
            raise ValueError(f"{h.name} degree {k} has {size} basis objects, over {BASIS_CEILING}")
    basis = h.basis(n)
    rows: dict = {}
    for j, o in enumerate(basis):
        for k, c in image(h, o, q).terms.items():
            rows.setdefault(k, {})[j] = c
    return basis, list(rows.values())


def primitive_rank(h: AlgebraHandle, n: int, q: int) -> int:
    """Rank of e_tri on the degree-n basis, over Q at integer q."""
    basis, rows = _coefficient_rows(h, n, q, e_tri_basis)
    return rational_rank(rows, len(basis))


def primitive_kernel_basis(h: AlgebraHandle, n: int, q: int) -> list[Element]:
    """Basis of ker of the reduced coproduct on the degree-n basis at q."""
    basis, rows = _coefficient_rows(h, n, q, reduced_coproduct)
    return [
        Element(h.name, {basis[j]: x for j, x in v.items()})
        for v in rational_nullspace(rows, len(basis))
    ]
