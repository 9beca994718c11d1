"""The common surface of the four bialgebras, and element-level operations.

Each family module (`st`, `pqsym`, `trees`, `mperm`) is its own handle:
it defines `name`, `graded`, `basis`, `degree`, `validate`,
`product(kind, x, y, qval)`, `coproduct(x, qval)` and `scan`, each an
alias of the module's own function, so the brace/projector layer and the
verification harness can be written once.  Callers look the functions up
on the module at each call, so rebinding one (as a tracer or a test's
monkeypatch does) reaches them all.  qval = None means symbolic
coefficients in q; an int specializes every weight at that value
(applied in `qpoly` and `linear`).
"""

from __future__ import annotations

from typing import Callable, Protocol

from . import mperm, pqsym, st, trees
from .linear import (
    KINDS,
    MIDDLE,
    RIGHT,
    STAR,
    UNIT,
    Element,
    Tensor2,
    _same_family,
    bilinear_extend,
    file_bilinear,
    file_tensor,
    file_terms,
    filed_element,
    filed_tensor,
    lone_basis,
)
from .qpoly import q_scalar


class AlgebraHandle(Protocol):
    """What `get_algebra` hands out: a family module."""

    name: str
    graded: bool
    scan: Callable[[int], dict] | None  # brute-force products by total degree

    def basis(self, n: int) -> tuple: ...
    def degree(self, x) -> int: ...
    def validate(self, x): ...
    def product(self, kind: str, x, y, qval: int | None = None) -> Element: ...
    def coproduct(self, x, qval: int | None = None) -> Tensor2: ...


_FAMILIES = {family.name: family for family in (st, pqsym, trees, mperm)}

ALGEBRA_NAMES = tuple(_FAMILIES)


def get_algebra(name: str) -> AlgebraHandle:
    """The family module of the named algebra."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown algebra {name!r}") from None


def _rule(h: AlgebraHandle, kind: str, qval: int | None) -> Callable:
    return lambda x, y: h.product(kind, x, y, qval)


def el_product(
    h: AlgebraHandle, kind: str, a: Element, b: Element, qval: int | None = None
) -> Element:
    return bilinear_extend(_rule(h, kind, qval), kind, a, b)


def file_product(
    raw: dict, h: AlgebraHandle, kind: str, a: Element, b: Element, s: int, qval: int | None = None
) -> dict:
    """Add s * (a o b) into the accumulator raw (`linear.file_bilinear`),
    so that a sum of products is filed in one pass.  Returns raw."""
    return file_bilinear(raw, _rule(h, kind, qval), kind, a, b, s)


def el_star(h: AlgebraHandle, a: Element, b: Element, qval: int | None = None) -> Element:
    return el_product(h, STAR, a, b, qval)


def el_rtilde(h: AlgebraHandle, a: Element, b: Element, qval: int | None = None) -> Element:
    """The dendriform right half > + q. with unit conventions of >: 1 rt y
    = y, x rt 1 = 0, and 1 rt 1 raises.  The > part and the q. part are
    filed into one accumulator, the unit conventions of . adding nothing."""
    a._check(b)
    _same_family(h.name, a.family)
    raw = file_product({}, h, RIGHT, a, b, 1, qval)
    return filed_element(h.name, file_product(raw, h, MIDDLE, a, b, q_scalar(qval), qval))


def file_coproduct(
    raw: dict, h: AlgebraHandle, el: Element, s: int, qval: int | None = None
) -> dict:
    """Add s * Delta(el) into the accumulator raw: s * c * Delta(o) for
    each term c * o, and s * unit * 1 (x) 1 for the unit.  The counterpart
    of `file_product`.  Returns raw."""
    for o, c in el.terms.items():
        d = h.coproduct(o, qval)
        _same_family(h.name, d.family)
        file_terms(raw, d.terms.items(), c * s)
    if el.unit:
        file_tensor(raw, h.name, UNIT, UNIT, el.unit * s)
    return raw


def el_coproduct(h: AlgebraHandle, el: Element, qval: int | None = None) -> Tensor2:
    """Linear extension of the coproduct, with Delta(1) = 1 (x) 1.  The
    coproduct of a lone basis term is the cached tensor itself."""
    x = lone_basis(el)
    if x is not None:
        out = h.coproduct(x, qval)
        _same_family(h.name, out.family)
        return out
    return filed_tensor(h.name, file_coproduct({}, h, el, 1, qval))


def reduced_coproduct(h: AlgebraHandle, obj, qval: int | None = None) -> Tensor2:
    """Interior terms of the coproduct of a basis object."""
    return h.coproduct(obj, qval).interior()


def _file_compat(
    raw: dict, h: AlgebraHandle, kind: str, x, y, s: int, qval: int | None, stars: dict
) -> dict:
    """Add s * `compat_rhs` into raw, term by term (x_(1) * y_(1)) (x)
    (x_(2) o y_(2)) at scale s * cx * cy.  The star legs x_(1) * y_(1) are
    kept in stars under (x_(1), y_(1)), so the kinds of one pair compute
    each once.  Returns raw."""
    slot = Element.slot
    for (x1, x2), cx in h.coproduct(x, qval).terms.items():
        for (y1, y2), cy in h.coproduct(y, qval).terms.items():
            if x2 is UNIT and y2 is UNIT:
                a, b = el_product(h, kind, slot(h.name, x1), slot(h.name, y1), qval), UNIT
            else:
                a = stars.get((x1, y1))
                if a is None:
                    a = stars[x1, y1] = el_star(h, slot(h.name, x1), slot(h.name, y1), qval)
                b = el_product(h, kind, slot(h.name, x2), slot(h.name, y2), qval)
            file_tensor(raw, h.name, a, b, s * cx * cy)
    return raw


def compat_rhs(
    h: AlgebraHandle, kind: str, x, y, qval: int | None = None
) -> Tensor2:
    """(x_(1) * y_(1)) (x) (x_(2) o y_(2)) with the boundary convention
    (x * y) (x) (1 o 1) := (x o y) (x) 1, for basis objects x, y."""
    return filed_tensor(h.name, _file_compat({}, h, kind, x, y, 1, qval, {}))


def compat_holds(h: AlgebraHandle, x, y, qval: int | None = None) -> tuple:
    """For each kind of KINDS, whether Delta(x o y) == compat_rhs(h, kind,
    x, y, qval), for basis objects x, y.  Each difference Delta(x o y) -
    rhs is filed into one dict, and every sum in it must be 0, so no
    Tensor2 is built; the three kinds share the star legs x_(1) * y_(1)
    of the right-hand side."""
    ex, ey = Element.basis(h.name, x), Element.basis(h.name, y)
    stars: dict = {}
    out = []
    for kind in KINDS:
        raw = file_coproduct({}, h, el_product(h, kind, ex, ey, qval), 1, qval)
        out.append(not any(_file_compat(raw, h, kind, x, y, -1, qval, stars).values()))
    return tuple(out)
