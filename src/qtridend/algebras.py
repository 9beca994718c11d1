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
    MIDDLE,
    RIGHT,
    STAR,
    UNIT,
    Element,
    Tensor2,
    _same_family,
    bilinear_extend,
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


def el_product(
    h: AlgebraHandle, kind: str, a: Element, b: Element, qval: int | None = None
) -> Element:
    return bilinear_extend(lambda x, y: h.product(kind, x, y, qval), kind, a, b)


def el_star(h: AlgebraHandle, a: Element, b: Element, qval: int | None = None) -> Element:
    return el_product(h, STAR, a, b, qval)


def el_rtilde(h: AlgebraHandle, a: Element, b: Element, qval: int | None = None) -> Element:
    """The dendriform right half > + q. with unit conventions of >."""
    right, mid = el_product(h, RIGHT, a, b, qval), el_product(h, MIDDLE, a, b, qval)
    return Element.sum(h.name, ((right, 1), (mid, q_scalar(qval))))


def el_coproduct(h: AlgebraHandle, el: Element, qval: int | None = None) -> Tensor2:
    """Linear extension of the coproduct, with Delta(1) = 1 (x) 1.  The
    coproduct of a lone basis term is the cached tensor itself."""
    x = lone_basis(el)
    if x is not None:
        out = h.coproduct(x, qval)
        _same_family(h.name, out.family)
        return out
    parts = [(h.coproduct(o, qval), c) for o, c in el.terms.items()]
    if el.unit:
        parts.append(((UNIT, UNIT), el.unit))
    return Tensor2.sum(h.name, parts)


def reduced_coproduct(h: AlgebraHandle, obj, qval: int | None = None) -> Tensor2:
    """Interior terms of the coproduct of a basis object."""
    return h.coproduct(obj, qval).interior()


def compat_rhs(
    h: AlgebraHandle, kind: str, x, y, qval: int | None = None
) -> Tensor2:
    """(x_(1) * y_(1)) (x) (x_(2) o y_(2)) with the boundary convention
    (x * y) (x) (1 o 1) := (x o y) (x) 1, for basis objects x, y."""
    dx = h.coproduct(x, qval)
    dy = h.coproduct(y, qval)
    unit = Element.unit_element(h.name)

    def parts():
        for (x1, x2), cx in dx.terms.items():
            for (y1, y2), cy in dy.terms.items():
                a, b = Element.slot(h.name, x1), Element.slot(h.name, y1)
                if x2 is UNIT and y2 is UNIT:
                    pair = (el_product(h, kind, a, b, qval), unit)
                else:
                    a2, b2 = Element.slot(h.name, x2), Element.slot(h.name, y2)
                    pair = (el_star(h, a, b, qval), el_product(h, kind, a2, b2, qval))
                yield pair, cx * cy

    return Tensor2.sum(h.name, parts())
