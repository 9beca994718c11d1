"""Uniform handles over the four bialgebras and element-level operations.

An AlgebraHandle bundles the basis enumerator, degree, the basis-level
products (by kind) and the coproduct of one family behind a common
signature, so the brace/projector layer and the verification harness can
be written once.  qval = None means symbolic coefficients in q; an int
specializes every weight at that value (applied in `qpoly` and `linear`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True)
class AlgebraHandle:
    name: str
    basis: Callable
    degree: Callable
    product: Callable      # (kind, x, y, qval) -> Element
    coproduct: Callable    # (x, qval) -> Tensor2
    validate: Callable
    graded: bool = True


def _st_handle() -> AlgebraHandle:
    return AlgebraHandle(
        name="st",
        basis=st.st_basis,
        degree=st.st_degree,
        product=lambda kind, x, y, qval=None: st.st_product(kind, x, y, qval),
        coproduct=lambda x, qval=None: st.st_coproduct(x),
        validate=st.st_validate,
    )


def _pqsym_handle() -> AlgebraHandle:
    return AlgebraHandle(
        name="pqsym",
        basis=pqsym.pf_basis,
        degree=pqsym.pf_degree,
        product=lambda kind, x, y, qval=None: pqsym.pf_product(kind, x, y, qval),
        coproduct=lambda x, qval=None: pqsym.pf_coproduct(x),
        validate=pqsym.pf_validate,
    )


def _tree_handle() -> AlgebraHandle:
    return AlgebraHandle(
        name="tree",
        basis=trees.tree_basis,
        degree=trees.tree_degree,
        product=lambda kind, x, y, qval=None: trees.tree_product(kind, x, y, qval),
        coproduct=lambda x, qval=None: trees.tree_coproduct(x, qval),
        validate=trees.tree_validate,
    )


def _mperm_handle() -> AlgebraHandle:
    return AlgebraHandle(
        name="mperm",
        basis=mperm.mperm_basis,
        degree=mperm.mperm_degree,
        product=lambda kind, x, y, qval=None: mperm.mperm_product(kind, x, y, qval),
        coproduct=lambda x, qval=None: mperm.mperm_coproduct(x),
        validate=mperm.mperm_validate,
        graded=False,
    )


_REGISTRY: dict[str, AlgebraHandle] = {}


def get_algebra(name: str) -> AlgebraHandle:
    if name not in _REGISTRY:
        maker = {
            "st": _st_handle,
            "pqsym": _pqsym_handle,
            "tree": _tree_handle,
            "mperm": _mperm_handle,
        }.get(name)
        if maker is None:
            raise ValueError(f"unknown algebra {name!r}")
        _REGISTRY[name] = maker()
    return _REGISTRY[name]


ALGEBRA_NAMES = ("st", "pqsym", "tree", "mperm")


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
