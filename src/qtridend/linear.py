"""Formal linear combinations over the q-polynomial ring.

An Element is a finite QPoly-combination of basis objects from one
combinatorial family plus an optional multiple of the unit 1.  Basis
objects are plain hashable values (tuples for words and trees, tuples of
frozensets for multipermutations); the family tag on the Element keeps
different bases from being mixed.

Tensor slots use the UNIT sentinel for the unit leg, so a Tensor2 term is
keyed by a pair whose entries are basis objects or UNIT.

Unit conventions for the three partial products (x a basis element):
    1 > x = x        x > 1 = 0
    1 . x = 0        x . 1 = 0
    1 < x = 0        x < 1 = x
    1 * x = x        x * 1 = x        1 * 1 = 1
1 o 1 is undefined for the partial products and raises.
"""

from __future__ import annotations

from typing import Callable

from .qpoly import QPoly, acc_add

LEFT = "left"      # <
MIDDLE = "middle"  # .
RIGHT = "right"    # >
STAR = "star"      # < + q. + >

KINDS = (LEFT, MIDDLE, RIGHT)


class _Unit:
    __slots__ = ()

    def __repr__(self):
        return "1"


UNIT = _Unit()


class Element:
    """terms: dict basis-object -> QPoly; unit: QPoly coefficient of 1."""

    __slots__ = ("family", "terms", "unit")

    def __init__(self, family: str, terms: dict | None = None, unit: QPoly | None = None):
        self.family = family
        self.terms = {o: c for o, c in (terms or {}).items() if c}
        self.unit = unit if unit is not None else QPoly.zero()

    @classmethod
    def basis(cls, family: str, obj) -> "Element":
        return cls(family, {obj: QPoly.one()})

    @classmethod
    def unit_element(cls, family: str) -> "Element":
        return cls(family, {}, QPoly.one())

    @classmethod
    def zero(cls, family: str) -> "Element":
        return cls(family)

    @classmethod
    def from_raw(cls, family: str, raw: dict, unit_raw: dict | None = None) -> "Element":
        """Wrap raw exponent-dict accumulators produced by hot loops."""
        terms = {o: QPoly(m) for o, m in raw.items() if any(m.values())}
        unit = QPoly(unit_raw) if unit_raw else QPoly.zero()
        return cls(family, terms, unit)

    def is_zero(self) -> bool:
        return not self.terms and self.unit.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.family == other.family
            and self.terms == other.terms
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.family, frozenset(self.terms.items()), self.unit))

    def _check(self, other: "Element"):
        if self.family != other.family:
            raise ValueError(f"family mismatch: {self.family} vs {other.family}")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        terms = dict(self.terms)
        for o, c in other.terms.items():
            s = terms.get(o)
            terms[o] = c if s is None else s + c
        return Element(self.family, terms, self.unit + other.unit)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element(
            self.family, {o: -c for o, c in self.terms.items()}, -self.unit
        )

    def scale(self, s: QPoly | int) -> "Element":
        if isinstance(s, int):
            s = QPoly.const(s)
        return Element(
            self.family,
            {o: c * s for o, c in self.terms.items()},
            self.unit * s,
        )

    def eval_q(self, q: int) -> "Element":
        """Specialize every coefficient at an integer q."""
        return Element(
            self.family,
            {o: QPoly.const(c.eval(q)) for o, c in self.terms.items()},
            QPoly.const(self.unit.eval(q)),
        )

    def coeff(self, obj) -> QPoly:
        return self.terms.get(obj, QPoly.zero())

    def support(self):
        return set(self.terms)

    def __repr__(self):
        return f"Element({self.family}, {len(self.terms)} terms)"


def bilinear_extend(
    rule: Callable, kind: str, a: Element, b: Element
) -> Element:
    """Extend a basis-level product rule bilinearly, with unit conventions.

    rule(x, y) -> Element for basis objects x, y; kind selects which unit
    convention applies.  Raises on 1 o 1 for the partial kinds.
    """
    a._check(b)
    fam = a.family
    acc: dict = {}
    unit_acc: dict[int, int] = {}
    for ox, cx in a.terms.items():
        for oy, cy in b.terms.items():
            prod = rule(ox, oy)
            s = cx * cy
            if s.is_zero():
                continue
            for oz, cz in prod.terms.items():
                m = acc.setdefault(oz, {})
                for e, c in (cz * s).m.items():
                    m[e] = m.get(e, 0) + c
            if prod.unit:
                acc_add(unit_acc, (prod.unit * s).m)
    # unit on either side
    if a.unit:
        if kind in (RIGHT, STAR):  # 1 > x = x, 1 * x = x
            for oy, cy in b.terms.items():
                m = acc.setdefault(oy, {})
                acc_add(m, (a.unit * cy).m)
        if b.unit:
            if kind == STAR:
                acc_add(unit_acc, (a.unit * b.unit).m)
            else:
                raise ValueError("1 o 1 undefined for partial products")
    if b.unit:
        if kind in (LEFT, STAR):  # x < 1 = x, x * 1 = x
            for ox, cx in a.terms.items():
                m = acc.setdefault(ox, {})
                acc_add(m, (b.unit * cx).m)
    return Element.from_raw(fam, acc, unit_acc)


class Tensor2:
    """Rank-2 tensor: dict (slot, slot) -> QPoly with UNIT for unit legs."""

    __slots__ = ("family", "terms")

    def __init__(self, family: str, terms: dict | None = None):
        self.family = family
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def from_raw(cls, family: str, raw: dict) -> "Tensor2":
        return cls(family, {k: QPoly(m) for k, m in raw.items() if any(m.values())})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor2):
            return NotImplemented
        return self.family == other.family and self.terms == other.terms

    def __add__(self, other: "Tensor2") -> "Tensor2":
        if self.family != other.family:
            raise ValueError("family mismatch")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k)
            terms[k] = c if s is None else s + c
        return Tensor2(self.family, terms)

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        return self + other.scale(QPoly.const(-1))

    def scale(self, s: QPoly | int) -> "Tensor2":
        if isinstance(s, int):
            s = QPoly.const(s)
        return Tensor2(self.family, {k: c * s for k, c in self.terms.items()})

    def eval_q(self, q: int) -> "Tensor2":
        return Tensor2(
            self.family,
            {k: QPoly.const(c.eval(q)) for k, c in self.terms.items()},
        )

    def interior(self) -> "Tensor2":
        """Terms with no unit leg (the reduced part of a coproduct)."""
        return Tensor2(
            self.family,
            {
                (l, r): c
                for (l, r), c in self.terms.items()
                if l is not UNIT and r is not UNIT
            },
        )

    def map_slots(self, fn_left, fn_right, out_family: str) -> "Tensor2":
        """Apply Element-valued maps to each leg (UNIT maps to UNIT)."""
        out: dict = {}
        for (l, r), c in self.terms.items():
            le = fn_left(l)
            re = fn_right(r)
            for sl, cl in _slot_items(le):
                for sr, cr in _slot_items(re):
                    k = (sl, sr)
                    cur = out.get(k)
                    add = c * cl * cr
                    out[k] = add if cur is None else cur + add
        return Tensor2(out_family, out)

    def __repr__(self):
        return f"Tensor2({self.family}, {len(self.terms)} terms)"


def _slot_items(el):
    """Iterate (slot, coeff) of an Element or of the UNIT sentinel."""
    if el is UNIT:
        yield UNIT, QPoly.one()
        return
    for o, c in el.terms.items():
        yield o, c
    if el.unit:
        yield UNIT, el.unit


def tensor_of(a: Element, b: Element) -> Tensor2:
    """a (x) b including unit legs."""
    a._check(b)
    out: dict = {}
    for sl, cl in _slot_items(a):
        for sr, cr in _slot_items(b):
            k = (sl, sr)
            c = cl * cr
            cur = out.get(k)
            out[k] = c if cur is None else cur + c
    return Tensor2(a.family, out)


def tensor_flatten(t: Tensor2, side: str, coproduct: Callable) -> dict:
    """Apply the coproduct to one leg of every term; rank-3 result.

    side 'left' computes (Delta (x) Id), side 'right' (Id (x) Delta).
    coproduct maps a basis object to a Tensor2; Delta(1) = 1 (x) 1.
    Returns a plain dict (slot, slot, slot) -> QPoly.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    out: dict = {}
    for (l, r), c in t.terms.items():
        target = l if side == "left" else r
        if target is UNIT:
            expansion = [((UNIT, UNIT), QPoly.one())]
        else:
            expansion = list(coproduct(target).terms.items())
        for (u, v), cc in expansion:
            key = (u, v, r) if side == "left" else (l, u, v)
            add = c * cc
            cur = out.get(key)
            nc = add if cur is None else cur + add
            if nc.is_zero():
                out.pop(key, None)
            else:
                out[key] = nc
    return out
