"""Formal linear combinations over the q-polynomial ring.

An Element is a finite Z[q]-combination of basis objects from one
combinatorial family plus an optional multiple of the unit 1.  Basis
objects are plain hashable values (tuples for words and trees, tuples of
frozensets for multipermutations); the family tag on the Element keeps
different bases from being mixed.  Every stored coefficient is a nonzero
int: the value at q = qval under a specialization, else the value at
q = X (`qpoly`), which `qpoly.decode` reads back.  The constructors,
`sum` and `scale` read every coefficient and scale through
`operator.index`, which takes any integer-like value and refuses the
rest.  For symbolic q this is exact only while every coefficient of
every polynomial stays below X/2 = 2^63 in magnitude, and nothing here
checks it: an int coefficient of X/2 or more is read as an encoded
polynomial (X is q), and a product or sum whose true coefficient
reaches X/2 decodes wrong.
The harness stays far below the limit (`qpoly`), and the CLI bounds its
symbolic requests before computing.

Tensor slots use the UNIT sentinel for the unit leg, so a Tensor2 term is
keyed by a pair whose entries are basis objects or UNIT.

Unit conventions for the three partial products (x a basis element):
    1 > x = x        x > 1 = 0
    1 . x = 0        x . 1 = 0
    1 < x = 0        x < 1 = x
    1 * x = x        x * 1 = x        1 * 1 = 1
1 o 1 is undefined for the partial products and raises.

Every sum of scaled parts in the package is built by one accumulator,
`_accumulate`, which adds scale * coeff key by key as ints into fresh
dicts; `Element.sum`, `Tensor2.sum` and `sum_terms` expose it, and `+`,
`-` and `scale` go through it.  Rank-3 flattening, (Delta (x) Id) t or
(Id (x) Delta) t, files straight into one dict (`_flatten_into`), so
`is_coassociative` files both sides into the same dict.

Elements and tensors are immutable once built, so they are shared, never
copied: the module caches hand out their results as they are, and
`bilinear_extend` and `el_coproduct` of a lone basis term (coefficient 1,
no unit) return the cached basis result itself.  Only the constructors
here write `.terms` or `.unit` (`tests/test_layering.py`).  The family
kernels hand over q-monomials (obj, e), filed by `file_monomial`, and
`from_monomials` sums q^e over them: the shared X^e of `qpoly.X_POWERS`,
or qval**e when specialized.  Only this module and `qpoly` branch on
qval.
"""

from __future__ import annotations

from operator import index
from typing import Callable

from .qpoly import X_POWERS, evaluate

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


def _accumulate(parts) -> dict:
    """Sum scale * coeff over parts, key by key, into fresh int sums.

    parts iterates (items, scale): items iterates (key, coeff) pairs and
    is read to the end before the next part is drawn; coeff is an int,
    scale anything `index` takes.  A key whose sum cancels maps to 0.
    """
    raw: dict = {}
    get = raw.get
    for items, s in parts:
        s = index(s)
        for k, c in items:
            raw[k] = get(k, 0) + c * s
    return raw


def _monomial_terms(monomials, qval: int | None) -> dict:
    """Count (key, e) monomials into key -> coefficient: the sum of q^e
    at q = X, a key filed once holding the shared X^e itself, or the sum
    of qval**e when specialized.  Keys whose sum vanishes (only under a
    specialization) are dropped."""
    raw: dict = {}
    get = raw.get
    if qval is not None:
        for k, e in monomials:
            raw[k] = get(k, 0) + qval**e
        return {k: c for k, c in raw.items() if c}
    xp = X_POWERS
    for k, e in monomials:
        c = get(k)
        raw[k] = xp[e] if c is None else c + xp[e]
    return raw


def file_monomial(monomials: dict, kind: str, obj, e: int) -> None:
    """File q^e * obj of the total product under STAR and under its kind,
    one q less in the middle (STAR = < + q. + >); outside the middle both
    lists share one monomial."""
    mono = (obj, e)
    monomials[kind].append((obj, e - 1) if kind == MIDDLE else mono)
    monomials[STAR].append(mono)


def sum_terms(parts) -> dict:
    """Sum of scaled coefficient maps: parts iterates (items, scale) with
    items an iterable of (key, coeff), coeff and scale ints.  Returns a
    fresh dict key -> coefficient without zeros."""
    return {k: c for k, c in _accumulate(parts).items() if c}


def _same_family(family: str, other: str) -> None:
    if family != other:
        raise ValueError(f"family mismatch: {family} vs {other}")


def _element(family: str, terms: dict, unit=0) -> "Element":
    """An Element that takes terms and unit as they are: int coefficients,
    zero-free, and never mutated afterwards."""
    el = object.__new__(Element)
    el.family, el.terms, el.unit = family, terms, unit
    return el


def _tensor(family: str, terms: dict) -> "Tensor2":
    """A Tensor2 that takes terms as they are: int coefficients, zero-free,
    and never mutated afterwards."""
    t = object.__new__(Tensor2)
    t.family, t.terms = family, terms
    return t


class Element:
    """terms: dict basis-object -> coefficient; unit: coefficient of 1.
    Coefficients are nonzero ints (see `qpoly`)."""

    __slots__ = ("family", "terms", "unit")

    def __init__(self, family: str, terms: dict | None = None, unit: int = 0):
        self.family = family
        self.terms = {o: index(c) for o, c in (terms or {}).items() if c}
        self.unit = index(unit) if unit else 0

    @classmethod
    def basis(cls, family: str, obj) -> "Element":
        return _element(family, {obj: 1})

    @classmethod
    def unit_element(cls, family: str) -> "Element":
        return _element(family, {}, 1)

    @classmethod
    def slot(cls, family: str, slot) -> "Element":
        """The Element of a tensor slot: a basis object, or 1 for UNIT."""
        return cls.unit_element(family) if slot is UNIT else cls.basis(family, slot)

    @classmethod
    def zero(cls, family: str) -> "Element":
        return _element(family, {})

    @classmethod
    def from_monomials(cls, family: str, monomials, qval: int | None = None) -> "Element":
        """Sum of q^e * obj over (obj, e) in monomials; q = qval unless None."""
        return _element(family, _monomial_terms(monomials, qval))

    @classmethod
    def sum(cls, family: str, parts) -> "Element":
        """The sum of scale * el over parts (el, scale), el an Element of
        family and scale an int; always a new Element."""

        def items():
            for el, s in parts:
                _same_family(family, el.family)
                yield el.terms.items(), s
                if el.unit:
                    yield ((UNIT, el.unit),), s

        terms = sum_terms(items())
        return _element(family, terms, terms.pop(UNIT, 0))

    def is_zero(self) -> bool:
        return not self.terms and not self.unit

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
        _same_family(self.family, other.family)

    def __add__(self, other: "Element") -> "Element":
        return Element.sum(self.family, ((self, 1), (other, 1)))

    def __sub__(self, other: "Element") -> "Element":
        return Element.sum(self.family, ((self, 1), (other, -1)))

    def __neg__(self) -> "Element":
        return _element(self.family, {o: -c for o, c in self.terms.items()}, -self.unit)

    def scale(self, s: int) -> "Element":
        return Element.sum(self.family, ((self, s),))

    def eval_q(self, q: int) -> "Element":
        """Specialize every symbolic coefficient at an integer q.

        Every int coefficient is read as X-encoded (`qpoly`), so this is
        only for an element computed with symbolic q: on one computed at
        an integer q, a coefficient of 2^63 or more decodes wrong."""
        return Element(
            self.family,
            {o: evaluate(c, q) for o, c in self.terms.items()},
            evaluate(self.unit, q),
        )

    def coeff(self, obj) -> int:
        """The coefficient of obj, 0 when absent: the int of `qpoly`, which
        `qpoly.decode` reads back when symbolic."""
        return self.terms.get(obj, 0)

    def support(self):
        return set(self.terms)

    def __repr__(self):
        return f"Element({self.family}, {len(self.terms)} terms)"


def lone_basis(el: Element):
    """x when el is the basis element x itself (one term, coefficient 1,
    no unit), else None."""
    if el.unit or len(el.terms) != 1:
        return None
    ((obj, c),) = el.terms.items()
    return obj if c == 1 else None


def bilinear_extend(
    rule: Callable, kind: str, a: Element, b: Element
) -> Element:
    """Extend a basis-level product rule bilinearly, with unit conventions.

    rule(x, y) -> Element for basis objects x, y; kind selects which unit
    convention applies.  Raises on 1 o 1 for the partial kinds.  The
    product of two lone basis terms is rule(x, y) itself, not a copy.
    """
    a._check(b)
    x, y = lone_basis(a), lone_basis(b)
    if x is not None and y is not None:
        out = rule(x, y)
        _same_family(a.family, out.family)
        return out
    if a.unit and b.unit and kind != STAR:
        raise ValueError("1 o 1 undefined for partial products")
    parts = [
        (rule(ox, oy), cx * cy)
        for ox, cx in a.terms.items()
        for oy, cy in b.terms.items()
    ]
    if a.unit and kind in (RIGHT, STAR):  # 1 > y = y, 1 * y = y, 1 * 1 = 1
        parts.append((b, a.unit))
    if b.unit and kind in (LEFT, STAR):  # x < 1 = x, x * 1 = x; 1 * 1 is above
        parts.append((_element(a.family, a.terms), b.unit))
    return Element.sum(a.family, parts)


class Tensor2:
    """Rank-2 tensor: dict (slot, slot) -> int coefficient, with UNIT for
    unit legs."""

    __slots__ = ("family", "terms")

    def __init__(self, family: str, terms: dict | None = None):
        self.family = family
        self.terms = {k: index(c) for k, c in (terms or {}).items() if c}

    @classmethod
    def from_monomials(cls, family: str, monomials, qval: int | None = None) -> "Tensor2":
        """Sum of q^e * (l (x) r) over ((l, r), e) in monomials; q = qval unless None."""
        return _tensor(family, _monomial_terms(monomials, qval))

    @classmethod
    def sum(cls, family: str, parts) -> "Tensor2":
        """The sum of scale * part over parts (part, scale): part is a
        Tensor2 of family or a pair (a, b) standing for a (x) b, with a, b
        Elements of family or UNIT; scale is an int.  Always a new Tensor2."""

        def items():
            for part, s in parts:
                if isinstance(part, Tensor2):
                    _same_family(family, part.family)
                    yield part.terms.items(), s
                    continue
                a, b = part
                for leg in part:
                    if leg is not UNIT:
                        _same_family(family, leg.family)
                right = list(_slot_items(b))
                for sl, cl in _slot_items(a):
                    yield (((sl, sr), cr) for sr, cr in right), cl * s

        return _tensor(family, sum_terms(items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor2):
            return NotImplemented
        return self.family == other.family and self.terms == other.terms

    def __add__(self, other: "Tensor2") -> "Tensor2":
        return Tensor2.sum(self.family, ((self, 1), (other, 1)))

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        return Tensor2.sum(self.family, ((self, 1), (other, -1)))

    def scale(self, s: int) -> "Tensor2":
        return Tensor2.sum(self.family, ((self, s),))

    def eval_q(self, q: int) -> "Tensor2":
        """As `Element.eval_q`: only for a tensor computed with symbolic q."""
        return Tensor2(self.family, {k: evaluate(c, q) for k, c in self.terms.items()})

    def counit(self, side: str) -> Element:
        """The counit on one leg: (eps (x) id) for side 'left', (id (x) eps)
        for 'right'.  The terms with a unit on that leg have distinct other
        legs, so they are filtered, not summed."""
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        killed = 0 if side == "left" else 1
        terms = {k[1 - killed]: c for k, c in self.terms.items() if k[killed] is UNIT}
        return _element(self.family, terms, terms.pop(UNIT, 0))

    def interior(self) -> "Tensor2":
        """Terms with no unit leg (the reduced part of a coproduct)."""
        return _tensor(
            self.family,
            {
                (l, r): c
                for (l, r), c in self.terms.items()
                if l is not UNIT and r is not UNIT
            },
        )

    def map_slots(self, fn_left, fn_right, out_family: str) -> "Tensor2":
        """Apply Element-valued maps to each leg; a UNIT leg stays UNIT
        and is not handed to the map."""
        return Tensor2.sum(
            out_family,
            (
                ((UNIT if l is UNIT else fn_left(l), UNIT if r is UNIT else fn_right(r)), c)
                for (l, r), c in self.terms.items()
            ),
        )

    def __repr__(self):
        return f"Tensor2({self.family}, {len(self.terms)} terms)"


def _slot_items(el):
    """Iterate (slot, coeff) of an Element or of the UNIT sentinel."""
    if el is UNIT:
        yield UNIT, 1
        return
    yield from el.terms.items()
    if el.unit:
        yield UNIT, el.unit


def tensor_of(a: Element, b: Element) -> Tensor2:
    """a (x) b including unit legs."""
    return Tensor2.sum(a.family, (((a, b), 1),))


_DELTA_UNIT = {(UNIT, UNIT): 1}


def _flatten_into(raw: dict, t: Tensor2, side: str, coproduct: Callable, sign: int) -> dict:
    """Add sign * (Delta (x) Id) t for side 'left', sign * (Id (x) Delta) t
    for side 'right', into raw key by key; a key whose sum cancels maps to
    0.  Returns raw."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    left, get = side == "left", raw.get
    for (l, r), c in t.terms.items():
        c *= sign
        target = l if left else r
        delta = _DELTA_UNIT if target is UNIT else coproduct(target).terms
        for (u, v), cc in delta.items():
            k = (u, v, r) if left else (l, u, v)
            raw[k] = get(k, 0) + cc * c
    return raw


def tensor_flatten(t: Tensor2, side: str, coproduct: Callable) -> dict:
    """Apply the coproduct to one leg of every term; rank-3 result.

    side 'left' computes (Delta (x) Id), side 'right' (Id (x) Delta).
    coproduct maps a basis object to a Tensor2; Delta(1) = 1 (x) 1.
    Returns a plain dict (slot, slot, slot) -> int coefficient.
    """
    return {k: c for k, c in _flatten_into({}, t, side, coproduct, 1).items() if c}


def is_coassociative(t: Tensor2, coproduct: Callable) -> bool:
    """Whether (Delta (x) Id) t == (Id (x) Delta) t.  Both sides are filed
    into one dict, the right one negated, and every sum must vanish, so
    neither side is built on its own."""
    raw = _flatten_into({}, t, "left", coproduct, 1)
    return not any(_flatten_into(raw, t, "right", coproduct, -1).values())
