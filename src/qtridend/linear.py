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

Every sum of scaled parts in the package is built by one accumulator:
a plain dict that the filing helpers add scale * coeff into, key by key
as ints, through `file_terms`, the summing loop.  `file_element` files
an Element, its unit under UNIT (into an empty dict at scale 1, by one
`update`); `file_bilinear` files each basis pair's rule(x, y) at scale
cx * cy, with the unit conventions; `file_tensor` files a (x) b under
(slot, slot) keys, legs Elements or UNIT.  `filed_element` and
`filed_tensor` end a sum with one zero filter (`_nonzero`, which keeps
the dict itself when nothing cancelled).  `Element.sum`, `Tensor2.sum`,
`sum_terms`, `+`, `-`, `scale`, `bilinear_extend`, `tensor_of`,
`map_slots` and `tensor_flatten` are built on them, and every product,
coproduct, brace, projector, parse and compatibility test files its
result into one dict; `interior_items` is the one filter of unit legs.
Two loops sum on their own: `coalgebra_laws` inlines its rank-3 filing
for speed on the plan, and the rank routines eliminate over their own
rows.
`is_coassociative` is the two-sided reference, comparing the two
`tensor_flatten` sides.  `coalgebra_laws` decides the counit laws and
coassociativity of a basis object x on the reduced coproduct Dbar: when
Delta o = 1 (x) o + o (x) 1 + Dbar o exactly, for x and every leg of
Dbar x, both counit laws hold and the two sides differ by sum c (Dbar l
(x) r - l (x) Dbar r) over the terms c l (x) r of Dbar x (proof in its
docstring); otherwise `Tensor2.counit` and `is_coassociative` decide, so
every flag is the one they give.

Elements and tensors are immutable once built, so they are shared, never
copied: the module caches hand out their results as they are, and
`bilinear_extend` and `el_coproduct` of a lone basis term (coefficient 1,
no unit) return the cached basis result itself.  Only the constructors
here write `.terms` or `.unit` (`tests/test_layering.py`).  The
product kernels of st, pqsym and mperm and their brute-force scans each
reach an output object of one basis pair and kind once, so all of them
hand their result over in one format, {kind: {obj: e}}, and
`kind_products` makes each term q^e with no sum: the shared X^e of
`qpoly.X_POWERS`, or qval**e when specialized.  It is the one place
where kernel exponents become coefficients (the tree products recurse
through `Element.sum`).  Only this module and `qpoly` branch on qval.
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


def file_terms(raw: dict, items, s: int = 1) -> dict:
    """Add s * coeff to raw[key] for each (key, coeff) of items, coeff
    and s ints: the summing loop of the accumulators.  A key whose sum
    cancels maps to 0 until a zero filter drops it.  Returns raw."""
    get = raw.get
    for k, c in items:
        raw[k] = get(k, 0) + c * s
    return raw


def _nonzero(raw: dict) -> dict:
    """raw itself when no sum in it cancelled to 0, else a copy without
    the zero sums: the one zero filter of the accumulators."""
    return raw if all(raw.values()) else {k: c for k, c in raw.items() if c}


def kind_products(family: str, exponents: dict, qval: int | None) -> dict:
    """The products of one basis pair, kind -> Element, from exponents,
    which maps each kind to {obj: e}, e the overlap: q^e * obj under
    STAR, LEFT and RIGHT, q^(e - 1) * obj under MIDDLE (STAR = < + q. +
    >).  The hand-over format of the st, pqsym and mperm kernels and
    scans: within a kind every obj comes once, so nothing is summed.
    Each term is q^e itself, the shared X^e or qval**e, and only a
    specialization can drop one (q = 0)."""
    out, xp = {}, X_POWERS
    for kind, exps in exponents.items():
        s = kind == MIDDLE
        if qval is None:
            terms = {o: xp[e - s] for o, e in exps.items()}
        else:
            terms = _nonzero({o: qval ** (e - s) for o, e in exps.items()})
        out[kind] = _element(family, terms)
    return out


def sum_terms(parts) -> dict:
    """Sum of scaled coefficient maps: parts iterates (items, scale) with
    items an iterable of (key, coeff), coeff an int and scale anything
    `index` takes.  Returns a fresh dict key -> coefficient without zeros."""
    raw: dict = {}
    for items, s in parts:
        file_terms(raw, items, index(s))
    return _nonzero(raw)


def _same_family(family: str, other: str) -> None:
    if family != other:
        raise ValueError(f"family mismatch: {family} vs {other}")


def _element(family: str, terms: dict, unit=0) -> "Element":
    """An Element that takes terms and unit as they are: int coefficients,
    zero-free, and never mutated afterwards."""
    el = object.__new__(Element)
    el.family, el.terms, el.unit = family, terms, unit
    return el


def file_element(raw: dict, family: str, el: "Element", s: int = 1) -> dict:
    """Add s * el into raw, its unit under UNIT; el must be of family and
    s is an int.  Into an empty raw, el at scale 1 is copied by one
    `update`.  Returns raw."""
    if el.family != family:
        _same_family(family, el.family)
    if s == 1 and not raw:
        raw.update(el.terms)
    else:
        file_terms(raw, el.terms.items(), s)
    if el.unit:
        raw[UNIT] = raw.get(UNIT, 0) + el.unit * s
    return raw


def filed_element(family: str, raw: dict) -> "Element":
    """The Element of the sums filed into raw: zero sums dropped, the sum
    under UNIT as its unit.  raw is handed over, and may become the
    Element's terms: the caller must not touch it afterwards."""
    terms = _nonzero(raw)
    return _element(family, terms, terms.pop(UNIT, 0))


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
    def sum(cls, family: str, parts) -> "Element":
        """The sum of scale * el over parts (el, scale), el an Element of
        family and scale anything `index` takes; always a new Element."""
        raw: dict = {}
        for el, s in parts:
            file_element(raw, family, el, index(s))
        return filed_element(family, raw)

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
    return filed_element(a.family, file_bilinear({}, rule, kind, a, b))


def file_bilinear(
    raw: dict, rule: Callable, kind: str, a: Element, b: Element, s: int = 1
) -> dict:
    """Add s * (a o b) into raw, as `bilinear_extend` extends rule: each
    basis pair files rule(x, y) at scale s * cx * cy, and a unit term
    files by the unit conventions of kind.  Returns raw."""
    a._check(b)
    if a.unit and b.unit and kind != STAR:
        raise ValueError("1 o 1 undefined for partial products")
    family, right = a.family, b.terms.items()
    for ox, cx in a.terms.items():
        cx *= s
        for oy, cy in right:
            file_element(raw, family, rule(ox, oy), cx * cy)
    if a.unit and kind in (RIGHT, STAR):  # 1 > y = y, 1 * y = y, 1 * 1 = 1
        file_element(raw, family, b, a.unit * s)
    if b.unit and kind in (LEFT, STAR):  # x < 1 = x, x * 1 = x; 1 * 1 is above
        file_terms(raw, a.terms.items(), b.unit * s)
    return raw


class Tensor2:
    """Rank-2 tensor: dict (slot, slot) -> int coefficient, with UNIT for
    unit legs."""

    __slots__ = ("family", "terms")

    def __init__(self, family: str, terms: dict | None = None):
        self.family = family
        self.terms = {k: index(c) for k, c in (terms or {}).items() if c}

    @classmethod
    def sum(cls, family: str, parts) -> "Tensor2":
        """The sum of scale * t over parts (t, scale), t a Tensor2 of
        family and scale anything `index` takes; always a new Tensor2."""
        raw: dict = {}
        for t, s in parts:
            _same_family(family, t.family)
            file_terms(raw, t.terms.items(), index(s))
        return filed_tensor(family, raw)

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
        return _tensor(self.family, dict(interior_items(self)))

    def map_slots(self, fn_left, fn_right, out_family: str) -> "Tensor2":
        """Apply Element-valued maps to each leg; a UNIT leg stays UNIT
        and is not handed to the map."""
        raw: dict = {}
        for (l, r), c in self.terms.items():
            a = UNIT if l is UNIT else fn_left(l)
            file_tensor(raw, out_family, a, UNIT if r is UNIT else fn_right(r), c)
        return filed_tensor(out_family, raw)

    def __repr__(self):
        return f"Tensor2({self.family}, {len(self.terms)} terms)"


def _slot_items(family: str, leg) -> list:
    """The (slot, coeff) items of an Element of family, or of UNIT."""
    if leg is UNIT:
        return [(UNIT, 1)]
    _same_family(family, leg.family)
    return [*leg.terms.items(), (UNIT, leg.unit)] if leg.unit else list(leg.terms.items())


def file_tensor(raw: dict, family: str, a, b, s: int = 1) -> dict:
    """Add s * a (x) b into raw, keyed (slot, slot): a and b are Elements
    of family or UNIT, and s is an int.  Returns raw."""
    left, right = _slot_items(family, a), _slot_items(family, b)
    for sl, cl in left:
        file_terms(raw, (((sl, sr), cr) for sr, cr in right), cl * s)
    return raw


def filed_tensor(family: str, raw: dict) -> Tensor2:
    """The Tensor2 of the sums filed into raw, zero sums dropped; raw is
    handed over, as in `filed_element`."""
    return _tensor(family, _nonzero(raw))


def tensor_of(a: Element, b: Element) -> Tensor2:
    """a (x) b including unit legs."""
    return filed_tensor(a.family, file_tensor({}, a.family, a, b))


def interior_items(t: Tensor2) -> list:
    """The items ((l, r), c) of t with no unit leg: the one filter that
    reads the reduced part of a coproduct."""
    return [(k, c) for k, c in t.terms.items() if k[0] is not UNIT and k[1] is not UNIT]


_DELTA_UNIT = {(UNIT, UNIT): 1}


def tensor_flatten(t: Tensor2, side: str, coproduct: Callable) -> dict:
    """Apply the coproduct to one leg of every term; rank-3 result.

    side 'left' computes (Delta (x) Id), side 'right' (Id (x) Delta).
    coproduct maps a basis object to a Tensor2; Delta(1) = 1 (x) 1.
    Returns a plain dict (slot, slot, slot) -> int coefficient.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    left, raw = side == "left", {}
    for (l, r), c in t.terms.items():
        target = l if left else r
        delta = _DELTA_UNIT if target is UNIT else coproduct(target).terms
        keys = (((u, v, r) if left else (l, u, v), cc) for (u, v), cc in delta.items())
        file_terms(raw, keys, c)
    return _nonzero(raw)


def is_coassociative(t: Tensor2, coproduct: Callable) -> bool:
    """Whether (Delta (x) Id) t == (Id (x) Delta) t, each side built by
    `tensor_flatten`: the two-sided reference that `coalgebra_laws`
    falls back on."""
    return tensor_flatten(t, "left", coproduct) == tensor_flatten(t, "right", coproduct)


def _reduced(d: Tensor2, x) -> list | None:
    """The interior items ((l, r), c) of d when d = 1 (x) x + x (x) 1 +
    interior exactly (both boundary coefficients 1, no other term with a
    unit leg), else None."""
    terms, inner = d.terms, interior_items(d)
    if len(terms) - len(inner) == 2 and terms.get((UNIT, x)) == 1 == terms.get((x, UNIT)):
        return inner
    return None


def coalgebra_laws(objects, coproduct: Callable):
    """For each basis object x of objects, in order, yield (x, left, right,
    coassoc): whether (eps (x) id) Delta x = x, (id (x) eps) Delta x = x,
    and (Delta (x) Id) Delta x = (Id (x) Delta) Delta x, coproduct mapping
    a basis object to its Tensor2.

    Write Delta o = 1 (x) o + o (x) 1 + Dbar o when Delta o has exactly
    that form (`_reduced`).  Both counit laws then hold for o.  If x and
    every leg l, r of the terms c l (x) r of Dbar x have it, expanding
    (Delta (x) Id) Delta x - (Id (x) Delta) Delta x gives

        1 (x) 1 (x) x + 1 (x) x (x) 1 + x (x) 1 (x) 1 + Dbar x (x) 1
          + sum c (1 (x) l (x) r + l (x) 1 (x) r + Dbar l (x) r)
        - 1 (x) 1 (x) x - 1 (x) x (x) 1 - 1 (x) Dbar x - x (x) 1 (x) 1
          - sum c (l (x) 1 (x) r + l (x) r (x) 1 + l (x) Dbar r)
        = sum c (Dbar l (x) r - l (x) Dbar r),

    since sum c l (x) r (x) 1 = Dbar x (x) 1 and sum c 1 (x) l (x) r =
    1 (x) Dbar x.  Filed as ints key by key, every key with a unit leg
    sums to 0 exactly, and every key with none holds exactly its sum in
    the last line.  So the full difference
    vanishes exactly when that last sum does: it is filed into one dict,
    and every sum must be 0.  Where x or a leg has another form, the
    laws are decided by the full checks, `Tensor2.counit` against the
    basis element x of the tensor's family and `is_coassociative`, so
    every flag is the one those checks give.  The reduced coproducts are
    kept in a table local to the call, one entry per object met."""
    table: dict = {}

    def fill(o):
        red = table[o] = _reduced(coproduct(o), o)
        return red

    for x in objects:
        d = coproduct(x)
        red = table[x] = _reduced(d, x)
        if red is None:
            ex = Element.basis(d.family, x)
            yield x, d.counit("left") == ex, d.counit("right") == ex, is_coassociative(d, coproduct)
            continue
        raw: dict = {}
        get = raw.get
        for (l, r), c in red:
            dl = table[l] if l in table else fill(l)
            dr = table[r] if r in table else fill(r)
            if dl is None or dr is None:
                yield x, True, True, is_coassociative(d, coproduct)
                break
            for (u, v), cc in dl:
                k = (u, v, r)
                raw[k] = get(k, 0) + cc * c
            for (u, v), cc in dr:
                k = (l, u, v)
                raw[k] = get(k, 0) - cc * c
        else:
            yield x, True, True, not any(raw.values())
