"""The q-tridendriform algebra of planar rooted trees.

A tree is the leaf LEAF = () or a tuple of >= 2 subtrees (the unique
decomposition t = graft(t1, ..., tr)).  The degree is leaves - 1; the
degree-n basis has 1, 3, 11, 45, 197, ... elements (super-Catalan).

Products are defined by mutual recursion with the total product
* = < + q. + > acting on child slots, where a leaf slot is absorbing:
| * x = x, x * | = x, | * | = |.  For t = graft(t1..tr), w = graft(w1..wl):

    t < w = graft(t1, ..., t_{r-1}, tr * w)
    t . w = graft(t1, ..., t_{r-1}, tr * w1, w2, ..., wl)
    t > w = graft(t * w1, w2, ..., wl)

Every product is an Element, kept per qval in `memo.Memo`s; * is the
`Element.sum` of the three partial products.  The module is the "tree"
handle of `algebras.get_algebra`.

The coproduct picks a coproduct term for every child (a leaf child
contributes 1 (x) leaf), multiplies the left parts with *, grafts the
right parts (a unit right part becomes a leaf), and adds t (x) 1.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import prod

from .linear import LEFT, MIDDLE, RIGHT, STAR, UNIT, Element, Tensor2
from .memo import Memo, enumeration
from .qpoly import q_scalar

name = FAMILY = "tree"
graded = True
scan = None  # no brute-force product scan

LEAF: tuple = ()

Tree = tuple


def is_tree(t) -> bool:
    if t == LEAF:
        return True
    return isinstance(t, tuple) and len(t) >= 2 and all(is_tree(c) for c in t)


def graft(*children: Tree) -> Tree:
    if len(children) < 2:
        raise ValueError("graft needs at least two subtrees")
    return tuple(children)


def leaves(t: Tree) -> int:
    return 1 if t == LEAF else sum(leaves(c) for c in t)


def tree_degree(t: Tree) -> int:
    return leaves(t) - 1


def corolla(n: int) -> Tree:
    """The degree-n tree with all n+1 leaves on the root."""
    if n < 1:
        raise ValueError("corolla degree must be >= 1")
    return (LEAF,) * (n + 1)


@enumeration
def enumerate_trees(n: int) -> tuple[Tree, ...]:
    """All trees of degree n (leaf alone for n = 0), deterministic order."""
    if n == 0:
        return (LEAF,)
    out: list[Tree] = []
    for r in range(2, n + 2):
        for parts in _compositions(n - r + 1, r):
            for kids in iproduct(*(enumerate_trees(p) for p in parts)):
                out.append(tuple(kids))
    return tuple(out)


def _compositions(total: int, parts: int):
    """Weak compositions of total into parts parts, lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _star(u: Tree, v: Tree, qval: int | None) -> Element:
    """u * v on child slots, where a leaf slot is absorbing."""
    if u == LEAF:
        return Element.basis(FAMILY, v)
    if v == LEAF:
        return Element.basis(FAMILY, u)
    return _star_cache[u, v, qval]


@Memo
def _star_cache(u: Tree, v: Tree, qval: int | None) -> Element:
    """u * v of real trees."""
    return Element.sum(
        FAMILY,
        (
            (_prod_cache[LEFT, u, v, qval], 1),
            (_prod_cache[RIGHT, u, v, qval], 1),
            (_prod_cache[MIDDLE, u, v, qval], q_scalar(qval)),
        ),
    )


@Memo
def _prod_cache(kind: str, t: Tree, w: Tree, qval: int | None) -> Element:
    """Partial product of real trees.  Each rule grafts the terms s of one
    * product between fixed children, so distinct s give distinct trees."""
    if kind == LEFT:
        head, star, tail = t[:-1], _star(t[-1], w, qval), ()
    elif kind == MIDDLE:
        head, star, tail = t[:-1], _star(t[-1], w[0], qval), w[1:]
    elif kind == RIGHT:
        head, star, tail = (), _star(t, w[0], qval), w[1:]
    else:
        raise ValueError(f"unknown kind {kind}")
    return Element(FAMILY, {head + (s,) + tail: c for s, c in star.terms.items()})


def tree_product(kind: str, t: Tree, w: Tree, qval: int | None = None) -> Element:
    if t == LEAF or w == LEAF:
        raise ValueError("tree products take trees of degree >= 1")
    return _star_cache[t, w, qval] if kind == STAR else _prod_cache[kind, t, w, qval]


@Memo
def _cop_cache(t: Tree, qval: int | None) -> Tensor2:
    """Recursive coproduct; includes both boundary terms."""
    per_child = []
    for c in t:
        if c == LEAF:
            per_child.append([(UNIT, LEAF, 1)])
        else:
            choices = []
            for (l, r), coeff in tree_coproduct(c, qval).terms.items():
                choices.append((l, LEAF if r is UNIT else r, coeff))
            per_child.append(choices)
    parts = []
    for combo in iproduct(*per_child):
        lefts = [l for (l, _, _) in combo if l is not UNIT]
        right = Element.basis(FAMILY, tuple(r for (_, r, _) in combo))
        parts.append(((_star_elements(lefts, qval), right), prod(c for (_, _, c) in combo)))
    parts.append(((Element.basis(FAMILY, t), UNIT), 1))
    return Tensor2.sum(FAMILY, parts)


def tree_coproduct(t: Tree, qval: int | None = None) -> Tensor2:
    return _cop_cache[t, qval]


def _star_elements(ts: list, qval: int | None) -> Element:
    """Fold the * product over a list of basis trees (empty -> unit)."""
    if not ts:
        return Element.unit_element(FAMILY)
    acc = Element.basis(FAMILY, ts[0])
    for nxt in ts[1:]:
        acc = Element.sum(FAMILY, ((_star(o, nxt, qval), c) for o, c in acc.terms.items()))
    return acc


tree_basis = basis = enumerate_trees


def tree_validate(t) -> Tree:
    if t == LEAF or not is_tree(t):
        raise ValueError("not a tree of degree >= 1")
    return t


product, coproduct, degree, validate = tree_product, tree_coproduct, tree_degree, tree_validate
