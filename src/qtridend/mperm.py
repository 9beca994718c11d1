"""The q-tridendriform bialgebra on big multipermutations.

A multipermutation of size n is an ordered set partition of [n] none of
whose blocks contains two consecutive integers; it is stored as a tuple
of frozensets.  Sizes 1..5 count 1, 2, 8, 44, 308.

std_m relabels the support onto an initial segment and then repeatedly
deletes, in simultaneous passes, every i+1 that shares a block with i,
relabelling after each pass until a fixpoint.  Block minima are never
deleted, so the block count is preserved.

The product of B (size n, r blocks) and D (size m, s blocks) sums over
multipermutations W of size n+m or n+m-1 with W restricted to [n] equal
to B and std_m of W restricted to the last m values equal to D, weighted
by q^(r+s-l) where l = len(W) (one less in the exponent for the middle
product); the kind is read off the last block of W:

    >  last block misses [n]
    .  last block meets [n] and the shifted window
    <  last block misses the shifted window

The optimized route builds W directly as quasi-shuffles (interleavings
with optional block merges) of B with D shifted into the window, then
filters; on a full window std_m reduces to a plain shift, which makes the
window condition an equality.

The coproduct splits the block sequence at every position and applies
std_m to both sides.
"""

from __future__ import annotations

from functools import lru_cache

from .linear import LEFT, MIDDLE, RIGHT, STAR, UNIT, Element, Tensor2
from .qpoly import QPoly
from .st import _weight
from .words import run_compress, std, surjections

FAMILY = "mperm"

MPerm = tuple  # of frozensets

_pair_cache: dict = {}
_cop_cache: dict = {}


def mperm_size(w: MPerm) -> int:
    return sum(len(b) for b in w)


def is_mperm(w) -> bool:
    """Ordered set partition of [n] with no block containing i and i+1."""
    if not w or not all(isinstance(b, frozenset) and b for b in w):
        return False
    seen: set[int] = set()
    for b in w:
        if b & seen:
            return False
        seen |= b
    n = mperm_size(w)
    if seen != set(range(1, n + 1)):
        return False
    return not any(v + 1 in b for b in w for v in b)


def std_m(blocks) -> MPerm:
    """Relabel to an initial segment, delete cohabiting successors, repeat."""
    bs = [frozenset(b) for b in blocks]
    if not bs or not all(bs):
        raise ValueError("std_m needs a sequence of non-empty blocks")
    while True:
        support = sorted(set().union(*bs))
        if len(set().union(*bs)) != sum(len(b) for b in bs):
            raise ValueError("blocks are not disjoint")
        rank = {v: i + 1 for i, v in enumerate(support)}
        bs = [frozenset(rank[v] for v in b) for b in bs]
        dele = {v + 1 for b in bs for v in b if v + 1 in b}
        if not dele:
            return tuple(bs)
        bs = [frozenset(v for v in b if v not in dele) for b in bs]
        if not all(bs):
            raise RuntimeError("a block lost its minimum to successor deletion")


def std_m_sequential(blocks) -> MPerm:
    """Oracle variant: delete one smallest cohabiting successor at a time."""
    bs = [frozenset(b) for b in blocks]
    if not bs or not all(bs):
        raise ValueError("std_m needs a sequence of non-empty blocks")
    while True:
        support = sorted(set().union(*bs))
        rank = {v: i + 1 for i, v in enumerate(support)}
        bs = [frozenset(rank[v] for v in b) for b in bs]
        hits = sorted(v + 1 for b in bs for v in b if v + 1 in b)
        if not hits:
            return tuple(bs)
        kill = hits[0]
        bs = [frozenset(v for v in b if v != kill) for b in bs]
        bs = [b for b in bs if b]


@lru_cache(maxsize=None)
def mpermutations(n: int) -> tuple[MPerm, ...]:
    """Recursive construction: insert n into a block away from n-1, or as
    a new singleton block anywhere."""
    if n < 1:
        raise ValueError("size must be >= 1")
    if n == 1:
        return ((frozenset({1}),),)
    out: list[MPerm] = []
    for w in mpermutations(n - 1):
        l = len(w)
        for i in range(l + 1):
            out.append(w[:i] + (frozenset({n}),) + w[i:])
        for i, b in enumerate(w):
            if n - 1 not in b:
                out.append(w[:i] + (b | {n},) + w[i + 1 :])
    return tuple(out)


def mpermutations_filter(n: int) -> tuple[MPerm, ...]:
    """Independent enumerator: filter all ordered set partitions of [n]."""
    out = []
    for u in surjections(n):
        blocks = tuple(
            frozenset(i + 1 for i, v in enumerate(u) if v == j)
            for j in range(1, max(u) + 1)
        )
        if not any(v + 1 in b for b in blocks for v in b):
            out.append(blocks)
    return tuple(out)


def restrict_blocks(w, values) -> MPerm:
    vs = frozenset(values)
    return tuple(b & vs for b in w if b & vs)


def _quasi_shuffles(xs: tuple, ys: tuple):
    """Interleavings of two block sequences with optional pairwise merges."""
    if not xs:
        yield ys
        return
    if not ys:
        yield xs
        return
    for rest in _quasi_shuffles(xs[1:], ys):
        yield (xs[0],) + rest
    for rest in _quasi_shuffles(xs, ys[1:]):
        yield (ys[0],) + rest
    for rest in _quasi_shuffles(xs[1:], ys[1:]):
        yield (xs[0] | ys[0],) + rest


def _kind_of(last: frozenset, left_set: frozenset, window: frozenset) -> str:
    meets_left = bool(last & left_set)
    meets_right = bool(last & window)
    if not meets_left:
        return RIGHT
    if meets_left and meets_right:
        return MIDDLE
    return LEFT


def mperm_pair_products(B: MPerm, D: MPerm, qval: int | None = None) -> dict:
    key = (B, D, qval)
    hit = _pair_cache.get(key)
    if hit is not None:
        return hit
    n, m = mperm_size(B), mperm_size(D)
    r, s = len(B), len(D)
    left_set = frozenset(range(1, n + 1))
    raws = {LEFT: {}, MIDDLE: {}, RIGHT: {}, STAR: {}}
    for total, shift in ((n + m, n), (n + m - 1, n - 1)):
        window = frozenset(range(shift + 1, total + 1))
        dsh = tuple(frozenset(v + shift for v in b) for b in D)
        for w in _quasi_shuffles(B, dsh):
            if sum(len(b) for b in w) != total:
                continue
            if any(v + 1 in b for b in w for v in b):
                continue
            if restrict_blocks(w, left_set) != B:
                continue
            if restrict_blocks(w, window) != dsh:
                continue
            l = len(w)
            overlap = r + s - l
            mixed = sum(1 for b in w if (b & left_set) and (b & window))
            if mixed != overlap:
                raise RuntimeError(f"{mixed} mixed blocks in a quasi-shuffle, not {overlap}")
            kind = _kind_of(w[-1], left_set, window)
            _weight(raws, kind, w, overlap - 1 if kind == MIDDLE else overlap, qval)
            _weight(raws, STAR, w, overlap, qval)
    out = {kind: Element.from_raw(FAMILY, raw) for kind, raw in raws.items()}
    _pair_cache[key] = out
    return out


def mperm_product(kind: str, B: MPerm, D: MPerm, qval: int | None = None) -> Element:
    return mperm_pair_products(B, D, qval)[kind]


def mperm_product_oracle(kind: str, B: MPerm, D: MPerm, qval: int | None = None) -> Element:
    """Brute-force route: scan every multipermutation of both target sizes."""
    n, m = mperm_size(B), mperm_size(D)
    r, s = len(B), len(D)
    left_set = frozenset(range(1, n + 1))
    raws = {LEFT: {}, MIDDLE: {}, RIGHT: {}, STAR: {}}
    for total, shift in ((n + m, n), (n + m - 1, n - 1)):
        window = frozenset(range(shift + 1, total + 1))
        for w in mpermutations(total):
            if restrict_blocks(w, left_set) != B:
                continue
            if std_m(restrict_blocks(w, window)) != D:
                continue
            l = len(w)
            overlap = r + s - l
            kd = _kind_of(w[-1], left_set, window)
            _weight(raws, kd, w, overlap - 1 if kd == MIDDLE else overlap, qval)
            _weight(raws, STAR, w, overlap, qval)
    return Element.from_raw(FAMILY, raws[kind])


def mperm_concat_product(B: MPerm, D: MPerm) -> Element:
    """The q = 1 total product computed directly (no kind filter)."""
    el = mperm_pair_products(B, D, 1)[STAR]
    return el


def mperm_coproduct(B: MPerm) -> Tensor2:
    hit = _cop_cache.get(B)
    if hit is not None:
        return hit
    l = len(B)
    terms: dict = {}
    for i in range(l + 1):
        left = UNIT if i == 0 else std_m(B[:i])
        right = UNIT if i == l else std_m(B[i:])
        key = (left, right)
        terms[key] = terms.get(key, QPoly.zero()) + QPoly.one()
    out = Tensor2(FAMILY, terms)
    _cop_cache[B] = out
    return out


def phi(f) -> MPerm:
    """Send a surjective word to the std_m of its ordered fiber partition."""
    r = max(f)
    fibers = [
        frozenset(i + 1 for i, v in enumerate(f) if v == j) for j in range(1, r + 1)
    ]
    if not all(fibers):
        raise ValueError(f"not a surjective word: {f}")
    return std_m(fibers)


def phi_element(f) -> Element:
    return Element.basis(FAMILY, phi(f))


def lift_word(f, hbar):
    """Expand hbar along the runs of f.

    Precondition: std(hbar) equals the run-compression of f.  The result h
    repeats hbar's letters across equal-letter runs of f, so that h has
    the same equalities pattern as f and std(h) = std(f).
    """
    if std(hbar) != run_compress(f):
        raise ValueError("std of hbar must equal the run-compression of f")
    out = []
    j = -1
    for i, v in enumerate(f):
        if i == 0 or v != f[i - 1]:
            j += 1
        out.append(hbar[j])
    return tuple(out)


def mperm_basis(n: int) -> tuple[MPerm, ...]:
    return mpermutations(n)


def mperm_degree(w: MPerm) -> int:
    return mperm_size(w)


def mperm_validate(w) -> MPerm:
    w = tuple(frozenset(b) for b in w)
    if not is_mperm(w):
        raise ValueError(f"not a multipermutation: {w}")
    return w
