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

The brute-force route `_scan_mperms` enumerates every W of both sizes
and files it under the pair (B, D) its two restrictions give;
`_scan_mperm_pair` runs the same scan for one pair, at its one split.
Both routes file (W, r+s-l) q-monomials, which `Element.from_monomials`
weighs.

The coproduct splits the block sequence at every position and applies
std_m to both sides.  The module is the "mperm" handle of
`algebras.get_algebra`; products and coproducts are kept in `memo.Memo`s.
"""

from __future__ import annotations

from collections import defaultdict

from .linear import LEFT, MIDDLE, RIGHT, STAR, UNIT, Element, Tensor2, file_monomial
from .memo import Memo, enumeration
from .words import run_compress, std, surjections

name = FAMILY = "mperm"
graded = False  # a filtered quotient: products may drop one in size

MPerm = tuple  # of frozensets


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


@enumeration
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


@Memo
def _pair_cache(B: MPerm, D: MPerm, qval: int | None) -> dict:
    n, m = mperm_size(B), mperm_size(D)
    r, s = len(B), len(D)
    left_set = frozenset(range(1, n + 1))
    monos = {LEFT: [], MIDDLE: [], RIGHT: [], STAR: []}
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
            file_monomial(monos, _kind_of(w[-1], left_set, window), w, overlap)
    return {kind: Element.from_monomials(FAMILY, ms, qval) for kind, ms in monos.items()}


def mperm_product(kind: str, B: MPerm, D: MPerm, qval: int | None = None) -> Element:
    return _pair_cache[B, D, qval][kind]


def _scan_mperms(total: int) -> dict:
    """Brute-force route: one pass over every multipermutation W of size
    total (window [n+1, total]) and of size total-1 (window [n, total-1]).
    For each n, W is filed under (B, D) = (W restricted to [n], std_m of W
    restricted to the window) when D keeps all total-n window values, so
    the result maps every pair with size(B) + size(D) = total to the
    monomial lists of its four products."""
    buckets = defaultdict(lambda: {LEFT: [], MIDDLE: [], RIGHT: [], STAR: []})
    for size, shift in ((total, 0), (total - 1, 1)):
        for w in mpermutations(size):
            l = len(w)
            for n in range(1, total):
                window = frozenset(range(n + 1 - shift, size + 1))
                D = std_m(restrict_blocks(w, window))
                if mperm_size(D) != total - n:
                    continue
                left_set = frozenset(range(1, n + 1))
                B = restrict_blocks(w, left_set)
                kind = _kind_of(w[-1], left_set, window)
                file_monomial(buckets[(B, D)], kind, w, len(B) + len(D) - l)
    return buckets


def _scan_mperm_pair(B: MPerm, D: MPerm) -> dict:
    """The monomial lists of `_scan_mperms` for the one pair (B, D), in the
    same order: only the split at n = size(B) is tested."""
    monos = {LEFT: [], MIDDLE: [], RIGHT: [], STAR: []}
    n = mperm_size(B)
    total = n + mperm_size(D)
    left_set = frozenset(range(1, n + 1))
    for size, shift in ((total, 0), (total - 1, 1)):
        window = frozenset(range(n + 1 - shift, size + 1))
        for w in mpermutations(size):
            if restrict_blocks(w, left_set) == B and std_m(restrict_blocks(w, window)) == D:
                kind = _kind_of(w[-1], left_set, window)
                file_monomial(monos, kind, w, len(B) + len(D) - len(w))
    return monos


def mperm_product_oracle(B: MPerm, D: MPerm, qval: int | None = None) -> dict:
    """All four products of B and D, by the brute-force scan of every
    multipermutation of both target sizes."""
    monos = _scan_mperm_pair(B, D)
    return {kind: Element.from_monomials(FAMILY, ms, qval) for kind, ms in monos.items()}


@Memo
def _cop_cache(*B: frozenset) -> Tensor2:
    """Every split of the blocks of B, each side standardized; the Memo
    key B arrives as its blocks."""
    l = len(B)
    terms = []
    for i in range(l + 1):
        left = UNIT if i == 0 else std_m(B[:i])
        right = UNIT if i == l else std_m(B[i:])
        terms.append(((left, right), 0))
    return Tensor2.from_monomials(FAMILY, terms)


def mperm_coproduct(B: MPerm, qval: int | None = None) -> Tensor2:
    """The coproduct of B; it has no q, so qval is ignored."""
    return _cop_cache[B]


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


mperm_basis = basis = mpermutations
mperm_degree = degree = mperm_size
scan = _scan_mperms


def mperm_validate(w) -> MPerm:
    w = tuple(frozenset(b) for b in w)
    if not is_mperm(w):
        raise ValueError("not a multipermutation")
    return w


product, coproduct, validate = mperm_product, mperm_coproduct, mperm_validate
