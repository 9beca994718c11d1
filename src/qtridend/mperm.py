"""The q-tridendriform bialgebra on big multipermutations.

A multipermutation of size n is an ordered set partition of [n] none of
whose blocks contains two consecutive integers; it is stored as a tuple
of frozensets.  Sizes 1..5 count 1, 2, 8, 44, 308.

std_m walks the support in increasing order, keeps a value only when its
block differs from the block of the next smaller value, and relabels the
kept values 1, 2, ... in order.  This is the fixpoint of deleting every
i+1 that shares a block with i and relabelling, reached in one pass: a
deleted value lies in the block of the nearest kept value below it, so
the kept values never put two values of one block next to each other.
Block minima are never deleted, so the block count is preserved.

The product of B (size n, r blocks) and D (size m, s blocks) sums over
multipermutations W of size n+m or n+m-1 with W restricted to [n] equal
to B and std_m of W restricted to the last m values equal to D, weighted
by q^(r+s-l) where l = len(W) (one less in the exponent for the middle
product); the kind is read off the last block of W:

    >  last block misses [n]
    .  last block meets [n] and the shifted window
    <  last block misses the shifted window

The optimized route is the paper's quotient map phi on the product of
ST(q).  For each pair of value sets (A, V) that `st._value_sets` gives
for r and s blocks, W puts the blocks of B on the values in A and the
blocks of D, shifted by n, on the values in V; a value in both holds the
union of its two blocks, so the r+s-l mixed blocks are the overlap and
the kind is st's.  The one pair of consecutive values this can put in a
block is n, n+1, where the block of B that holds n merges with the block
of D that holds 1; there phi deletes n+1, so D is shifted by n-1 instead
and W has size n+m-1.

The brute-force route `_scan_mperms` enumerates every W of both sizes
and files it under the pair (B, D) its two restrictions give; the
per-pair oracle reads its pair's bucket of the same scan.  Both routes
file (W, r+s-l) q-monomials, which `Element.from_monomials` weighs.

The coproduct splits the block sequence at every position and applies
std_m to both sides, each split a distinct term of coefficient 1.  The
module is the "mperm" handle of `algebras.get_algebra`; products and
coproducts are kept in `memo.Memo`s.
"""

from __future__ import annotations

from collections import defaultdict

from .linear import LEFT, MIDDLE, RIGHT, STAR, UNIT, Element, Tensor2, file_monomial
from .memo import Memo, enumeration
from .st import _value_sets
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
    """Relabel the support 1, 2, ... in order, keeping only the values whose
    block differs from the block of the next smaller value."""
    bs = [frozenset(b) for b in blocks]
    if not bs or not all(bs):
        raise ValueError("std_m needs a sequence of non-empty blocks")
    owner = {v: j for j, b in enumerate(bs) for v in b}
    if len(owner) != sum(map(len, bs)):
        raise ValueError("blocks are not disjoint")
    out: list[list] = [[] for _ in bs]
    label, prev = 0, None
    for v in sorted(owner):
        j = owner[v]
        if j != prev:
            label += 1
            out[j].append(label)
            prev = j
    return tuple(map(frozenset, out))


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


def _fibers(f) -> tuple:
    """The ordered fiber partition of a word: block j holds the positions
    (from 1) where f takes the value j, for j = 1..max(f)."""
    return tuple(frozenset(i + 1 for i, v in enumerate(f) if v == j) for j in range(1, max(f) + 1))


def mpermutations_filter(n: int) -> tuple[MPerm, ...]:
    """Independent enumerator: filter all ordered set partitions of [n]."""
    fibers = map(_fibers, surjections(n))
    return tuple(bs for bs in fibers if not any(v + 1 in b for b in bs for v in b))


def restrict_blocks(w, values) -> MPerm:
    vs = frozenset(values)
    return tuple(b & vs for b in w if b & vs)


def _kind_of(last: frozenset, left_set: frozenset, window: frozenset) -> str:
    meets_left = bool(last & left_set)
    meets_right = bool(last & window)
    if not meets_left:
        return RIGHT
    if meets_right:
        return MIDDLE
    return LEFT


@Memo
def _pair_cache(B: MPerm, D: MPerm, qval: int | None) -> dict:
    """All four products of B and D, their blocks laid on st's value sets
    as the module docstring describes."""
    n, blocks = mperm_size(B), len(B) + len(D)
    jn = next(j for j, b in enumerate(B) if n in b)
    j1 = next(j for j, d in enumerate(D) if 1 in d)
    # D shifted by n, and by n-1 for when its block at 1 joins B's at n
    by_n, by_n1 = (tuple(frozenset(v + k for v in d) for d in D) for k in (n, n - 1))
    monos = {LEFT: [], MIDDLE: [], RIGHT: [], STAR: []}
    for A, V, kind, overlap in _value_sets(len(B), len(D)):
        w = [None] * (blocks - overlap)
        for v, b in zip(A, B):
            w[v - 1] = b
        for v, d in zip(V, by_n1 if A[jn] == V[j1] else by_n):
            b = w[v - 1]
            w[v - 1] = d if b is None else b | d
        file_monomial(monos, kind, tuple(w), overlap)
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


def mperm_product_oracle(B: MPerm, D: MPerm, qval: int | None = None) -> dict:
    """All four products of B and D, read off the brute-force scan of every
    multipermutation of both target sizes."""
    monos = _scan_mperms(mperm_size(B) + mperm_size(D))[B, D]
    return {kind: Element.from_monomials(FAMILY, ms, qval) for kind, ms in monos.items()}


@Memo
def _cop_cache(*B: frozenset) -> Tensor2:
    """Every split of the blocks of B, each side standardized; the left
    side of split i has i blocks, so the splits are distinct and each term
    is 1.  The Memo key B arrives as its blocks."""
    l = len(B)
    terms = {}
    for i in range(l + 1):
        left = UNIT if i == 0 else std_m(B[:i])
        right = UNIT if i == l else std_m(B[i:])
        terms[left, right] = 1
    return Tensor2(FAMILY, terms)


def mperm_coproduct(B: MPerm, qval: int | None = None) -> Tensor2:
    """The coproduct of B; it has no q, so qval is ignored."""
    return _cop_cache[B]


def phi(f) -> MPerm:
    """Send a surjective word to the std_m of its ordered fiber partition."""
    fibers = _fibers(f)
    if not all(fibers):
        raise ValueError(f"not a surjective word: {f}")
    return std_m(fibers)


def block_word(w: MPerm) -> tuple:
    """The surjective word whose letter at v is the index (from 1) of the
    block of w holding v, so that phi(block_word(w)) = w."""
    word = [0] * mperm_size(w)
    for j, b in enumerate(w, start=1):
        for v in b:
            word[v - 1] = j
    return tuple(word)


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
