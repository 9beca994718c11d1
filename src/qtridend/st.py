"""The q-tridendriform bialgebra on surjections (packed words).

Basis: surjective words f of length n (degree n).  The product f o g is a
sum over pairs (h, k) with h k surjective of length n+m, std(h) = f,
std(k) = g, weighted by q to the image overlap |Im h ∩ Im k|; the three
partial products split the sum by comparing max(h) and max(k):

    >  max(h) < max(k), weight q^overlap
    .  max(h) = max(k), weight q^(overlap - 1)
    <  max(h) > max(k), weight q^overlap

The optimized route enumerates the value sets A = Im(h), B = Im(k)
directly: A, B subsets of [r] with A u B = [r], |A| = max(f),
|B| = max(g); h and k are f and g pushed along the increasing bijections
onto A and B.  The overlap is |A n B| = max(f) + max(g) - r and the kind
is read off from which side contains r.  `_value_sets` enumerates these
pairs once for both ST(q) and its quotient `mperm`, which lays blocks
on the same value sets.

The brute-force route `_scan_words` enumerates every word of length n+m
and files each split h k under (std(h), std(k)), standardizing each
distinct subword once; with park in place of std it is also the
brute-force route for parking functions.  The per-pair oracle reads its
pair's bucket of the same scan.  Both routes hand over {word: overlap}
per kind, which `linear.kind_products` weighs by q^overlap without a
sum: a bucket (f, g) meets each word w at the one split len(f), and the
optimized route reaches each h k once, as (A, B) -> h k is injective.

The coproduct cuts the image at j: Delta(f) = sum over j = 0..max(f) of
f|^{1..j} (x) std(f|^{j+1..max}), with co-restriction by letter values.
Since f is surjective, the letters <= j are exactly 1..j and the letters
> j exactly j+1..max(f), so the left factor is already standard and std
of the right one is a shift by j: the kernel filters f twice per cut, and
builds the tensor as {(left, right): 1}, since the cuts are distinct.

The module is the "st" handle of `algebras.get_algebra`; products and
coproducts are kept in `memo.Memo`s.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

from .linear import LEFT, MIDDLE, RIGHT, STAR, UNIT, Element, Tensor2, kind_products
from .memo import Memo
from .words import Word, is_surjection, std, surjections

name = FAMILY = "st"
graded = True


def _value_sets(a: int, b: int):
    """Every pair of value sets A, B with A u B = [r], |A| = a, |B| = b, as
    (A, B, kind, |A n B|) with A an increasing tuple and B a sorted list; the kind is read
    off from which side holds r.  The pairs sharing one A come in a run."""
    for r in range(max(a, b), a + b + 1):
        s = a + b - r  # |A n B|
        for A in combinations(range(1, r + 1), a):
            rest = tuple(v for v in range(1, r + 1) if v not in A)
            if len(rest) > b:
                continue
            top = LEFT if A[-1] == r else RIGHT
            for extra in combinations(A, b - len(rest)):
                kind = MIDDLE if extra and extra[-1] == r else top
                yield A, sorted(rest + extra), kind, s


@Memo
def _pair_cache(f: Word, g: Word, qval: int | None) -> dict:
    """All four products of basis surjections f, g, from {h k: overlap}
    under STAR and under the kind; (A, B) -> h k is injective, so each
    word comes once."""
    exps = {LEFT: {}, MIDDLE: {}, RIGHT: {}, STAR: {}}
    star = exps[STAR]
    last = None
    for A, B, kind, s in _value_sets(max(f), max(g)):
        if A is not last:
            last, h = A, tuple(A[x - 1] for x in f)
        w = h + tuple(B[x - 1] for x in g)
        exps[kind][w] = star[w] = s
    return kind_products(FAMILY, exps, qval)


def st_product(kind: str, f: Word, g: Word, qval: int | None = None) -> Element:
    return _pair_cache[f, g, qval][kind]


def _word_kind(hmax: int, kmax: int) -> str:
    """Kind of a split h k, read off from max(h) and max(k)."""
    if hmax < kmax:
        return RIGHT
    if hmax == kmax:
        return MIDDLE
    return LEFT


def _scan_words(total: int, enumerate_all, standardize) -> dict:
    """Brute-force route for words: one pass over every word w of the given
    length (surjections or parking functions).  Each split w = h k is filed
    under (standardize(h), standardize(k)) with its kind and overlap, so the
    result maps every pair (f, g) with len(f) + len(g) = total to
    {w: overlap} under STAR and under each kind, the format of
    `kind_products`.  A bucket meets w only at the split len(f), so each
    word comes once.  A memo local to the call reads each distinct
    subword u once, as (standardize(u), max(u), letter-set bitmask); the
    overlap of a split is the popcount of the masks' meet."""
    buckets = defaultdict(lambda: {LEFT: {}, MIDDLE: {}, RIGHT: {}, STAR: {}})
    seen: dict = {}

    def read(u: Word) -> tuple:
        seen[u] = out = (standardize(u), max(u), sum(1 << v for v in set(u)))
        return out

    for w in enumerate_all(total):
        for i in range(1, total):
            h, k = w[:i], w[i:]
            fh, mh, bh = seen.get(h) or read(h)
            fk, mk, bk = seen.get(k) or read(k)
            exps = buckets[fh, fk]
            exps[_word_kind(mh, mk)][w] = exps[STAR][w] = (bh & bk).bit_count()
    return buckets


def st_product_oracle(f: Word, g: Word, qval: int | None = None) -> dict:
    """All four products of f and g, read off the brute-force scan of every
    surjective word of length n+m."""
    return kind_products(FAMILY, scan(len(f) + len(g))[f, g], qval)


@Memo
def _cop_cache(*f: int) -> Tensor2:
    """Image-cut coproduct including both boundary terms, two letter filters
    per cut; the cuts have distinct left legs, so each term is 1.  The Memo
    key f arrives as its letters."""
    terms = {(UNIT, f): 1, (f, UNIT): 1}
    for j in range(1, max(f)):
        terms[tuple(v for v in f if v <= j), tuple(v - j for v in f if v > j)] = 1
    return Tensor2(FAMILY, terms)


def st_coproduct(f: Word, qval: int | None = None) -> Tensor2:
    """The coproduct of f; it has no q, so qval is ignored."""
    return _cop_cache[f]


def scan(total: int) -> dict:
    """The brute-force scan of every surjection of the given length."""
    return _scan_words(total, surjections, std)


st_basis = basis = surjections
st_degree = degree = len  # a word has degree its length


def st_validate(f: Word) -> Word:
    if not is_surjection(f):
        raise ValueError("not a surjective word")
    return f


product, coproduct, validate = st_product, st_coproduct, st_validate
