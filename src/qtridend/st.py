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
is read off from which side contains r.

The brute-force route `_scan_words` enumerates every word of length n+m
and files each split h k under (std(h), std(k)); with park in place of
std it is also the brute-force route for parking functions.  The
per-pair oracle `_scan_pair` runs the same scan for one pair (f, g),
testing only the split at len(f).  Both routes file (word, overlap)
q-monomials, which `Element.from_monomials` weighs.

The coproduct cuts the image at j: Delta(f) = sum over j = 0..max(f) of
f|^{1..j} (x) std(f|^{j+1..max}), with co-restriction by letter values.

The module is the "st" handle of `algebras.get_algebra`; products and
coproducts are kept in `memo.Memo`s.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

from .linear import LEFT, MIDDLE, RIGHT, STAR, UNIT, Element, Tensor2, file_monomial
from .memo import Memo
from .words import Word, corestrict, image_overlap, is_surjection, std, surjections

name = FAMILY = "st"
graded = True


@Memo
def _pair_cache(f: Word, g: Word, qval: int | None) -> dict:
    """All four products of basis surjections f, g."""
    a, b = max(f), max(g)
    monos = {LEFT: [], MIDDLE: [], RIGHT: [], STAR: []}
    for r in range(max(a, b), a + b + 1):
        s = a + b - r  # |A n B|
        for A in combinations(range(1, r + 1), a):
            aset = set(A)
            rest = tuple(v for v in range(1, r + 1) if v not in aset)
            if len(rest) > b:
                continue
            h = tuple(A[x - 1] for x in f)
            for extra in combinations(A, b - len(rest)):
                B = sorted(rest + extra)
                k = tuple(B[x - 1] for x in g)
                if r in extra:
                    kind = MIDDLE
                elif r in aset:
                    kind = LEFT
                else:
                    kind = RIGHT
                file_monomial(monos, kind, h + k, s)
    return {kind: Element.from_monomials(FAMILY, ms, qval) for kind, ms in monos.items()}


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
    result maps every pair (f, g) with len(f) + len(g) = total to the
    monomial lists of its four products."""
    buckets = defaultdict(lambda: {LEFT: [], MIDDLE: [], RIGHT: [], STAR: []})
    for w in enumerate_all(total):
        for i in range(1, total):
            h, k = w[:i], w[i:]
            key = (standardize(h), standardize(k))
            file_monomial(buckets[key], _word_kind(max(h), max(k)), w, image_overlap(h, k))
    return buckets


def _scan_pair(f: Word, g: Word, enumerate_all, standardize) -> dict:
    """The monomial lists of `_scan_words` for the one pair (f, g), in the
    same order: only the split of each word at len(f) is tested."""
    monos = {LEFT: [], MIDDLE: [], RIGHT: [], STAR: []}
    i = len(f)
    for w in enumerate_all(i + len(g)):
        h, k = w[:i], w[i:]
        if standardize(h) == f and standardize(k) == g:
            file_monomial(monos, _word_kind(max(h), max(k)), w, image_overlap(h, k))
    return monos


def st_product_oracle(f: Word, g: Word, qval: int | None = None) -> dict:
    """All four products of f and g, by the brute-force scan of every
    surjective word of length n+m."""
    monos = _scan_pair(f, g, surjections, std)
    return {kind: Element.from_monomials(FAMILY, ms, qval) for kind, ms in monos.items()}


@Memo
def _cop_cache(*f: int) -> Tensor2:
    """Image-cut coproduct including both boundary terms; the Memo key f
    arrives as its letters."""
    r = max(f)
    terms = [((UNIT, f), 0), ((f, UNIT), 0)]
    for j in range(1, r):
        left = corestrict(f, range(1, j + 1))
        # the left factor is already standard: its letter set is {1..j}
        if set(left) != set(range(1, j + 1)):
            raise RuntimeError(f"left factor {left} of {f} is not standard")
        right = std(corestrict(f, range(j + 1, r + 1)))
        terms.append(((left, right), 0))
    return Tensor2.from_monomials(FAMILY, terms)


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
