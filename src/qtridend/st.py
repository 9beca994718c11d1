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

The coproduct cuts the image at j: Delta(f) = sum over j = 0..max(f) of
f|^{1..j} (x) std(f|^{j+1..max}), with co-restriction by letter values.
"""

from __future__ import annotations

from itertools import combinations

from .linear import LEFT, MIDDLE, RIGHT, STAR, UNIT, Element, Tensor2
from .qpoly import QPoly
from .words import Word, corestrict, image_overlap, is_surjection, std, surjections

FAMILY = "st"

_pair_cache: dict = {}
_cop_cache: dict = {}


def _weight(raws: dict, kind: str, obj, exp: int, qval):
    m = raws[kind].setdefault(obj, {})
    if qval is None:
        m[exp] = m.get(exp, 0) + 1
    else:
        m[0] = m.get(0, 0) + qval**exp


def st_pair_products(f: Word, g: Word, qval: int | None = None) -> dict:
    """All four products of basis surjections f, g, memoized per qval."""
    key = (f, g, qval)
    hit = _pair_cache.get(key)
    if hit is not None:
        return hit
    a, b = max(f), max(g)
    raws = {LEFT: {}, MIDDLE: {}, RIGHT: {}, STAR: {}}
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
                u = h + k
                if r in extra:
                    kind = MIDDLE
                elif r in aset:
                    kind = LEFT
                else:
                    kind = RIGHT
                _weight(raws, kind, u, s - 1 if kind == MIDDLE else s, qval)
                _weight(raws, STAR, u, s, qval)
    out = {kind: Element.from_raw(FAMILY, raw) for kind, raw in raws.items()}
    _pair_cache[key] = out
    return out


def st_product(kind: str, f: Word, g: Word, qval: int | None = None) -> Element:
    return st_pair_products(f, g, qval)[kind]


def st_product_oracle(kind: str, f: Word, g: Word, qval: int | None = None) -> Element:
    """Brute-force route: scan every surjective word of length n+m."""
    n, m = len(f), len(g)
    raws = {LEFT: {}, MIDDLE: {}, RIGHT: {}, STAR: {}}
    for u in surjections(n + m):
        h, k = u[:n], u[n:]
        if std(h) != f or std(k) != g:
            continue
        s = image_overlap(h, k)
        mh, mk = max(h), max(k)
        if mh < mk:
            kd = RIGHT
        elif mh == mk:
            kd = MIDDLE
        else:
            kd = LEFT
        _weight(raws, kd, u, s - 1 if kd == MIDDLE else s, qval)
        _weight(raws, STAR, u, s, qval)
    return Element.from_raw(FAMILY, raws[kind])


def st_coproduct(f: Word) -> Tensor2:
    """Image-cut coproduct including both boundary terms."""
    hit = _cop_cache.get(f)
    if hit is not None:
        return hit
    r = max(f)
    terms: dict = {(UNIT, f): None, (f, UNIT): None}
    for j in range(1, r):
        left = corestrict(f, range(1, j + 1))
        # the left factor is already standard: its letter set is {1..j}
        if set(left) != set(range(1, j + 1)):
            raise RuntimeError(f"left factor {left} of {f} is not standard")
        right = std(corestrict(f, range(j + 1, r + 1)))
        terms[(left, right)] = None
    out = Tensor2(FAMILY, {k: QPoly.one() for k in terms})
    _cop_cache[f] = out
    return out


def st_basis(n: int) -> tuple[Word, ...]:
    return surjections(n)


def st_degree(f: Word) -> int:
    return len(f)


def st_validate(f: Word) -> Word:
    if not is_surjection(f):
        raise ValueError(f"not a surjective word: {f}")
    return f
