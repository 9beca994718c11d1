"""The q-tridendriform bialgebra on parking functions.

Same shape as the surjection algebra with parkization in place of
standardization: f o g sums over pairs (h, k) with h k a parking function
of length n+m, Park(h) = f, Park(k) = g, weight q^{|Im h n Im k|} (one
less in the exponent for the middle product), kind by comparing max(h)
with max(k).

Since Park preserves std, every admissible h is std(f) pushed along an
increasing injection into [n+m]; the optimized route enumerates those
injections for both sides and filters by Park and the parking test.

The coproduct admits at most one cut per j: take P = positions of letters
<= j; the term f|_P (x) (f|_{P^c} - j) survives iff |P| = j and both
factors are parking functions.

alpha embeds the surjection algebra by sending f to the sum of parking
functions whose standardization is f; iota is the plain inclusion (an
algebra map that is not a coalgebra map).
"""

from __future__ import annotations

from itertools import combinations

from .linear import LEFT, MIDDLE, RIGHT, STAR, UNIT, Element, Tensor2, file_monomial
from .st import _scan_words, _word_kind
from .words import Word, is_parking, is_surjection, park, parking_functions, render_word, std

FAMILY = "pqsym"

_pair_cache: dict = {}
_cop_cache: dict = {}


def pf_pair_products(f: Word, g: Word, qval: int | None = None) -> dict:
    key = (f, g, qval)
    hit = _pair_cache.get(key)
    if hit is not None:
        return hit
    n, m = len(f), len(g)
    N = n + m
    u, v = std(f), std(g)
    a, b = max(u), max(v)
    monos = {LEFT: [], MIDDLE: [], RIGHT: [], STAR: []}
    for avals in combinations(range(1, N + 1), a):
        h = tuple(avals[x - 1] for x in u)
        if park(h) != f:
            continue
        hset = set(avals)
        hmax = avals[-1]
        for bvals in combinations(range(1, N + 1), b):
            k = tuple(bvals[x - 1] for x in v)
            if park(k) != g:
                continue
            w = h + k
            if not is_parking(w):
                continue
            kind = _word_kind(hmax, bvals[-1])
            file_monomial(monos, kind, w, len(hset.intersection(bvals)))
    out = {kind: Element.from_monomials(FAMILY, ms, qval) for kind, ms in monos.items()}
    _pair_cache[key] = out
    return out


def pf_product(kind: str, f: Word, g: Word, qval: int | None = None) -> Element:
    return pf_pair_products(f, g, qval)[kind]


def pf_product_oracle(f: Word, g: Word, qval: int | None = None) -> dict:
    """All four products of f and g, read off the scan of every parking
    function of length n+m."""
    monos = _scan_words(len(f) + len(g), parking_functions, park)[(f, g)]
    return {kind: Element.from_monomials(FAMILY, ms, qval) for kind, ms in monos.items()}


def pf_coproduct(f: Word) -> Tensor2:
    hit = _cop_cache.get(f)
    if hit is not None:
        return hit
    n = len(f)
    terms = [((UNIT, f), 0), ((f, UNIT), 0)]
    for j in range(1, n):
        pos = [i for i, x in enumerate(f) if x <= j]
        if len(pos) != j:
            continue
        left = tuple(f[i] for i in pos)
        right = tuple(f[i] - j for i in range(n) if f[i] > j)
        if is_parking(left) and is_parking(right):
            terms.append(((left, right), 0))
    out = Tensor2.from_monomials(FAMILY, terms)
    _cop_cache[f] = out
    return out


def alpha(f: Word) -> Element:
    """Sum of all parking functions of length len(f) standardizing to f.

    Each such word is f pushed along an increasing injection of its
    letter set into [n], kept when the result is a parking function.
    """
    if not is_surjection(f):
        raise ValueError(f"alpha needs a surjective word, got {render_word(f)}")
    n = len(f)
    r = max(f)
    terms = []
    for vals in combinations(range(1, n + 1), r):
        h = tuple(vals[x - 1] for x in f)
        if is_parking(h):
            terms.append((h, 0))
    return Element.from_monomials(FAMILY, terms)


def iota(f: Word) -> Element:
    """Inclusion of a surjective word as a parking function."""
    if not is_surjection(f):
        raise ValueError(f"iota needs a surjective word, got {render_word(f)}")
    if not is_parking(f):
        raise RuntimeError(f"surjective word {render_word(f)} is not a parking function")
    return Element.basis(FAMILY, f)


def _splits(f: Word):
    """Proper cut points i where f factors as f[:i] x (f[i:] - i)."""
    n = len(f)
    for i in range(1, n):
        head, tail = f[:i], f[i:]
        if all(x > i for x in tail) and is_parking(head):
            if is_parking(tuple(x - i for x in tail)):
                yield i


def pirr_count(n: int) -> int:
    """Parking functions of length n with no proper factorization."""
    return sum(1 for f in parking_functions(n) if not any(True for _ in _splits(f)))


def pf_basis(n: int) -> tuple[Word, ...]:
    return parking_functions(n)


def pf_degree(f: Word) -> int:
    return len(f)


def pf_validate(f: Word) -> Word:
    if not f or not is_parking(f):
        raise ValueError("not a parking function")
    return f
