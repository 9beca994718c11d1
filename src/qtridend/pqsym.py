"""The q-tridendriform bialgebra on parking functions.

Same shape as the surjection algebra with parkization in place of
standardization: f o g sums over pairs (h, k) with h k a parking function
of length n+m, Park(h) = f, Park(k) = g, weight q^{|Im h n Im k|} (one
less in the exponent for the middle product), kind by comparing max(h)
with max(k).

Since Park preserves std, every admissible h is std(f) pushed along an
increasing injection into [n+m], and Park fixes the gaps of that
injection: with d_1 < ... < d_a the values of f, Park(h) = f iff each gap
A_j - A_{j-1} of the value set A of h equals d_j - d_{j-1}, or is at
least that when d_j is one more than the number of letters of f below it.
The optimized route lists those value sets directly, once per (f, n+m),
and tests that h k parks by comparing prefix counts: for every i,
#{letters <= i} of h plus that of k must reach i.

The coproduct admits at most one cut per j: take P = positions of letters
<= j; the term f|_P (x) (f|_{P^c} - j) survives iff |P| = j and both
factors are parking functions.

alpha embeds the surjection algebra by sending f to the sum of parking
functions whose standardization is f; iota is the plain inclusion (an
algebra map that is not a coalgebra map).

The module is the "pqsym" handle of `algebras.get_algebra`; products,
coproducts and candidates are kept in `memo.Memo`s.
"""

from __future__ import annotations

from itertools import combinations

from .linear import LEFT, MIDDLE, RIGHT, STAR, UNIT, Element, Tensor2, file_monomial
from .memo import Memo
from .st import _scan_pair, _scan_words, _word_kind
from .words import Word, is_parking, is_surjection, park, parking_functions, render_word, std

name = FAMILY = "pqsym"
graded = True


def _candidates(f: Word, N: int) -> tuple:
    """Every word h on [N] with park(h) = f, listed by the gaps of its value
    set A_1 < ... < A_a, each as (h, value-set bitmask, max(h), prefix
    counts packed into `_field_width(N)`-bit fields, field i - 1 holding
    #{letters <= i})."""
    u = std(f)
    d = sorted(set(f))
    mult = [f.count(x) for x in d]
    below = [sum(mult[:j]) for j in range(len(d))]
    w = _field_width(N)
    # ones[x]: the prefix counts of the one-letter word (x), a 1 in fields x - 1 on
    ones = [0] * (N + 2)
    for x in range(N, 0, -1):
        ones[x] = ones[x + 1] | 1 << (w * (x - 1))
    out = []

    def grow(A: list):
        j = len(A)
        if j == len(d):
            h = tuple(A[x - 1] for x in u)
            mask = sum(1 << x for x in A)
            pre = sum(c * ones[x] for c, x in zip(mult, A))
            out.append((h, mask, A[-1], pre))
            return
        lo = A[-1] + d[j] - d[j - 1]
        hi = lo if d[j] <= below[j] else N - d[-1] + d[j]
        for v in range(lo, hi + 1):
            A.append(v)
            grow(A)
            A.pop()

    for first in range(1, N - d[-1] + 2):
        grow([first])
    return tuple(out)


_cand_cache = Memo(_candidates)


def _field_width(N: int) -> int:
    """Bits per packed prefix count: the top bit of a field stays clear
    of any count up to N."""
    return N.bit_length() + 1


@Memo
def _pair_cache(f: Word, g: Word, qval: int | None) -> dict:
    N = len(f) + len(g)
    w = _field_width(N)
    # h k parks iff every field i - 1 of pre(h) + pre(k) reaches i; adding
    # 2^(w-1) - i to each field leaves its top bit set exactly then
    top = sum(1 << (w * i + w - 1) for i in range(N))
    offset = top - sum(i << (w * (i - 1)) for i in range(1, N + 1))
    ks = _cand_cache[g, N]
    monos = {LEFT: [], MIDDLE: [], RIGHT: [], STAR: []}
    for h, hmask, hmax, hpre in _cand_cache[f, N]:
        hpre += offset
        for k, kmask, kmax, kpre in ks:
            if (hpre + kpre) & top == top:
                file_monomial(monos, _word_kind(hmax, kmax), h + k, (hmask & kmask).bit_count())
    return {kind: Element.from_monomials(FAMILY, ms, qval) for kind, ms in monos.items()}


def pf_product(kind: str, f: Word, g: Word, qval: int | None = None) -> Element:
    return _pair_cache[f, g, qval][kind]


def pf_product_oracle(f: Word, g: Word, qval: int | None = None) -> dict:
    """All four products of f and g, by the brute-force scan of every
    parking function of length n+m."""
    monos = _scan_pair(f, g, parking_functions, park)
    return {kind: Element.from_monomials(FAMILY, ms, qval) for kind, ms in monos.items()}


@Memo
def _cop_cache(*f: int) -> Tensor2:
    """The positional cuts of f; the Memo key f arrives as its letters."""
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
    return Tensor2.from_monomials(FAMILY, terms)


def pf_coproduct(f: Word, qval: int | None = None) -> Tensor2:
    """The coproduct of f; it has no q, so qval is ignored."""
    return _cop_cache[f]


def scan(total: int) -> dict:
    """The brute-force scan of every parking function of the given length."""
    return _scan_words(total, parking_functions, park)


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


pf_basis = basis = parking_functions
pf_degree = degree = len  # a word has degree its length


def pf_validate(f: Word) -> Word:
    if not f or not is_parking(f):
        raise ValueError("not a parking function")
    return f


product, coproduct, validate = pf_product, pf_coproduct, pf_validate
