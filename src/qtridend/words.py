"""Words on positive integers: standardization, parking, enumeration.

A word is a plain tuple of ints >= 1.  Positions are 1-based in every
function that takes position sets, matching the usual combinatorial
conventions; the empty word is the empty tuple and is never a basis object.

Families enumerated here:
  * surjections ST_n: words of length n whose letter set is exactly
    {1..max} (packed words),
  * parking functions PF_n: words whose increasing rearrangement u
    satisfies u(i) <= i,
  * non-decreasing parking functions NDPF_n: non-decreasing words with
    f(i) <= i (counted by the Catalan numbers).
"""

from __future__ import annotations

from .memo import enumeration

Word = tuple[int, ...]


def render_word(w: Word) -> str:
    """The element-grammar form of a word: (2,1,3)."""
    return "(" + ",".join(str(v) for v in w) + ")"


def std(w: Word) -> Word:
    """Standardize: relabel the letter set onto {1..k} preserving order."""
    rank = {v: i + 1 for i, v in enumerate(sorted(set(w)))}
    return tuple(rank[v] for v in w)


@enumeration
def park(w: Word) -> Word:
    """Parkization: the parking function with the same relative order.

    Stable-sorts the letters, applies the recursion p(1) = 1,
    p(j) = min(p(j-1) + u(j) - u(j-1), j) on the sorted word u, then
    puts the values back in the original positions.  Fixes parking
    functions pointwise and preserves std.
    """
    n = len(w)
    order = sorted(range(n), key=lambda i: (w[i], i))
    out = [0] * n
    prev_v = prev_p = 0
    for j, i in enumerate(order, start=1):
        v = w[i]
        p = 1 if j == 1 else min(prev_p + v - prev_v, j)
        out[i] = p
        prev_v, prev_p = v, p
    return tuple(out)


def is_parking(w: Word) -> bool:
    return all(1 <= v <= i for i, v in enumerate(sorted(w), start=1))


def is_surjection(w: Word) -> bool:
    """True when the letter set is exactly {1..max(w)}."""
    if not w:
        return False
    return set(w) == set(range(1, max(w) + 1))


@enumeration
def surjections(n: int) -> tuple[Word, ...]:
    """All surjective words of length n, in lexicographic order.

    Grows position by position, tracking the number of holes (values
    below the running max not used yet); a prefix survives iff the
    remaining positions can still fill every hole.
    """
    if n == 0:
        return ((),)
    out: list[Word] = []
    used: set[int] = set()

    def grow(prefix: list[int], top: int, holes: int):
        k = n - len(prefix)
        if k == 0:
            out.append(tuple(prefix))
            return
        for v in range(1, top + k - holes + 1):
            if v <= top:
                h2 = holes - (0 if v in used else 1)
                t2 = top
            else:
                h2 = holes + (v - top - 1)
                t2 = v
            if h2 > k - 1:
                continue
            fresh = v not in used
            if fresh:
                used.add(v)
            prefix.append(v)
            grow(prefix, t2, h2)
            prefix.pop()
            if fresh:
                used.remove(v)
    grow([], 0, 0)
    return tuple(out)


@enumeration
def parking_functions(n: int) -> tuple[Word, ...]:
    """All parking functions of length n, in lexicographic order.

    Grows position by position; with k positions left, a prefix survives
    iff #{letters <= i} + k >= i for every i, since the best the remaining
    letters can do is all be 1.  So a letter v may follow iff every i < v
    already has #{letters <= i} >= i - k + 1.
    """
    out: list[Word] = []
    count = [0] * (n + 1)

    def grow(prefix: list[int]):
        k = n - len(prefix)
        if k == 0:
            out.append(tuple(prefix))
            return
        below = 0
        for v in range(1, n + 1):
            prefix.append(v)
            count[v] += 1
            grow(prefix)
            count[v] -= 1
            prefix.pop()
            below += count[v]
            if below < v - k + 1:
                break

    grow([])
    return tuple(out)


@enumeration
def ndpf(n: int) -> tuple[Word, ...]:
    if n == 0:
        return ((),)
    out: list[Word] = []

    def grow(prefix: list[int]):
        i = len(prefix)
        if i == n:
            out.append(tuple(prefix))
            return
        lo = prefix[-1] if prefix else 1
        for v in range(lo, i + 2):
            prefix.append(v)
            grow(prefix)
            prefix.pop()

    grow([])
    return tuple(out)


def corestrict(w: Word, values) -> Word:
    """Subword of the letters whose value lies in `values` (order kept)."""
    vs = set(values)
    return tuple(v for v in w if v in vs)


def image_overlap(h: Word, k: Word) -> int:
    return len(set(h) & set(k))


def run_compress(w: Word) -> Word:
    """Drop each letter equal to its left neighbour."""
    return tuple(v for i, v in enumerate(w) if i == 0 or w[i - 1] != v)
