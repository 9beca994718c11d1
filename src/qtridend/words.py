"""Words on positive integers: standardization, parking, enumeration.

A word is a plain tuple of ints >= 1.  Positions are 1-based in every
function that takes position sets, matching the usual combinatorial
conventions; the empty word is the empty tuple and is never a basis object.

The enumerators grow their words level by level, with no recursive
closure, so an enumeration leaves no reference cycle behind for the
cyclic collector (which the verify suites pause, `memo.collector_paused`).

Families enumerated here:
  * surjections ST_n: words of length n whose letter set is exactly
    {1..max} (packed words),
  * parking functions PF_n: words whose increasing rearrangement u
    satisfies u(i) <= i,
  * non-decreasing parking functions NDPF_n: non-decreasing words with
    f(i) <= i (counted by the Catalan numbers).
"""

from __future__ import annotations

from itertools import combinations_with_replacement

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

    Grows the words a position at a time, each level in lex order, as
    (prefix, top, holes) with holes the values below the running max top
    not used yet; with k positions left after the new letter, a prefix
    survives iff they can still fill every hole.
    """
    level = [((), 0, 0)]
    for k in reversed(range(n)):
        nxt = []
        for w, top, holes in level:
            for v in range(1, top + k + 2 - holes):
                h = holes - (v not in w) if v <= top else holes + v - top - 1
                if h <= k:
                    nxt.append((w + (v,), max(top, v), h))
        level = nxt
    return tuple(w for w, _, _ in level)


@enumeration
def parking_functions(n: int) -> tuple[Word, ...]:
    """All parking functions of length n, in lexicographic order.

    Grows the words a position at a time, each level in lex order; with
    k positions left, the new one included, a prefix survives iff
    #{letters <= i} + k >= i for every i, since the best the remaining
    letters can do is all be 1.  So a letter v may follow iff every i < v
    already has #{letters <= i} >= i - k + 1.
    """
    level = [()]
    for k in range(n, 0, -1):
        nxt = []
        for w in level:
            below = 0
            for v in range(1, n + 1):
                nxt.append(w + (v,))
                below += w.count(v)
                if below < v - k + 1:
                    break
        level = nxt
    return tuple(level)


@enumeration
def ndpf(n: int) -> tuple[Word, ...]:
    """The nondecreasing parking functions of length n (f(i) <= i), in lexicographic order."""
    return tuple(
        f
        for f in combinations_with_replacement(range(1, n + 1), n)
        if all(v <= i for i, v in enumerate(f, start=1))
    )


def run_compress(w: Word) -> Word:
    """Drop each letter equal to its left neighbour."""
    return tuple(v for i, v in enumerate(w) if i == 0 or w[i - 1] != v)
