"""The package's memos, and the one registry of them.

A `Memo` is a dict that computes a missing value from its key, so a hit
is one dict lookup.  `enumeration` is `lru_cache(maxsize=None)` for the
enumerators.  Both register themselves in `CACHES`, which
`qtridend.clear_caches` empties; every cache grows with use until then.
The memos hold basis products and coproducts, projector values, the
values R(x) that `brace.reconstruct` sums, pqsym product candidates
and, in `grammar`, the text of each basis object rendered and the
parsed (c, e, object) of each term text parsed.  The last is keyed by
client text, so its size follows the input; like the others it is
bounded only by `clear_caches`.

Memo data is acyclic: keys and values are strings, ints, tuples,
frozensets and dicts of them, and Elements and tensors built from those.
So a verify suite, which allocates little else, runs with the cyclic
collector paused (`collector_paused`): its collections would only walk
the growing memos and free nothing.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from functools import lru_cache

CACHES: list = []


class Memo(dict):
    """A dict that stores compute(*key) under a missing key.  As a
    decorator, it names the memo after the function it computes by.  A key
    that is one basis object, itself a tuple, reaches compute as that
    object's items: compute(*f) rebuilds f."""

    __slots__ = ("compute",)
    cache_clear = dict.clear

    def __init__(self, compute):
        super().__init__()
        self.compute = compute
        CACHES.append(self)

    def __missing__(self, key):
        value = self[key] = self.compute(*key)
        return value


def enumeration(fn):
    """lru_cache(maxsize=None), registered in CACHES."""
    cached = lru_cache(maxsize=None)(fn)
    CACHES.append(cached)
    return cached


@contextmanager
def collector_paused():
    """Run the block with the cyclic garbage collector disabled, then
    restore its previous state, also when the block raises.  Reference
    counting still frees everything acyclic at once."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
