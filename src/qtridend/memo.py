"""The package's memos, and the one registry of them.

A `Memo` is a dict that computes a missing value from its key, so a hit
is one dict lookup.  `enumeration` is `lru_cache(maxsize=None)` for the
enumerators.  Both register themselves in `CACHES`, which
`qtridend.clear_caches` empties; every cache grows with use until then.
"""

from __future__ import annotations

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
