"""clear_caches empties every memo of the package, so a long-lived process
can bound its memory, and results recomputed afterwards are unchanged.
Every memo registers itself: the registry is exactly what a scan of the
modules finds."""

from __future__ import annotations

import sys

import qtridend
from qtridend.algebras import ALGEBRA_NAMES, el_product, get_algebra
from qtridend.brace import e_tri_basis
from qtridend.linear import STAR, Element
from qtridend.memo import CACHES


def _package_caches():
    """Every module-level dict named *_cache and every lru_cache'd function,
    each once: a family module binds its basis enumerator under two names."""
    dicts, lrus, seen = [], [], set()
    for name, mod in sorted(sys.modules.items()):
        if name.startswith("qtridend."):
            for attr, v in vars(mod).items():
                if attr.endswith("_cache") and isinstance(v, dict):
                    dicts.append((f"{name}.{attr}", v))
                elif hasattr(v, "cache_info") and getattr(v, "__module__", None) == name:
                    if id(v) not in seen:
                        seen.add(id(v))
                        lrus.append((f"{name}.{attr}", v))
    return dicts, lrus


def _small_run():
    out = []
    for name in ALGEBRA_NAMES:
        h = get_algebra(name)
        x, y = h.basis(2)[-1], h.basis(1)[0]
        out.append(el_product(h, STAR, Element.basis(name, x), Element.basis(name, y)))
        out.append(h.coproduct(x, 1))
        out.append(e_tri_basis(h, x))
    return out


def test_clear_caches_empties_every_cache_and_keeps_results():
    first = _small_run()
    dicts, lrus = _package_caches()
    assert len(dicts) == 11 and len(lrus) == 6
    assert sorted(map(id, CACHES)) == sorted(id(c) for _, c in dicts + lrus)
    assert all(c for _, c in dicts)
    qtridend.clear_caches()
    assert [n for n, c in dicts if c] == []
    assert [n for n, f in lrus if f.cache_info().currsize] == []
    assert _small_run() == first
