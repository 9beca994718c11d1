"""clear_caches empties every memo of the package, so a long-lived process
can bound its memory, and results recomputed afterwards are unchanged.
Every memo registers itself: the registry is exactly what a scan of the
modules finds.  The verify suites run with the cyclic collector paused,
which is safe because they make no reference cycles."""

from __future__ import annotations

import gc
import sys

import pytest

import qtridend
from qtridend import verify
from qtridend.algebras import ALGEBRA_NAMES, el_product, get_algebra
from qtridend.brace import e_tri_basis, reconstruct
from qtridend.grammar import parse_element, render_element
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
        xy = el_product(h, STAR, Element.basis(name, x), Element.basis(name, y))
        text = render_element(xy)
        out += [xy, h.coproduct(x, 1), e_tri_basis(h, x), text, parse_element(name, text)]
        out.append(reconstruct(h, Element.basis(name, x)))
    return out


def test_clear_caches_empties_every_cache_and_keeps_results():
    first = _small_run()
    dicts, lrus = _package_caches()
    assert len(dicts) == 14 and len(lrus) == 6
    assert sorted(map(id, CACHES)) == sorted(id(c) for _, c in dicts + lrus)
    assert all(c for _, c in dicts)
    qtridend.clear_caches()
    assert [n for n, c in dicts if c] == []
    assert [n for n, f in lrus if f.cache_info().currsize] == []
    assert _small_run() == first


@pytest.fixture
def restore_collector():
    """Put the collector back as it was once the test ends."""
    enabled = gc.isenabled()
    yield
    gc.enable() if enabled else gc.disable()


@pytest.mark.parametrize("qval", [None, 1])
@pytest.mark.parametrize(
    "entry",
    range(len(verify.DEFAULT_PLAN)),
    ids=[" ".join(filter(None, (name, kw.get("algebra")))) for name, kw in verify.DEFAULT_PLAN],
)
def test_no_plan_entry_makes_cyclic_garbage(restore_collector, entry, qval):
    # from cold caches, as every cache fills with enumerator calls and new
    # memo entries; anything a suite leaves for the collector would be kept
    # for the whole suite while it is paused
    name, kwargs = verify.build_plan(max_degree=5, qval=qval)[entry]
    gc.disable()
    gc.collect()
    qtridend.clear_caches()
    assert verify.run_task((name, kwargs))["ok"]
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_run_task_pauses_the_collector_and_restores_it(restore_collector, monkeypatch, enabled):
    seen = []

    def probe():
        seen.append(gc.isenabled())
        return {}

    def raises():
        raise RuntimeError("planted")

    monkeypatch.setitem(verify._SUITES, "probe", probe)
    monkeypatch.setitem(verify._SUITES, "raises", raises)
    gc.enable() if enabled else gc.disable()
    verify.run_task(("probe", {}))
    assert seen == [False] and gc.isenabled() is enabled
    with pytest.raises(RuntimeError, match="planted"):
        verify.run_task(("raises", {}))
    assert gc.isenabled() is enabled
