"""The perfbench tracer names package functions and caches by dotted
strings.  Each name must resolve with the interface the tracer uses, and
with the tracer installed the harness must run through its spans, so a
refactor that renames or rebinds one is caught here, not by a benchmark
that reads zero."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import qtridend.verify  # noqa: F401  (the tracer spans functions of the harness)
from qtridend import words
from qtridend.algebras import get_algebra
from qtridend.memo import CACHES
from qtridend.verify import verify_axioms, verify_oracles

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tr():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _module(name: str):
    return sys.modules[f"qtridend.{name}"]


def test_every_traced_name_resolves(tr):
    for _, mod, attr, caches in tr.SPAN_TARGETS:
        assert callable(getattr(_module(mod), attr)), (mod, attr)
        for cache in caches:
            assert len(tr.resolve(cache)) >= 0, cache
    mod, attr, namer = tr.SCAN_WORDS
    assert callable(getattr(_module(mod), attr))
    for enumerator in namer:
        assert getattr(words, enumerator).__name__ == enumerator
    for _, mod, attr in tr.COUNT_TARGETS:
        owner = _module(mod)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
            assert callable(vars(owner)[attr]), (mod, cls, attr)
        else:
            assert callable(getattr(owner, attr)), (mod, attr)
    for cache in tr.MODULE_CACHES:
        assert len(tr.resolve(cache)) >= 0, cache
    for fn in tr.LRU_CACHES:
        assert tr.resolve(fn).cache_info().currsize >= 0, fn


def test_every_traced_cache_is_registered(tr):
    registered = set(map(id, CACHES))
    assert all(id(tr.resolve(c)) in registered for c in tr.MODULE_CACHES + tr.LRU_CACHES)


def test_the_harness_runs_through_the_family_spans(tr):
    handle = get_algebra("pqsym")  # taken before the tracer is in, as the worker does
    tracer = tr.Tracer()
    tracer.install()
    try:
        handle.product("left", (1,), (1,))
        assert verify_axioms("st", 3)["ok"]
        assert verify_oracles(3, 3, 3, 1, 1)["ok"]
    finally:
        assert tracer.uninstall() == []
    calls, _, _ = tracer.self_times()
    for span in ("st.product", "pqsym.product", "st.oracle", "pqsym.oracle", "mperm.oracle"):
        assert calls.get(span, 0) > 0, span
