"""Outside-in tracing of the package's layers.

The tracer wraps functions of the `qtridend.*` modules from here, without
any change to the package.  A wrapped function is rebound in every
`qtridend.*` namespace that holds it (and, for methods, in its class), so
calls through module globals, `from .x import y` bindings and the package
namespace all reach the wrapper.  `uninstall` puts every original back.

Span targets record (name, parent, start, end) into flat arrays, kept in
memory and written out once at the end.  Count targets, the hot
coefficient and word helpers that would swamp a span trace, only count
calls.  A span target may name module caches; a "miss" is the growth of
those caches during the outermost span of that name.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (metric prefix, module, attribute, caches grown on a miss).  Several
# targets may share a prefix: their spans are pooled under it.
SPAN_TARGETS = (
    ("linear.bilinear_extend", "linear", "bilinear_extend", ()),
    ("linear.tensor_flatten", "linear", "tensor_flatten", ()),
    ("st.product", "st", "st_product", ("st._pair_cache",)),
    ("st.coproduct", "st", "st_coproduct", ("st._cop_cache",)),
    ("st.oracle", "st", "st_product_oracle", ()),
    ("pqsym.product", "pqsym", "pf_product", ("pqsym._pair_cache",)),
    ("pqsym.coproduct", "pqsym", "pf_coproduct", ("pqsym._cop_cache",)),
    ("pqsym.oracle", "pqsym", "pf_product_oracle", ()),
    ("tree.product", "trees", "tree_product", ("trees._prod_cache", "trees._star_cache")),
    ("tree.coproduct", "trees", "tree_coproduct", ("trees._cop_cache",)),
    ("mperm.product", "mperm", "mperm_product", ("mperm._pair_cache",)),
    ("mperm.coproduct", "mperm", "mperm_coproduct", ("mperm._cop_cache",)),
    ("mperm.oracle", "mperm", "mperm_product_oracle", ()),
    ("mperm.oracle", "verify", "_scan_mperms", ()),
    ("algebras.el_product", "algebras", "el_product", ()),
    ("algebras.compat_rhs", "algebras", "compat_rhs", ()),
    ("algebras.el_coproduct", "algebras", "el_coproduct", ()),
    ("brace.e_tri_basis", "brace", "e_tri_basis", ("brace._etri_cache",)),
    ("brace.e_tri", "brace", "e_tri", ()),
    ("brace.brace", "brace", "brace", ()),
    ("brace.reconstruct", "brace", "reconstruct", ()),
    ("brace.primitive_rank", "brace", "primitive_rank", ()),
    ("brace.primitive_kernel_basis", "brace", "primitive_kernel_basis", ()),
    ("rank.rational_rank", "rank", "rational_rank", ()),
    ("rank.rational_nullspace", "rank", "rational_nullspace", ()),
    ("grammar.parse", "grammar", "parse_element", ()),
    ("grammar.parse", "grammar", "parse_tensor2", ()),
    ("grammar.render", "grammar", "render_element", ()),
    ("grammar.render", "grammar", "render_tensor2", ()),
    ("verify", "verify", "run_task", ()),
)

# The oracles suite scans words for st and pqsym through one private
# helper; its span is named by the enumerator it is handed.
SCAN_WORDS = ("verify", "_scan_words", {"surjections": "st.oracle", "parking_functions": "pqsym.oracle"})

COUNT_TARGETS = (
    ("qpoly.new", "qpoly", "QPoly.__init__"),
    ("qpoly.mul", "qpoly", "QPoly.__mul__"),
    ("qpoly.add", "qpoly", "QPoly.__add__"),
    ("linear.element_add", "linear", "Element.__add__"),
    ("words.std", "words", "std"),
    ("words.park", "words", "park"),
    ("words.is_parking", "words", "is_parking"),
)

MODULE_CACHES = (
    "st._pair_cache",
    "st._cop_cache",
    "pqsym._pair_cache",
    "pqsym._cop_cache",
    "trees._prod_cache",
    "trees._star_cache",
    "trees._cop_cache",
    "mperm._pair_cache",
    "mperm._cop_cache",
    "brace._etri_cache",
)

LRU_CACHES = (
    "words.park",
    "words.surjections",
    "words.parking_functions",
    "words.ndpf",
    "trees.enumerate_trees",
    "mperm.mpermutations",
)


def package_modules() -> list:
    return [m for k, m in sorted(sys.modules.items()) if k == "qtridend" or k.startswith("qtridend.")]


def resolve(dotted: str):
    """'st._pair_cache' -> the object qtridend.st._pair_cache."""
    mod, attr = dotted.split(".", 1)
    return getattr(sys.modules[f"qtridend.{mod}"], attr)


def cold_state_errors() -> list:
    """Module caches and lru_caches that are not empty."""
    errors = [f"{c} holds {len(resolve(c))} entries" for c in MODULE_CACHES if resolve(c)]
    errors += [
        f"{c} holds {resolve(c).cache_info().currsize} entries"
        for c in LRU_CACHES
        if resolve(c).cache_info().currsize
    ]
    return errors


def snapshot() -> dict:
    """Identity of every attribute of the package's modules and classes."""
    out = {}
    for mod in package_modules():
        for k, v in vars(mod).items():
            out[(mod.__name__, k)] = id(v)
            if isinstance(v, type) and v.__module__ == mod.__name__:
                for ck, cv in vars(v).items():
                    out[(mod.__name__, k, ck)] = id(cv)
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, list] = {}
        self.growth: dict[str, list] = {}  # name -> [entries added, outer calls that grew, outer calls]
        self.matrix = {"rows": 0, "cols": 0, "cells": 0, "nnz": 0}
        self.patches: list = []

    # ------------------------------------------------------------ wrappers

    def _nid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span(self, name: str, fn, caches=(), namer=None, matrix=False):
        """Span wrapper.  namer maps the __name__ of the second argument to
        the span name; matrix records the shape of the first argument."""
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        fixed = self._nid(name) if name else None
        ids = {k: self._nid(v) for k, v in (namer or {}).items()}
        stats = self._matrix_stats if matrix else None
        grown = self.growth.setdefault(name, [0, 0, 0]) if caches else None
        depth = [0]

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if stats is not None:
                stats(args)
            if caches and not depth[0]:
                before = sum(map(len, caches))
            depth[0] += 1
            i = len(starts)
            names.append(fixed if namer is None else ids[args[1].__name__])
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                depth[0] -= 1
                if caches and not depth[0]:
                    added = sum(map(len, caches)) - before
                    grown[0] += added
                    grown[1] += added > 0
                    grown[2] += 1

        return wrapped

    def _count(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _matrix_stats(self, args):
        rows = args[0]
        cols = args[1] if len(args) > 1 else len(rows[0]) if rows else 0
        m = self.matrix
        m["rows"] += len(rows)
        m["cols"] += cols
        m["cells"] += len(rows) * cols
        m["nnz"] += sum(1 for row in rows for x in row if x)

    # ------------------------------------------------------- install/undo

    def _rebind(self, owners, orig, wrapped):
        for owner in owners:
            for k, v in list(vars(owner).items()):
                if v is orig:
                    setattr(owner, k, wrapped)
                    self.patches.append((owner, k, orig))

    def install(self):
        mods = package_modules()
        for name, mod, attr, caches in SPAN_TARGETS:
            orig = getattr(sys.modules[f"qtridend.{mod}"], attr)
            wrapped = self._span(name, orig, [resolve(c) for c in caches], matrix=mod == "rank")
            self._rebind(mods, orig, wrapped)
        mod, attr, namer = SCAN_WORDS
        orig = getattr(sys.modules[f"qtridend.{mod}"], attr)
        self._rebind(mods, orig, self._span("", orig, namer=namer))
        for name, mod, attr in COUNT_TARGETS:
            owner = sys.modules[f"qtridend.{mod}"]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                self._rebind([owner], vars(owner)[attr], self._count(name, vars(owner)[attr]))
            else:
                orig = getattr(owner, attr)
                self._rebind(mods, orig, self._count(name, orig))

    def uninstall(self) -> list:
        """Restore every original; returns the bindings that did not come back."""
        for owner, k, orig in reversed(self.patches):
            setattr(owner, k, orig)
        return [
            f"{getattr(owner, '__name__', owner)}.{k}"
            for owner, k, orig in self.patches
            if vars(owner)[k] is not orig
        ]

    # ------------------------------------------------------------ results

    def self_times(self) -> tuple[dict, dict, float]:
        """(span count by name, self seconds by name, top-level seconds).

        Calls nest and never overlap on one thread, so the part of a span
        covered by its children is the sum of their durations.
        """
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            d = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                child[p] += d
            else:
                top += d
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - child[i]
        return calls, self_s, top

    def write(self, path: Path) -> None:
        """Spans as four flat binary arrays, described by a JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".spans"), "wb") as f:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(f)
        header = {
            "spans": len(self.span_start),
            "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "names": self.names,
            "counts": {k: v[0] for k, v in self.counts.items()},
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1))


# (metric, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = []


def _layer(name, unit, better, moves):
    PER_LAYER.append((name, unit, better, moves))


for _fam in ("qpoly.new", "qpoly.mul", "qpoly.add"):
    _layer(f"{_fam}.calls", "count", "lower", "wall_s on verify-sym and verify-q1")
for _fn in ("bilinear_extend", "tensor_flatten"):
    _layer(f"linear.{_fn}.calls", "count", "lower", "wall_s on verify-*, req_p99_ms on session")
    _layer(f"linear.{_fn}.self_s", "s", "lower", "wall_s on verify-*, req_p99_ms on session")
_layer("linear.element_add.calls", "count", "lower", "wall_s on verify-*, req_p99_ms on session")
for _fn in ("std", "park", "is_parking"):
    _layer(f"words.{_fn}.calls", "count", "lower", "wall_s on verify-* (oracles suite)")
for _fam in ("st", "pqsym", "tree", "mperm"):
    _moves = "wall_s on verify-*, req_p50_ms and req_p99_ms on session"
    _layer(f"{_fam}.product.calls", "count", "lower", _moves)
    _layer(f"{_fam}.product.misses", "count", "lower", _moves)
    _layer(f"{_fam}.product.hit_ratio", "ratio", "higher", _moves)
    _layer(f"{_fam}.product.self_s", "s", "lower", _moves)
    _layer(f"{_fam}.coproduct.calls", "count", "lower", _moves)
    _layer(f"{_fam}.coproduct.misses", "count", "lower", _moves)
    _layer(f"{_fam}.coproduct.self_s", "s", "lower", _moves)
    if _fam != "tree":  # the tree family has no product oracle
        _layer(f"{_fam}.oracle.self_s", "s", "lower", "wall_s on verify-*")
_layer("algebras.el_product.calls", "count", "lower", "wall_s on verify-*")
_layer("algebras.compat_rhs.calls", "count", "lower", "wall_s on verify-*")
_layer("algebras.compat_rhs.self_s", "s", "lower", "wall_s on verify-*")
_layer("algebras.el_coproduct.self_s", "s", "lower", "wall_s on verify-*")
_moves = "wall_s on ranks, req_p99_ms on session"
_layer("brace.e_tri_basis.calls", "count", "lower", _moves)
_layer("brace.e_tri_basis.misses", "count", "lower", _moves)
_layer("brace.e_tri_basis.self_s", "s", "lower", _moves)
_layer("brace.brace.calls", "count", "lower", _moves)
_layer("brace.brace.self_s", "s", "lower", _moves)
_layer("brace.reconstruct.self_s", "s", "lower", _moves)
_moves = "wall_s on ranks (verify-* only through dims)"
for _fn in ("rational_rank", "rational_nullspace"):
    _layer(f"rank.{_fn}.calls", "count", "lower", _moves)
    _layer(f"rank.{_fn}.self_s", "s", "lower", _moves)
# summed over every elimination call; density is nnz over all cells
_layer("rank.rows", "count", "lower", _moves)
_layer("rank.cols", "count", "lower", _moves)
_layer("rank.nnz", "count", "lower", _moves)
_layer("rank.density", "ratio", "lower", _moves)
_layer("grammar.parse.self_s", "s", "lower", "req_p50_ms on session")
_layer("grammar.render.self_s", "s", "lower", "req_p50_ms on session")
_layer("verify.self_s", "s", "lower", "wall_s on verify-*")
for _suite in ("golden", "axioms", "bialgebra", "morphisms", "oracles", "brace", "dims"):
    _layer(f"verify.{_suite}.s", "s", "lower", "wall_s on verify-*")
for _cache in MODULE_CACHES:
    _layer(f"cache.{_cache}.entries", "count", "lower", "peak_rss_mb on verify-sym and session")
_layer("trace.coverage", "ratio", "higher", "none: share of traced wall time inside top-level spans")
_layer("trace.overhead_ratio", "ratio", "lower", "none: traced wall time over untraced wall time")


def layer_metrics(tracer: Tracer, suite_s: dict, wall_s: float) -> dict:
    """Every PER_LAYER metric except trace.overhead_ratio, which needs the
    untraced pass and is added by the caller."""
    calls, self_s, top = tracer.self_times()
    out = {}
    for name, value in tracer.counts.items():
        out[f"{name}.calls"] = value[0]
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name, (added, grew, outer) in tracer.growth.items():
        out[f"{name}.misses"] = added
        out[f"{name}.hit_ratio"] = 1.0 - grew / outer if outer else 0.0
    m = tracer.matrix
    out.update({f"rank.{k}": v for k, v in m.items()})
    out["rank.density"] = m["nnz"] / m["cells"] if m["cells"] else 0.0
    for suite, s in suite_s.items():
        out[f"verify.{suite}.s"] = s
    for cache in MODULE_CACHES:
        out[f"cache.{cache}.entries"] = len(resolve(cache))
    out["trace.coverage"] = top / wall_s if wall_s > 0 else 0.0
    return {name: out.get(name, 0) for name, *_ in PER_LAYER if name != "trace.overhead_ratio"}
