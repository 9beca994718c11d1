"""Slow or test-only routes that the tests compare the package against."""

from __future__ import annotations

from qtridend.grammar import parse_element
from qtridend.qpoly import QPoly, decode


def parse_qpoly(text: str) -> QPoly:
    """A scalar such as 3*q^2 + q - 1, read by the element grammar as a
    multiple of the unit."""
    el = parse_element("st", text)
    if el.terms:
        raise ValueError(f"bad scalar {text!r}")
    return decode(el.unit)


def std_m_sequential(blocks) -> tuple:
    """std_m by one deletion at a time: the smallest cohabiting successor."""
    bs = [frozenset(b) for b in blocks]
    if not bs or not all(bs):
        raise ValueError("std_m needs a sequence of non-empty blocks")
    while True:
        support = sorted(set().union(*bs))
        rank = {v: i + 1 for i, v in enumerate(support)}
        bs = [frozenset(rank[v] for v in b) for b in bs]
        hits = sorted(v + 1 for b in bs for v in b if v + 1 in b)
        if not hits:
            return tuple(bs)
        kill = hits[0]
        bs = [frozenset(v for v in b if v != kill) for b in bs]
        bs = [b for b in bs if b]
