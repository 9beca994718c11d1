"""Slow or test-only routes that the tests compare the package against."""

from __future__ import annotations

from collections import defaultdict

from qtridend.grammar import parse_element
from qtridend.linear import LEFT, MIDDLE, RIGHT, STAR, UNIT, Tensor2, file_monomial
from qtridend.qpoly import QPoly, decode
from qtridend.st import _word_kind
from qtridend.words import corestrict, image_overlap, is_parking, std


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


def st_coproduct_reference(f) -> Tensor2:
    """The image cuts of a surjection by definition: co-restrict to 1..j and
    to j+1..max(f), and standardize the right factor; the left factor must
    already be standard."""
    r = max(f)
    terms = [((UNIT, f), 0), ((f, UNIT), 0)]
    for j in range(1, r):
        left = corestrict(f, range(1, j + 1))
        assert std(left) == left, (f, j)
        terms.append(((left, std(corestrict(f, range(j + 1, r + 1)))), 0))
    return Tensor2.from_monomials("st", terms)


def pf_coproduct_reference(f) -> Tensor2:
    """The positional cuts of a parking function by definition: the j letters
    <= j against the rest shifted down by j, kept only when both factors
    pass `is_parking`."""
    n = len(f)
    terms = [((UNIT, f), 0), ((f, UNIT), 0)]
    for j in range(1, n):
        left = tuple(x for x in f if x <= j)
        right = tuple(x - j for x in f if x > j)
        if len(left) == j and is_parking(left) and is_parking(right):
            terms.append(((left, right), 0))
    return Tensor2.from_monomials("pqsym", terms)


def scan_words_reference(total: int, enumerate_all, standardize) -> dict:
    """`st._scan_words` without its subword memo: every split standardizes
    both of its factors and measures their overlap afresh."""
    buckets = defaultdict(lambda: {LEFT: [], MIDDLE: [], RIGHT: [], STAR: []})
    for w in enumerate_all(total):
        for i in range(1, total):
            h, k = w[:i], w[i:]
            key = (standardize(h), standardize(k))
            file_monomial(buckets[key], _word_kind(max(h), max(k)), w, image_overlap(h, k))
    return buckets
