"""Slow or test-only routes that the tests compare the package against."""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter

from qtridend.grammar import parse_element, render_mperm, render_tree
from qtridend.linear import LEFT, MIDDLE, RIGHT, STAR, UNIT, Tensor2, file_monomial
from qtridend.qpoly import HALF, K, MASK, X, QPoly, decode
from qtridend.st import _word_kind
from qtridend.words import corestrict, image_overlap, is_parking, render_word, std


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


# ------------------------------------------------------------- rendering
# Element and tensor texts by the long route: render each basis object
# afresh, read every balanced base-X digit into a QPoly, sort its pairs,
# and format each monomial by hand.

_BASIS_TEXT = {"st": render_word, "pqsym": render_word, "tree": render_tree, "mperm": render_mperm}


def decode_reference(c: int) -> QPoly:
    """The balanced base-X digits of c, one loop step per digit."""
    m = {}
    e = 0
    while c:
        d = c & MASK
        if d >= HALF:
            d -= X
        m[e] = d
        c = (c - d) >> K
        e += 1
    return QPoly(m)


def to_pairs_reference(c: int, qval: int | None = None) -> list:
    if qval is not None or -HALF < c < HALF:
        return [[0, c]] if c else []
    return [[e, d] for e, d in sorted(decode_reference(c).m.items())]


def _term_text(c: int, e: int) -> str:
    if e == 0:
        return str(c)
    q = "q" if e == 1 else f"q^{e}"
    if c == 1:
        return q
    if c == -1:
        return f"-{q}"
    return f"{c}*{q}"


def _monomial_text(c: int, e: int, text: str) -> str:
    if e == 0 and abs(c) == 1:
        return text if c > 0 else "-" + text
    return f"{_term_text(c, e)}*{text}"


def _join_terms(pieces: list) -> str:
    if not pieces:
        return "0"
    return pieces[0] + "".join(" - " + t[1:] if t[0] == "-" else " + " + t for t in pieces[1:])


def _render_terms(terms, qval) -> str:
    return _join_terms(
        [
            _monomial_text(c, e, text)
            for text, coeff in terms
            for e, c in reversed(to_pairs_reference(coeff, qval))
        ]
    )


def _element_terms(el) -> list:
    fn = _BASIS_TEXT[el.family]
    return sorted(((fn(o), c) for o, c in el.terms.items()), key=itemgetter(0))


def _tensor_terms(t) -> list:
    fn = lambda s: "1" if s is UNIT else _BASIS_TEXT[t.family](s)
    return sorted((((fn(l), fn(r)), c) for (l, r), c in t.terms.items()), key=itemgetter(0))


def render_element_reference(el, qval: int | None = None) -> str:
    terms = _element_terms(el)
    if el.unit:
        terms.append(("1", el.unit))
    return _render_terms(terms, qval)


def render_tensor2_reference(t, qval: int | None = None) -> str:
    return _render_terms(((f"{l} # {r}", c) for (l, r), c in _tensor_terms(t)), qval)


def element_to_json_reference(el, qval: int | None = None) -> dict:
    return {
        "algebra": el.family,
        "terms": [
            {"basis": text, "coeff": to_pairs_reference(c, qval)} for text, c in _element_terms(el)
        ],
        "unit": to_pairs_reference(el.unit, qval),
    }


def tensor2_to_json_reference(t, qval: int | None = None) -> dict:
    return {
        "algebra": t.family,
        "terms": [
            {"left": l, "right": r, "coeff": to_pairs_reference(c, qval)}
            for (l, r), c in _tensor_terms(t)
        ],
    }
