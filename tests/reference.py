"""Slow or test-only routes that the tests compare the package against."""

from __future__ import annotations

from collections import Counter, defaultdict
from operator import itemgetter

from qtridend.algebras import el_product, el_rtilde
from qtridend.brace import _advance_legs, e_tri_basis
from qtridend.grammar import _encoded_terms, _parse_term, parse_element, render_mperm, render_tree
from qtridend.linear import LEFT, MIDDLE, RIGHT, STAR, UNIT, Element, Tensor2
from qtridend.mperm import mpermutations_filter
from qtridend.qpoly import HALF, K, MASK, X, QPoly, decode
from qtridend.st import _value_sets, _word_kind
from qtridend.words import is_parking, render_word, std


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


def mperm_coproduct_reference(B) -> Tensor2:
    """Every split of the blocks of B, both sides standardized by
    `std_m_sequential`, the terms counted key by key."""
    l = len(B)
    keys = [
        (UNIT if i == 0 else std_m_sequential(B[:i]), UNIT if i == l else std_m_sequential(B[i:]))
        for i in range(l + 1)
    ]
    return Tensor2("mperm", Counter(keys))


def st_coproduct_reference(f) -> Tensor2:
    """The image cuts of a surjection by definition: co-restrict to 1..j and
    to j+1..max(f), and standardize the right factor; the left factor must
    already be standard."""
    r = max(f)
    keys = [(UNIT, f), (f, UNIT)]
    for j in range(1, r):
        left = tuple(v for v in f if v in range(1, j + 1))
        assert std(left) == left, (f, j)
        keys.append((left, std(tuple(v for v in f if v in range(j + 1, r + 1)))))
    return Tensor2("st", Counter(keys))


def pf_coproduct_reference(f) -> Tensor2:
    """The positional cuts of a parking function by definition: the j letters
    <= j against the rest shifted down by j, kept only when both factors
    pass `is_parking`."""
    n = len(f)
    keys = [(UNIT, f), (f, UNIT)]
    for j in range(1, n):
        left = tuple(x for x in f if x <= j)
        right = tuple(x - j for x in f if x > j)
        if len(left) == j and is_parking(left) and is_parking(right):
            keys.append((left, right))
    return Tensor2("pqsym", Counter(keys))


def flatten_reference(t: Tensor2, side: str, coproduct) -> dict:
    """(Delta (x) Id) t for side 'left', (Id (x) Delta) t for 'right', by
    definition: each term c l (x) r expands one leg by its coproduct,
    Delta(1) = 1 (x) 1, into a defaultdict of rank-3 keys; zero sums are
    dropped at the end."""
    out: defaultdict = defaultdict(int)
    for (l, r), c in t.terms.items():
        leg = l if side == "left" else r
        delta = {(UNIT, UNIT): 1} if leg is UNIT else coproduct(leg).terms
        for (u, v), cc in delta.items():
            out[(u, v, r) if side == "left" else (l, u, v)] += c * cc
    return {k: c for k, c in out.items() if c}


def coassociative_reference(t: Tensor2, coproduct) -> bool:
    """Whether (Delta (x) Id) t == (Id (x) Delta) t, both sides built by
    `flatten_reference`."""
    return flatten_reference(t, "left", coproduct) == flatten_reference(t, "right", coproduct)


def image_overlap(h, k) -> int:
    """The number of values that the words h and k share."""
    return len(set(h) & set(k))


def _monomial_lists() -> dict:
    return {LEFT: [], MIDDLE: [], RIGHT: [], STAR: []}


def _file_monomial(monomials: dict, kind: str, obj, e: int) -> None:
    """Append q^e * obj of the total product to the STAR list and to the
    list of its kind, one q less in the middle (STAR = < + q. + >)."""
    monomials[kind].append((obj, e - (kind == MIDDLE)))
    monomials[STAR].append((obj, e))


def exponent_dicts(monomials: dict) -> dict:
    """Monomial lists of distinct objects in the format the package's
    kernels hand to `kind_products`: {kind: {obj: overlap}}, the middle
    exponent one higher again."""
    return {kind: {o: e + (kind == MIDDLE) for o, e in ms} for kind, ms in monomials.items()}


def scan_words_reference(total: int, enumerate_all, standardize) -> dict:
    """`st._scan_words` without its subword memo, filing q-monomials:
    every split standardizes both of its factors and measures their
    overlap afresh."""
    buckets = defaultdict(_monomial_lists)
    for w in enumerate_all(total):
        for i in range(1, total):
            h, k = w[:i], w[i:]
            key = (standardize(h), standardize(k))
            _file_monomial(buckets[key], _word_kind(max(h), max(k)), w, image_overlap(h, k))
    return buckets


def _restrict(w, values) -> tuple:
    return tuple(b & values for b in w if b & values)


def scan_mperms_reference(total: int) -> dict:
    """`mperm._scan_mperms` by definition, filing q-monomials: every W of
    size total, and of size total - 1, from `mpermutations_filter`, goes
    under (B, D) for each n, with B = W restricted to [n] and D the
    `std_m_sequential` of W restricted to the window (the values above n,
    and n itself when W has size total - 1), when D keeps all total - n
    window values.  The kind is read off the last block of W."""
    buckets = defaultdict(_monomial_lists)
    for size in (total, total - 1):
        for w in mpermutations_filter(size):
            for n in range(1, total):
                left = frozenset(range(1, n + 1))
                window = frozenset(range(n + 1 - (total - size), size + 1))
                D = std_m_sequential(_restrict(w, window))
                if sum(map(len, D)) != total - n:
                    continue
                B = _restrict(w, left)
                last = w[-1]
                kind = MIDDLE if last & left and last & window else LEFT if last & left else RIGHT
                _file_monomial(buckets[B, D], kind, w, len(B) + len(D) - len(w))
    return buckets


def mperm_route_reference(B, D) -> dict:
    """mperm's value-set route, filing q-monomials: for each (A, V, kind,
    overlap) of `st._value_sets`, the blocks of B go on the values in A,
    those of D shifted by n = size(B) on the values in V, a shared value
    holding the union, and `std_m_sequential` deletes n + 1 when it shares
    a block with n."""
    n = sum(map(len, B))
    monomials = _monomial_lists()
    for A, V, kind, overlap in _value_sets(len(B), len(D)):
        blocks = [set() for _ in range(len(B) + len(D) - overlap)]
        for v, b in zip(A, B):
            blocks[v - 1] |= b
        for v, d in zip(V, D):
            blocks[v - 1] |= {x + n for x in d}
        _file_monomial(monomials, kind, std_m_sequential(blocks), overlap)
    return monomials


def reconstruct_reference(h, x, qval=None) -> Element:
    """`brace.reconstruct` by leg tuples: the r-fold reduced coproduct
    split at the last leg, and e of its legs multiplied left-nested by >,
    ((e(x1) > e(x2)) > ...) > e(xr), summed over r."""
    if x.unit:
        raise ValueError("reconstruct is defined on the augmentation ideal")
    legs = {(o,): c for o, c in x.terms.items() if c}
    parts = []
    while legs:
        for objs, c in legs.items():
            el = e_tri_basis(h, objs[0], qval)
            for o in objs[1:]:
                el = el_product(h, RIGHT, el, e_tri_basis(h, o, qval), qval)
            parts.append((el, c))
        legs = _advance_legs(h, legs, qval)
    return Element.sum(h.name, parts)


def brace_reference(h, x, ys, qval=None) -> Element:
    """`brace.brace` by its n + 1 parts, each built as an Element of its
    own from `el_product` and `el_rtilde` alone and then summed:
    (y1 < (y2 < ... < yi)) rtilde x < (((y_{i+1} rt y_{i+2}) rt ...) rt yn)
    with sign (-1)^(n-i)."""
    n = len(ys)
    if n == 0:
        return x
    parts = []
    for i in range(n + 1):
        t = x
        if i > 0:
            word = ys[i - 1]
            for y in reversed(ys[: i - 1]):
                word = el_product(h, LEFT, y, word, qval)
            t = el_rtilde(h, word, t, qval)
        if i < n:
            word = ys[i]
            for y in ys[i + 1 :]:
                word = el_rtilde(h, word, y, qval)
            t = el_product(h, LEFT, t, word, qval)
        parts.append((t, -1 if (n - i) % 2 else 1))
    return Element.sum(h.name, parts)


def parse_element_reference(family: str, text: str, qval=None) -> Element:
    """`grammar.parse_element` by the per-term fold: each term read as an
    Element of its own (the unit for a term with no basis literal), and
    the terms summed."""
    parts = (
        (Element.slot(family, obj), c)
        for obj, c in _encoded_terms(family, text, qval, _parse_term)
    )
    return Element.sum(family, parts)


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
