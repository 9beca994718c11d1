"""Textual and JSON forms for scalars, basis objects, elements, tensors.

Grammar summary:
  * scalars: sums of integer monomials  3*q^2 + q - 1
  * words: (2,1,3)
  * trees: | for a leaf, V(t1,...,tr) for a graft
  * multipermutations: [(1,4,6),(2,7),(3,5)]; singleton blocks may be
    bare integers on input, no block repeats a value, canonical output
    parenthesizes every block
  * elements: q-monomial-scaled basis terms joined by + and -, the unit
    spelled 1, e.g.  3*q^2*(1,2,1) + (2,1,1) + q*1; the zero is 0, and
    blank text is refused
  * rank-2 tensors: terms  coeff*left # right  with ' # ' the separator.
Numbers are ASCII digits, and the items of a literal are separated by
one comma each; spaces may surround numbers, commas and brackets.

Terms of an element render sorted by the text form of the basis object,
exponents descending inside one basis term.  Parsing encodes each term's
coefficient at q = X (or at q = qval when given), and rendering reads its
digits (`qpoly.digits`) unless a qval says the coefficients are plain
values.  Each render decodes and formats each distinct coefficient of
its output once, into a plain dict made for that call: a term is its
coefficient's signed prefix (`qpoly.term_prefix` behind a " + " or
" - ") and its basis text, the terms are joined in one pass and the
first separator fixed, and the JSON forms read `to_pairs` the same way.
Nothing of it outlives the call.  The memo `_text_cache`
renders each basis object once, and the memo `_term_cache` parses each
term text once: keyed by the family and the term as the client wrote
it, it holds the q-free (c, e, object), so the sign and the encoding
under qval are applied per call.  Both grow with their input until `qtridend.clear_caches()`.
"""

from __future__ import annotations

import re
import sys
from operator import itemgetter

from .algebras import get_algebra
from .linear import UNIT, Element, Tensor2, file_terms, filed_element, filed_tensor
from .memo import Memo
from .qpoly import HALF, MAX_EXPONENT, digits, q_power, term_prefix, to_pairs
from .trees import LEAF
from .words import Word, render_word


def render_tree(t) -> str:
    if t == LEAF:
        return "|"
    return "V(" + ",".join(render_tree(c) for c in t) + ")"


def render_mperm(w) -> str:
    return "[" + ",".join(
        "(" + ",".join(str(v) for v in sorted(b)) + ")" for b in w
    ) + "]"


_RENDERERS = {"st": render_word, "pqsym": render_word, "tree": render_tree, "mperm": render_mperm}


@Memo
def _text_cache(family: str, obj) -> str:
    """The text of a basis object of the family; the unit's is 1."""
    fn = _RENDERERS.get(family)
    if fn is None:
        raise ValueError(f"unknown family {family!r}")
    return "1" if obj is UNIT else fn(obj)


def render_basis(family: str, obj) -> str:
    return _text_cache[family, obj]


def _sorted_element(el: Element) -> list:
    """(basis text, coeff) per term, sorted by the text."""
    texts, family = _text_cache, el.family
    return sorted(((texts[family, o], c) for o, c in el.terms.items()), key=itemgetter(0))


def _sorted_tensor(t: Tensor2) -> list:
    """((left text, right text), coeff) per term, sorted by the texts; a
    unit leg renders as 1."""
    texts, family = _text_cache, t.family
    terms = (((texts[family, l], texts[family, r]), c) for (l, r), c in t.terms.items())
    return sorted(terms, key=itemgetter(0))


def _signed(prefix: str) -> str:
    """The separator and prefix that a term puts before its basis text
    when another term precedes it: " + 3*q*" or " - "."""
    return " - " + prefix[1:] if prefix[:1] == "-" else " + " + prefix


def _join_terms(terms, qval: int | None) -> str:
    """Render a list of (text, coeff) terms in its order, exponents descending
    inside one term; 0 when there are none.  Every term is joined with its
    separator, and the first separator is fixed afterwards."""
    prefixes = {
        coeff: [_signed(term_prefix(c, e)) for e, c in reversed(digits(coeff, qval))]
        for coeff in {coeff for _, coeff in terms}
    }
    out = "".join([p + text for text, coeff in terms for p in prefixes[coeff]])
    if not out:
        return "0"
    return out[3:] if out[1] == "+" else "-" + out[3:]


def render_element(el: Element, qval: int | None = None) -> str:
    """The text form of el; qval None decodes symbolic coefficients, an
    int qval prints them as the plain values they are."""
    terms = _sorted_element(el)
    if el.unit:
        terms.append(("1", el.unit))
    return _join_terms(terms, qval)


def render_tensor2(t: Tensor2, qval: int | None = None) -> str:
    return _join_terms([(f"{l} # {r}", c) for (l, r), c in _sorted_tensor(t)], qval)


# ---------------------------------------------------------------- parsing

# A word is one tuple; an mperm block is a tuple or a bare singleton.
_TUPLE = r"\(\s*[0-9]+(?:\s*,\s*[0-9]+)*\s*\)"
_BLOCK = rf"(?:{_TUPLE}|[0-9]+)"
_WORD_RE = re.compile(_TUPLE, re.ASCII)
_MPERM_RE = re.compile(rf"\[\s*{_BLOCK}(?:\s*,\s*{_BLOCK})*\s*\]", re.ASCII)
_BLOCK_RE = re.compile(r"\(([^)]*)\)|([0-9]+)")


def _refuse_long_numbers(text: str) -> None:
    """Refuse a run of more digits than int() converts: 4,300 by default
    (`sys.set_int_max_str_digits`), no limit before Python 3.10.7."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(text) > limit and re.search(rf"[0-9]{{{limit + 1}}}", text):
        raise ValueError(f"number too long in {text!r}")


def parse_word(text: str) -> Word:
    text = text.strip()
    if not _WORD_RE.fullmatch(text):
        raise ValueError(f"bad word literal: {text!r}")
    return tuple(int(v) for v in text[1:-1].split(","))


def parse_tree(text: str):
    t, rest = _parse_tree_at(text.strip())
    if rest.strip():
        raise ValueError(f"trailing input after tree: {rest!r}")
    return t


def _parse_tree_at(s: str):
    s = s.lstrip()
    if s.startswith("|"):
        return LEAF, s[1:]
    if not s.startswith("V("):
        raise ValueError(f"bad tree literal near {s[:20]!r}")
    s = s[2:]
    kids = []
    while True:
        kid, s = _parse_tree_at(s)
        kids.append(kid)
        s = s.lstrip()
        if s.startswith(","):
            s = s[1:]
            continue
        if s.startswith(")"):
            return tuple(kids), s[1:]
        raise ValueError(f"bad tree literal near {s[:20]!r}")


def parse_mperm(text: str):
    text = text.strip()
    if "".join(text.split()) == "[]":
        raise ValueError("empty multipermutation")
    if not _MPERM_RE.fullmatch(text):
        raise ValueError(f"bad multipermutation literal: {text!r}")
    blocks = [
        [int(v) for v in (inner or bare).split(",")] for inner, bare in _BLOCK_RE.findall(text)
    ]
    if any(len(set(b)) < len(b) for b in blocks):
        raise ValueError(f"repeated value in a block of {text!r}")
    return tuple(map(frozenset, blocks))


def parse_basis(family: str, text: str):
    _refuse_long_numbers(text)
    if family in ("st", "pqsym"):
        obj = parse_word(text)
    elif family == "tree":
        obj = parse_tree(text)
    elif family == "mperm":
        obj = parse_mperm(text)
    else:
        raise ValueError(f"unknown family {family!r}")
    try:
        return get_algebra(family).validate(obj)
    except ValueError as e:
        # rendered afresh: an invalid object must not enter _text_cache
        raise ValueError(f"{e}: {_RENDERERS[family](obj)}") from None


def _split(text: str, seps: str) -> list[tuple[str | None, str]]:
    """Split text at the characters of seps that stand at bracket depth 0,
    where + and - never split after a ^; returns (separator, chunk) pairs
    with each chunk stripped and the first separator None."""
    out = []
    depth = start = 0
    sep = None
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif depth == 0 and ch in seps and not (ch in "+-" and text[i - 1 : i] == "^"):
            out.append((sep, text[start:i].strip()))
            sep, start = ch, i + 1
    out.append((sep, text[start:].strip()))
    return out


def _split_top(text: str) -> list[tuple[str, str]]:
    """Split on +/- at bracket depth 0 that does not follow a ^; returns
    (sign, chunk) pairs.  Only a leading sign may have no term before it,
    and text with no term at all is refused: the zero is written 0."""
    (_, head), *rest = _split(text, "+-")
    if not (head or rest):
        raise ValueError("empty element; the zero is written 0")
    if not all(chunk for _, chunk in rest):
        raise ValueError(f"empty term in {text!r}")
    return ([("+", head)] if head else []) + rest


_QPOW_RE = re.compile(r"q(?:\^([0-9]+))?")


@Memo
def _term_cache(family: str, chunk: str) -> tuple:
    """One term -> (c, e, basis object or UNIT) for c*q^e times the object.

    A term with no basis literal is a scalar multiple of the unit, so
    both `q*1` and a bare integer parse as unit terms.  The result is
    q-free, so one entry serves every qval; it is keyed by the client's
    text, and an invalid term raises and stores nothing.
    """
    _refuse_long_numbers(chunk)
    c, e = 1, 0
    obj = UNIT
    for _, f in _split(chunk, "*"):
        if not f:
            raise ValueError(f"empty factor in {chunk!r}")
        if f.isascii() and f.isdigit():
            c *= int(f)
        elif f.startswith("q"):
            m = _QPOW_RE.fullmatch(f)
            if not m:
                raise ValueError(f"bad q factor {f!r}")
            e += int(m.group(1) or 1)
        elif obj is not UNIT:
            raise ValueError(f"two basis literals in {chunk!r}")
        else:
            obj = parse_basis(family, f)
    if e > MAX_EXPONENT:
        raise ValueError(f"q exponent over {MAX_EXPONENT} in {chunk!r}")
    return c, e, obj


def _encoded_terms(family: str, text: str, qval: int | None, split):
    """(object, coefficient) per term of text, where split(family, chunk)
    gives (c, e, object) for c*q^e times the object and the coefficient is
    signed and encoded under qval.  Symbolic coefficients whose
    magnitudes sum to X/2 or more are refused, as no digit could hold
    their sum."""
    norm = 0
    for sign, chunk in _split_top(text.strip()):
        c, e, objs = split(family, chunk)
        norm += c
        if qval is None and norm >= HALF:
            raise ValueError(f"coefficients of {text!r} reach 2^63, too large for symbolic q")
        yield objs, (-c if sign == "-" else c) * q_power(e, qval)


def _parse_term(family: str, chunk: str) -> tuple:
    """(c, e, object) of one term, from the memo."""
    return _term_cache[family, chunk]


def parse_element(family: str, text: str, qval: int | None = None) -> Element:
    """The Element of text, with q = qval unless qval is None: every term
    is filed into one accumulator, the unit terms under UNIT."""
    return filed_element(family, file_terms({}, _encoded_terms(family, text, qval, _parse_term)))


def _zero_term(family: str, chunk: str) -> bool:
    """Whether chunk parses as a term with coefficient 0, as `0` or `0*(1)`.
    It is read past the memo, so a refused chunk leaves the memo as it was."""
    try:
        return _term_cache.compute(family, chunk)[0] == 0
    except ValueError:
        return False


def _tensor_term(family: str, chunk: str) -> tuple:
    """One tensor term coeff*left # right -> (c, e, (left, right)); a term
    with coefficient 0 needs no separator, as in `parse_element`."""
    if " # " not in chunk:
        if not _zero_term(family, chunk):
            raise ValueError(f"tensor term without separator: {chunk!r}")
        return 0, 0, (UNIT, UNIT)
    lpart, rpart = chunk.split(" # ", 1)
    c, e, left = _parse_term(family, lpart.strip())
    rtext = rpart.strip()
    right = UNIT if rtext == "1" else parse_basis(family, rtext)
    return c, e, (left, right)


def parse_tensor2(family: str, text: str, qval: int | None = None) -> Tensor2:
    """The Tensor2 of text, with q = qval unless qval is None: every
    term is filed into one accumulator under its (left, right) key."""
    return filed_tensor(family, file_terms({}, _encoded_terms(family, text, qval, _tensor_term)))


def _json_pairs(coeffs, qval: int | None):
    """coeff -> its JSON pairs, read through `to_pairs` once per distinct
    coefficient of coeffs; each read gets lists of its own."""
    table = {coeff: to_pairs(coeff, qval) for coeff in set(coeffs)}
    return lambda coeff: [pair[:] for pair in table[coeff]]


def element_to_json(el: Element, qval: int | None = None) -> dict:
    terms = _sorted_element(el)
    pairs = _json_pairs([el.unit, *(c for _, c in terms)], qval)
    return {
        "algebra": el.family,
        "terms": [{"basis": text, "coeff": pairs(c)} for text, c in terms],
        "unit": pairs(el.unit),
    }


def tensor2_to_json(t: Tensor2, qval: int | None = None) -> dict:
    terms = _sorted_tensor(t)
    pairs = _json_pairs((c for _, c in terms), qval)
    return {
        "algebra": t.family,
        "terms": [{"left": l, "right": r, "coeff": pairs(c)} for (l, r), c in terms],
    }
