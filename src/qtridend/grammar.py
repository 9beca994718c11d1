"""Textual and JSON forms for scalars, basis objects, elements, tensors.

Grammar summary:
  * scalars: sums of integer monomials  3*q^2 + q - 1
  * words: (2,1,3)
  * trees: | for a leaf, V(t1,...,tr) for a graft
  * multipermutations: [(1,4,6),(2,7),(3,5)]; singleton blocks may be
    bare integers on input, canonical output parenthesizes every block
  * elements: q-monomial-scaled basis terms joined by + and -, the unit
    spelled 1, e.g.  3*q^2*(1,2,1) + (2,1,1) + q*1
  * rank-2 tensors: terms  coeff*left # right  with ' # ' the separator.

Terms of an element render sorted by the text form of the basis object,
exponents descending inside one basis term.  Parsing encodes each term's
coefficient at q = X (or at q = qval when given), and rendering decodes
it unless a qval says the coefficients are plain values (`qpoly`).
"""

from __future__ import annotations

import re
from operator import itemgetter

from .algebras import get_algebra
from .linear import UNIT, Element, Tensor2
from .qpoly import HALF, MAX_EXPONENT, join_terms, q_power, term_text, to_pairs
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


def _renderer(family: str):
    fn = _RENDERERS.get(family)
    if fn is None:
        raise ValueError(f"unknown family {family!r}")
    return fn


def render_basis(family: str, obj) -> str:
    return _renderer(family)(obj)


def _sorted_element(el: Element) -> list:
    """(basis text, coeff) per term, sorted by the text, each text rendered once."""
    fn = _renderer(el.family)
    return sorted(((fn(o), c) for o, c in el.terms.items()), key=itemgetter(0))


def _sorted_tensor(t: Tensor2) -> list:
    """((left text, right text), coeff) per term, sorted by the texts; a
    unit leg renders as 1."""
    basis = _renderer(t.family)
    fn = lambda s: "1" if s is UNIT else basis(s)
    return sorted((((fn(l), fn(r)), c) for (l, r), c in t.terms.items()), key=itemgetter(0))


def _monomial_text(c: int, e: int, text: str) -> str:
    """One rendered term c*q^e*text; never carries a leading +."""
    if e == 0 and abs(c) == 1:
        return text if c > 0 else "-" + text
    return f"{term_text(c, e)}*{text}"


def _join_terms(terms, qval: int | None) -> str:
    """Render (text, coeff) terms in the given order, exponents descending
    inside one term."""
    return join_terms(
        [_monomial_text(c, e, text) for text, coeff in terms for e, c in reversed(to_pairs(coeff, qval))]
    )


def render_element(el: Element, qval: int | None = None) -> str:
    """The text form of el; qval None decodes symbolic coefficients, an
    int qval prints them as the plain values they are."""
    terms = _sorted_element(el)
    if el.unit:
        terms.append(("1", el.unit))
    return _join_terms(terms, qval)


def render_tensor2(t: Tensor2, qval: int | None = None) -> str:
    return _join_terms(((f"{l} # {r}", c) for (l, r), c in _sorted_tensor(t)), qval)


# ---------------------------------------------------------------- parsing

_WORD_RE = re.compile(r"\(\s*\d+(?:\s*,\s*\d+)*\s*\)$")


def parse_word(text: str) -> Word:
    text = text.strip()
    if not _WORD_RE.match(text):
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
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"bad multipermutation literal: {text!r}")
    body = text[1:-1].strip()
    if not body:
        raise ValueError("empty multipermutation")
    blocks = []
    i = 0
    try:  # int() and index() failures are malformed literals too
        while i < len(body):
            if body[i] == "(":
                j = body.index(")", i)
                blocks.append(frozenset(int(v) for v in body[i + 1 : j].split(",")))
                i = j + 1
            elif body[i].isdigit():
                j = i
                while j < len(body) and body[j].isdigit():
                    j += 1
                blocks.append(frozenset({int(body[i:j])}))
                i = j
            elif body[i] in ", ":
                i += 1
            else:
                raise ValueError
    except ValueError:
        raise ValueError(f"bad multipermutation literal: {text!r}") from None
    return tuple(blocks)


def parse_basis(family: str, text: str):
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
        raise ValueError(f"{e}: {render_basis(family, obj)}") from None


def _split_top(text: str) -> list[tuple[str, str]]:
    """Split on +/- at bracket depth 0 that does not follow a ^; returns
    (sign, chunk) pairs.  Only a leading sign may have no term before it."""
    out = []
    depth = 0
    cur = []
    sign = None  # of the chunk in cur; None until the first sign

    def flush():
        chunk = "".join(cur).strip()
        if chunk:
            out.append((sign or "+", chunk))
        elif sign is not None:
            raise ValueError(f"empty term in {text!r}")

    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch in "+-" and cur[-1:] != ["^"]:
            flush()
            sign = ch
            cur = []
        else:
            cur.append(ch)
    flush()
    return out


def _split_factors(text: str) -> list[str]:
    out = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch == "*":
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur).strip())
    return out


_QPOW_RE = re.compile(r"q(?:\^(\d+))?$")


def _parse_term(family: str, chunk: str) -> tuple:
    """One term -> (c, e, basis object or UNIT) for c*q^e times the object.

    A term with no basis literal is a scalar multiple of the unit, so
    both `q*1` and a bare integer parse as unit terms.
    """
    c, e = 1, 0
    obj = UNIT
    for f in _split_factors(chunk):
        if not f:
            raise ValueError(f"empty factor in {chunk!r}")
        if f.isdecimal():
            c *= int(f)
        elif f.startswith("q"):
            m = _QPOW_RE.match(f)
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
    """(coefficient, object) per term of text, where split(family, chunk)
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
        yield (-c if sign == "-" else c) * q_power(e, qval), objs


def parse_element(family: str, text: str, qval: int | None = None) -> Element:
    """The Element of text, with q = qval unless qval is None."""
    parts = (
        (Element.slot(family, obj), c)
        for c, obj in _encoded_terms(family, text, qval, _parse_term)
    )
    return Element.sum(family, parts)


def _tensor_term(family: str, chunk: str) -> tuple:
    """One tensor term coeff*left # right -> (c, e, (left, right))."""
    if " # " not in chunk:
        raise ValueError(f"tensor term without separator: {chunk!r}")
    lpart, rpart = chunk.split(" # ", 1)
    c, e, left = _parse_term(family, lpart.strip())
    rtext = rpart.strip()
    right = UNIT if rtext == "1" else parse_basis(family, rtext)
    return c, e, (left, right)


def parse_tensor2(family: str, text: str, qval: int | None = None) -> Tensor2:
    """The Tensor2 of text, with q = qval unless qval is None."""
    if text.strip() == "0":
        return Tensor2(family)
    parts = (
        ((Element.slot(family, left), Element.slot(family, right)), c)
        for c, (left, right) in _encoded_terms(family, text, qval, _tensor_term)
    )
    return Tensor2.sum(family, parts)


def element_to_json(el: Element, qval: int | None = None) -> dict:
    return {
        "algebra": el.family,
        "terms": [
            {"basis": text, "coeff": to_pairs(c, qval)} for text, c in _sorted_element(el)
        ],
        "unit": to_pairs(el.unit, qval),
    }


def tensor2_to_json(t: Tensor2, qval: int | None = None) -> dict:
    return {
        "algebra": t.family,
        "terms": [
            {"left": l, "right": r, "coeff": to_pairs(c, qval)}
            for (l, r), c in _sorted_tensor(t)
        ],
    }
