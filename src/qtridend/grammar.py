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
exponents descending inside one basis term.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .algebras import get_algebra
from .linear import UNIT, Element, Tensor2
from .qpoly import QPoly, to_pairs
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


def _coeff_basis_text(c: int, e: int, basis_text: str) -> str:
    """One rendered monomial term; never carries a leading +."""
    parts = []
    if e == 0:
        if abs(c) != 1 or basis_text is None:
            parts.append(str(abs(c)))
    else:
        if abs(c) != 1:
            parts.append(str(abs(c)))
        parts.append("q" if e == 1 else f"q^{e}")
    if basis_text is not None:
        parts.append(basis_text)
    if not parts:
        parts.append("1")
    body = "*".join(parts)
    return "-" + body if c < 0 else body


def _join_terms(terms) -> str:
    """Render (text, coeff) terms in the given order, exponents descending
    inside one term; an int coefficient is formatted directly."""
    pieces: list[str] = []
    for text, coeff in terms:
        if isinstance(coeff, int):
            if coeff == 1:
                pieces.append(text)
            elif coeff == -1:
                pieces.append("-" + text)
            else:
                pieces.append(f"{coeff}*{text}")
        else:
            for e, c in reversed(to_pairs(coeff)):
                pieces.append(_coeff_basis_text(c, e, text))
    if not pieces:
        return "0"
    return pieces[0] + "".join(
        " - " + p[1:] if p[0] == "-" else " + " + p for p in pieces[1:]
    )


def render_element(el: Element) -> str:
    terms = _sorted_element(el)
    if el.unit:
        terms.append(("1", el.unit))
    return _join_terms(terms)


def render_tensor2(t: Tensor2) -> str:
    return _join_terms((f"{l} # {r}", c) for (l, r), c in _sorted_tensor(t))


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
    """Split on +/- at bracket depth 0; returns (sign, chunk) pairs.  Only
    a leading sign may have no term before it."""
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
        if depth == 0 and ch in "+-":
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


def _scalar_factor(f: str) -> QPoly | None:
    """The QPoly of a factor q, q^e or n; None for any other factor."""
    m = _QPOW_RE.match(f)
    if m:
        return QPoly.q_power(int(m.group(1) or 1))
    if re.fullmatch(r"\d+", f):
        return QPoly.const(int(f))
    return None


def _parse_term(family: str, chunk: str):
    """One term -> (QPoly coefficient, basis object or UNIT).

    A term with no basis literal is a scalar multiple of the unit, so
    both `q*1` and a bare integer parse as unit terms.
    """
    coeff = QPoly.one()
    obj = UNIT
    for f in _split_factors(chunk):
        if not f:
            raise ValueError(f"empty factor in {chunk!r}")
        scalar = _scalar_factor(f)
        if scalar is not None:
            coeff = coeff * scalar
        elif obj is not UNIT:
            raise ValueError(f"two basis literals in {chunk!r}")
        else:
            obj = parse_basis(family, f)
    return coeff, obj


def parse_element(family: str, text: str) -> Element:
    parts = []
    for sign, chunk in _split_top(text.strip()):
        coeff, obj = _parse_term(family, chunk)
        parts.append((Element.slot(family, obj), -coeff if sign == "-" else coeff))
    return Element.sum(family, parts)


def parse_tensor2(family: str, text: str) -> Tensor2:
    text = text.strip()
    if text == "0":
        return Tensor2(family)
    parts = []
    for sign, chunk in _split_top(text):
        if " # " not in chunk:
            raise ValueError(f"tensor term without separator: {chunk!r}")
        lpart, rpart = chunk.split(" # ", 1)
        coeff, left = _parse_term(family, lpart.strip())
        rtext = rpart.strip()
        right = UNIT if rtext == "1" else parse_basis(family, rtext)
        pair = (Element.slot(family, left), Element.slot(family, right))
        parts.append((pair, -coeff if sign == "-" else coeff))
    return Tensor2.sum(family, parts)


def parse_qpoly(text: str) -> QPoly:
    out = QPoly.zero()
    for sign, chunk in _split_top(text.strip()):
        coeff = QPoly.one()
        for f in _split_factors(chunk):
            scalar = _scalar_factor(f)
            if scalar is None:
                raise ValueError(f"bad scalar factor {f!r}")
            coeff = coeff * scalar
        out = out + (-coeff if sign == "-" else coeff)
    return out


def element_to_json(el: Element) -> dict:
    return {
        "algebra": el.family,
        "terms": [{"basis": text, "coeff": to_pairs(c)} for text, c in _sorted_element(el)],
        "unit": to_pairs(el.unit),
    }


def tensor2_to_json(t: Tensor2) -> dict:
    return {
        "algebra": t.family,
        "terms": [
            {"left": l, "right": r, "coeff": to_pairs(c)}
            for (l, r), c in _sorted_tensor(t)
        ],
    }
