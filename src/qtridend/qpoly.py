"""Exact univariate polynomials in the parameter q with integer coefficients.

A polynomial is stored sparsely as a dict mapping exponent -> coefficient,
with zero coefficients never stored.  Coefficients are arbitrary-precision
Python ints, so every computation in the package is exact.

Every coefficient stored in an Element or a Tensor2 has one canonical
form: a constant is a plain nonzero Python int, and a QPoly holds only
polynomials with a positive power of q.  So every coefficient under a
specialization qval is an int.  `_canon` turns a zero-free exponent dict
into that form; `evaluate` and `to_pairs` read either form.  QPoly itself
stays closed (QPoly op QPoly is a QPoly, constant or not); it mixes with
ints in +, - and *, and a constant QPoly equals and hashes like its int.

The QPoly class is immutable by convention: no method mutates self, and the
internal dict is never handed out for writing.  `_canon` interns the
single powers q^e (e >= 1) that most sums of the family kernels reduce
to: each exponent has one shared QPoly in `_Q_POWERS`, so equal
coefficients are usually the same object and compare by identity, and
the module caches hold one object per power instead of one per term.
The table is bounded by the largest degree in use.  Only this module and
`linear` read the exponent dict or branch on a specialization qval (None
for symbolic q, an int for q set to that value); every other module goes
through QPoly methods, the ring-neutral helpers, `q_scalar` and the
constructors of `linear`.  The public constructor drops zero coefficients;
results built here and in `linear` from fresh zero-free dicts skip that
pass through `_adopt` or `_canon`.
"""

from __future__ import annotations


class QPoly:
    __slots__ = ("m",)

    def __init__(self, m: dict[int, int] | None = None):
        self.m = {e: c for e, c in (m or {}).items() if c}

    @classmethod
    def const(cls, c: int) -> "QPoly":
        return cls({0: c})

    @classmethod
    def q_power(cls, e: int, c: int = 1) -> "QPoly":
        if e < 0:
            raise ValueError("negative q exponent")
        return cls({e: c})

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls({0: 1})

    def is_zero(self) -> bool:
        return not self.m

    def __bool__(self) -> bool:
        return bool(self.m)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.m == ({0: other} if other else {})
        if isinstance(other, QPoly):
            return self.m == other.m
        return NotImplemented

    def __hash__(self):
        m = self.m
        if len(m) == 1 and 0 in m:
            return hash(m[0])
        return hash(frozenset(m.items())) if m else hash(0)

    def __add__(self, other) -> "QPoly":
        out = dict(self.m)
        acc_add(out, _raw(other))
        return _adopt(out)

    __radd__ = __add__

    def __sub__(self, other) -> "QPoly":
        out = dict(self.m)
        acc_add(out, _raw(other), scale=-1)
        return _adopt(out)

    def __rsub__(self, other: int) -> "QPoly":
        return -self + other

    def __neg__(self) -> "QPoly":
        return _adopt({e: -c for e, c in self.m.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return _adopt({e: c * other for e, c in self.m.items()} if other else {})
        out: dict[int, int] = {}
        acc_mul_add(out, self.m, other.m)
        return _adopt(out)

    __rmul__ = __mul__

    def shift(self, e: int) -> "QPoly":
        """Multiply by q^e."""
        if e == 0:
            return self
        return _adopt({ex + e: c for ex, c in self.m.items()})

    def eval(self, q: int):
        return qp_eval(self.m, q)

    def degree(self) -> int:
        """Largest exponent, or -1 for the zero polynomial."""
        return max(self.m) if self.m else -1

    def to_pairs(self) -> list[list[int]]:
        """JSON form: [exponent, coefficient] pairs sorted by exponent."""
        return [[e, c] for e, c in sorted(self.m.items())]

    @classmethod
    def from_pairs(cls, pairs) -> "QPoly":
        out: dict[int, int] = {}
        for e, c in pairs:
            out[int(e)] = out.get(int(e), 0) + int(c)
        return cls(out)

    def __str__(self) -> str:
        return render_qpoly(self)

    def __repr__(self) -> str:
        return f"QPoly({self.m!r})"


def _adopt(m: dict[int, int]) -> QPoly:
    """A QPoly that takes m as it is: m must be fresh and zero-free."""
    p = object.__new__(QPoly)
    p.m = m
    return p


def _raw(c) -> dict[int, int]:
    """The exponent dict of an int or a QPoly, for reading only."""
    return {0: c} if isinstance(c, int) else c.m


# One shared QPoly q^e per exponent e >= 1 met so far; bounded by the
# largest degree in use.
_Q_POWERS: dict[int, QPoly] = {}


def _canon(m: dict[int, int]):
    """The canonical coefficient of a zero-free exponent dict that is never
    mutated afterwards: an int when m is constant (0 when empty), the
    interned q^e when m is {e: 1}, else a QPoly adopting m."""
    if len(m) == 1:
        ((e, c),) = m.items()
        if not e:
            return c
        if c == 1:
            p = _Q_POWERS.get(e)
            if p is None:
                p = _Q_POWERS[e] = _adopt({e: 1})
            return p
    return _adopt(m) if m else 0


def evaluate(c, q: int) -> int:
    """An int or QPoly coefficient at the integer q."""
    return c if isinstance(c, int) else c.eval(q)


def to_pairs(c) -> list[list[int]]:
    """JSON form of an int or QPoly coefficient: [exponent, coefficient]
    pairs sorted by exponent, [[0, c]] for a nonzero int c."""
    if isinstance(c, int):
        return [[0, c]] if c else []
    return c.to_pairs()


def q_scalar(qval: int | None):
    """The scalar q itself, under the specialization qval: the QPoly q,
    or the int qval."""
    return QPoly.q_power(1) if qval is None else qval


def qp_eval(m: dict[int, int], q: int) -> int:
    """Horner evaluation over the sparse exponent list."""
    if not m:
        return 0
    acc = 0
    prev = None
    for e in sorted(m, reverse=True):
        if prev is not None:
            acc *= q ** (prev - e)
        acc += m[e]
        prev = e
    return acc * q ** prev


def acc_add(dst: dict[int, int], src: dict[int, int], shift: int = 0, scale: int = 1) -> None:
    """dst += q^shift * scale * src, in place on a raw exponent dict."""
    for e, c in src.items():
        k = e + shift
        nc = dst.get(k, 0) + c * scale
        if nc:
            dst[k] = nc
        elif k in dst:
            del dst[k]


def acc_mul_add(dst: dict[int, int], a: dict[int, int], b: dict[int, int]) -> None:
    """dst += a * b, in place on a raw exponent dict."""
    for ea, ca in a.items():
        for eb, cb in b.items():
            k = ea + eb
            nc = dst.get(k, 0) + ca * cb
            if nc:
                dst[k] = nc
            elif k in dst:
                del dst[k]


def term_text(c: int, e: int) -> str:
    """Render one monomial c*q^e without a leading sign for c > 0."""
    if e == 0:
        return str(c)
    q = "q" if e == 1 else f"q^{e}"
    if c == 1:
        return q
    if c == -1:
        return f"-{q}"
    return f"{c}*{q}"


def render_qpoly(p: QPoly) -> str:
    if not p.m:
        return "0"
    parts = []
    for e, c in sorted(p.m.items(), reverse=True):
        t = term_text(c, e)
        if not parts:
            parts.append(t)
        elif t.startswith("-"):
            parts.append("- " + t[1:])
        else:
            parts.append("+ " + t)
    return " ".join(parts)
