"""The coefficient ring Z[q], held as integers by Kronecker substitution.

Every coefficient stored in an Element or a Tensor2 is a plain int: the
value at q = qval under a specialization, and for symbolic q (qval None)
the value p(X) of the polynomial p at q = X = 2^K, K = 64.  When every
coefficient of p is below X/2 in magnitude, the balanced base-X digits of
p(X) are the coefficients of p, so integer + and * are polynomial + and *
and symbolic q runs the specialized code at q = X.  Every identity the
harness checks is an equality of such ints, and if p(X) = 0 with every
coefficient of p below X/2, then p = 0.  (Kronecker 1882; Harvey,
J. Symb. Comp. 44, 2009.)

`X_POWERS` holds each X^e once, so a lone q^e filed by a family kernel is
one shared int; `q_scalar` and `q_power` give q and q^e under a qval.
`decode` reads the digits into a QPoly; `to_pairs`, `evaluate` (decode,
then Horner's rule) and the renders go through it, and decoding any
|c| < X/2 is the identity.  Only this module and `linear` know the format.

Why no true coefficient reaches X/2.  Let |E| be the sum of the
magnitudes of all true coefficients of an Element or Tensor2 (|q^k| = 1).
Then |A + B| <= |A| + |B|, a product of combinations is at most |A| |B|
times the largest |x o y| over the basis pairs it uses, and every
coefficient is at most the norm.
  1. A basis product files one q-monomial per output object and kind, so
     |x o y| counts them; a coproduct's coefficients are positive counts.
     Running every kernel on every basis pair of total degree N <= 6 (the
     harness's range) gives at most 175 (pqsym products at N = 6; the
     largest coproduct, trees at 6, has 78): each operation is below
     2^8, and rtilde = > + q. below 2^9.
  2. The deepest checks, `brace_relation_check` (n, m <= 2) and
     `check_gvq` (n <= 2) on degree-1 generators of norm 1, sum at most
     T < 2^10 nested products of depth d <= 4 per side: M(M(x; y1, y2);
     z1, z2) nests 2 + 2, and its right side sums 15 nestings of braces
     of at most 5 terms each.
  3. So every true coefficient is below 2^(9d) T <= 2^46 < 2^63 = X/2.
     After the default plan the largest digit in any memo is 25 and the
     largest exponent 3 (tests/test_acceptance.py checks < 2^32, <= 8).
For inputs with their own coefficients, `coefficient_ceiling` bounds
|x o y| at any degree, and the CLI refuses a symbolic request whose
bound reaches X/2.
"""

from __future__ import annotations

from operator import index

K = 64
X = 1 << K
HALF = X >> 1
MASK = X - 1
# The largest q exponent the grammar takes from its input.
MAX_EXPONENT = 64


class _Powers(dict):
    """X^e by exponent e >= 0, each made once and then shared."""

    def __missing__(self, e: int) -> int:
        if e < 0:
            raise ValueError("negative q exponent")
        p = self[e] = X**e
        return p


X_POWERS = _Powers()


def q_scalar(qval: int | None) -> int:
    """The scalar q under the specialization qval: X, or qval itself."""
    return X if qval is None else qval


def q_power(e: int, qval: int | None) -> int:
    """q^e under the specialization qval."""
    return X_POWERS[e] if qval is None else qval**e


def coefficient_ceiling(n: int) -> int:
    """A bound on |x o y| for a basis-level product of total degree n: it
    files at most one monomial per output object and kind, and no family
    has more outputs (of degree n, or n - 1 for mperm) than the (n+1)^(n-1)
    parking functions, so it is at most 3 (n+1)^(n-1) <= (n+1)^n."""
    return (n + 1) ** n


def _digits(p) -> dict[int, int]:
    """The exponent dict of a QPoly, or of the polynomial an int encodes."""
    return decode(p).m if isinstance(p, int) else p.m


class QPoly:
    """A polynomial in q with integer coefficients, by its exponent dict m.

    It is what `decode` returns, and `int(p)` encodes it, refusing a
    coefficient not below X/2.  Arithmetic is exact on the exponent dicts,
    whatever the size of the coefficients; an int operand stands for the
    polynomial it encodes (a constant when below X/2), and a QPoly equals
    and hashes like its encoding.
    """

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

    def __index__(self) -> int:
        """The encoding p(X), refused when a coefficient is not below X/2."""
        if any(abs(c) >= HALF for c in self.m.values()):
            raise ValueError(f"a coefficient of {self} is too large for symbolic q")
        return sum(c * X_POWERS[e] for e, c in self.m.items())

    def is_zero(self) -> bool:
        return not self.m

    def __bool__(self) -> bool:
        return bool(self.m)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = decode(other)
        return self.m == other.m if isinstance(other, QPoly) else NotImplemented

    def __hash__(self):
        return hash(sum(c * X_POWERS[e] for e, c in self.m.items()))

    def __add__(self, other) -> "QPoly":
        out = dict(self.m)
        for e, c in _digits(other).items():
            out[e] = out.get(e, 0) + c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly({e: -c for e, c in self.m.items()})

    def __sub__(self, other) -> "QPoly":
        return self + -QPoly(_digits(other))

    def __rsub__(self, other) -> "QPoly":
        return -self + other

    def __mul__(self, other) -> "QPoly":
        out: dict[int, int] = {}
        for e, c in _digits(other).items():
            for f, d in self.m.items():
                out[e + f] = out.get(e + f, 0) + c * d
        return QPoly(out)

    __rmul__ = __mul__

    def shift(self, e: int) -> "QPoly":
        """Multiply by q^e."""
        return self if e == 0 else QPoly({ex + e: c for ex, c in self.m.items()})

    def eval(self, q: int) -> int:
        """The value at the integer q, by Horner's rule."""
        acc = 0
        for e in range(self.degree(), -1, -1):
            acc = acc * q + self.m.get(e, 0)
        return acc

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


def decode(c: int) -> QPoly:
    """The polynomial whose value at X is c: its balanced base-X digits."""
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


def evaluate(c, q: int) -> int:
    """A symbolic coefficient (an int or a QPoly) at the integer q: decode,
    then Horner."""
    c = index(c)
    return c if -HALF < c < HALF else decode(c).eval(q)


def to_pairs(c, qval: int | None = None) -> list[list[int]]:
    """JSON form of a coefficient (an int or a QPoly): [exponent,
    coefficient] pairs sorted by exponent; a coefficient at an integer
    qval is the pair [0, c]."""
    c = index(c)
    if qval is not None or -HALF < c < HALF:
        return [[0, c]] if c else []
    return decode(c).to_pairs()


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


def join_terms(pieces: list) -> str:
    """Join rendered terms, each with its own leading - if negative, into
    one sum; 0 when there are none."""
    if not pieces:
        return "0"
    return pieces[0] + "".join(" - " + t[1:] if t[0] == "-" else " + " + t for t in pieces[1:])


def render_qpoly(p: QPoly) -> str:
    return join_terms([term_text(c, e) for e, c in sorted(p.m.items(), reverse=True)])
