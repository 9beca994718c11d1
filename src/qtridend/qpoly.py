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
`decode` reads the digits into a QPoly, the decoded view (an exponent
dict; the int is the one ring), in one pass that skips runs of zero
digits.  `digits` lists a coefficient's nonzero (exponent, digit) pairs,
which `to_pairs`, `evaluate` and the renders read; `term_prefix` is the
one monomial formatter.  Only this module and `linear` know the format.

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


def _exponents(p) -> dict[int, int]:
    """The exponent dict of a QPoly, or of the polynomial an int encodes."""
    return decode(p).m if isinstance(p, int) else p.m


class QPoly:
    """The decoded view of a coefficient, as `decode` returns it: the
    polynomial in q by its zero-free exponent dict m.  `int(p)` encodes
    it, refusing a coefficient not below X/2, and it equals and hashes
    like its encoding."""

    __slots__ = ("m",)

    def __init__(self, m: dict[int, int] | None = None):
        self.m = {e: c for e, c in (m or {}).items() if c}

    def __index__(self) -> int:
        """The encoding p(X), refused when a coefficient is not below X/2."""
        if any(abs(c) >= HALF for c in self.m.values()):
            raise ValueError(f"a coefficient of {self!r} is too large for symbolic q")
        return sum(c * X_POWERS[e] for e, c in self.m.items())

    def __bool__(self) -> bool:
        return bool(self.m)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = decode(other)
        return self.m == other.m if isinstance(other, QPoly) else NotImplemented

    def __hash__(self):
        return hash(sum(c * X_POWERS[e] for e, c in self.m.items()))

    # + and * are kept only because the benchmark's tracer counts
    # QPoly.__add__ and QPoly.__mul__ and checks that __rmul__ is __mul__
    # (perfbench/tracer.py); they go when those counters do (ROADMAP
    # item 1).  An int operand stands for the polynomial it encodes.
    def __add__(self, other) -> "QPoly":
        out = dict(self.m)
        for e, c in _exponents(other).items():
            out[e] = out.get(e, 0) + c
        return QPoly(out)

    def __mul__(self, other) -> "QPoly":
        out: dict[int, int] = {}
        for e, c in _exponents(other).items():
            for f, d in self.m.items():
                out[e + f] = out.get(e + f, 0) + c * d
        return QPoly(out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"QPoly({self.m!r})"


def decode(c: int) -> QPoly:
    """The polynomial whose value at X is c: its balanced base-X digits,
    filed by ascending exponent."""
    m = {}
    e = 0
    while c:
        # skip the zero digits below the lowest set bit of c
        z = ((c & -c).bit_length() - 1) // K
        c >>= K * z
        d = c & MASK
        if d >= HALF:
            d -= X
        m[e + z] = d
        c = (c - d) >> K
        e += z + 1
    return QPoly(m)


def digits(c, qval: int | None = None) -> list[tuple[int, int]]:
    """The nonzero (exponent, digit) pairs of a coefficient (an int or a
    QPoly), exponents ascending: the one pair (0, c) under an int qval or
    when |c| < X/2 (none for 0), else the digits `decode` files."""
    c = index(c)
    if qval is not None or -HALF < c < HALF:
        return [(0, c)] if c else []
    return list(decode(c).m.items())


def evaluate(c, q: int) -> int:
    """A symbolic coefficient (an int or a QPoly) at the integer q."""
    return sum(d * q**e for e, d in digits(c))


def to_pairs(c, qval: int | None = None) -> list[list[int]]:
    """JSON form of a coefficient (an int or a QPoly): [exponent,
    coefficient] pairs sorted by exponent; a coefficient at an integer
    qval is the pair [0, c]."""
    return [[e, d] for e, d in digits(c, qval)]


def term_prefix(c: int, e: int) -> str:
    """The text that a term c*q^e puts before its basis text: "" and "-"
    for c = 1 and -1 at e = 0, else c*q^e and a *, as in "3*", "q*",
    "-q^2*" or "3*q^2*"; only a negative c gives it a leading sign."""
    if e:
        q = "q" if e == 1 else f"q^{e}"
        return (q if c == 1 else "-" + q if c == -1 else f"{c}*{q}") + "*"
    return "" if c == 1 else "-" if c == -1 else f"{c}*"

