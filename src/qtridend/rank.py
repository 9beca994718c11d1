"""Exact rank and nullspace of integer matrices over the rationals.

A matrix has one format: sparse rows {column: entry} and a column count;
kernel vectors are {column: entry} too.  The work is sparse Gauss-Jordan
elimination modulo a 61-bit prime p, and every answer is certified over
Q, never taken as probably right:

- the rank mod p is at most the rank over Q;
- each vector of the RREF kernel basis mod p is lifted to Q by rational
  reconstruction and checked to satisfy M.v = 0 exactly over Z.  The
  lifted vectors are independent (each is 1 on its own free column and 0
  on the others), so they bound the rank over Q from above by the rank
  mod p (Dixon, Numer. Math. 40, 1982).

With both bounds met, the free columns mod p are the free columns over Q,
and the lifted vectors are the rational RREF kernel basis itself.  When a
lift fails (p divides a minor the elimination needs, or an RREF entry is
too large to reconstruct), the second prime is tried, then Fraction
elimination, which alone builds a dense matrix: it is the exact fallback
and the reference the tests compare against.

Two orders keep the fill down, and neither changes a result:

- `_rref_mod` takes its rows shortest first, then rightmost leading
  column first.  The RREF of a matrix is unique, so the pivots and the
  kernel basis do not depend on the row order.
- `rational_rank` eliminates the columns in ascending nonzero count.
  Permuting the columns keeps the rank, and the certificate holds for
  any column order.  The order is applied as each row is reduced, so no
  permuted copy of the matrix is built.  `rational_nullspace` keeps the
  columns as given, since its RREF kernel basis is its output.

The check M.v = 0 runs over the rows once for the whole basis, which is
indexed by column, so no transposed copy of the matrix is built either.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

PRIMES = (2**61 - 1, 2**62 - 57)


class NotCertified(ArithmeticError):
    """A modular kernel basis failed to lift to an exact one."""


def rational_rank(rows: list[dict], ncols: int) -> int:
    """Rank over Q: the column count minus the certified nullity, with the
    columns eliminated in ascending nonzero count (any order certifies)."""
    counts = [0] * ncols
    for row in rows:
        for j in row:
            counts[j] += 1
    return ncols - len(_nullspace(rows, ncols, sorted(range(ncols), key=counts.__getitem__)))


def rational_nullspace(rows: list[dict], ncols: int) -> list[dict]:
    """Basis of the right kernel: the reduced row echelon kernel basis, one
    vector per free column, each scaled to integer entries with content 1
    and a positive entry on its free column."""
    return _nullspace(rows, ncols, range(ncols))


# rational_rank calls this, not rational_nullspace, so that each elimination
# is one call of exactly one of the two public routines
def _nullspace(rows: list[dict], ncols: int, order) -> list[dict]:
    for p in PRIMES:
        try:
            return modular_nullspace(rows, ncols, p, order)
        except NotCertified:
            pass
    return fraction_nullspace(rows, ncols)


def modular_nullspace(rows: list[dict], ncols: int, p: int, order=None) -> list[dict]:
    """A kernel basis found mod p, lifted and checked exactly; raises
    NotCertified when it does not lift.  The columns are eliminated in
    order (the given order when None), so the basis is the RREF kernel
    basis of the matrix with its columns in that order, each vector keyed
    by the original columns."""
    order = range(ncols) if order is None else order
    at = [0] * ncols
    for i, j in enumerate(order):
        at[j] = i
    pivots = _rref_mod(rows, ncols, p, at)
    bound = isqrt(p // 2)
    kernel = {f: {order[f]: 1} for f in range(ncols) if f not in pivots}
    for c, row in pivots.items():
        for f, x in row.items():
            if f != c:
                kernel[f][order[c]] = _lift(p - x, p, bound)
    basis = [_primitive(v) for v in kernel.values()]
    entries: dict = {}  # column -> [(index of a basis vector, its entry there)]
    for t, v in enumerate(basis):
        for j, x in v.items():
            entries.setdefault(j, []).append((t, x))
    for row in rows:
        image: dict = {}
        for j, x in row.items():
            for t, y in entries.get(j, ()):
                image[t] = image.get(t, 0) + x * y
        if any(image.values()):
            raise NotCertified(f"a kernel vector lifted from mod {p} fails M.v = 0")
    return basis


def _rref_mod(rows: list[dict], ncols: int, p: int, at) -> dict:
    """Reduced row echelon form mod p as {pivot column: row}, each row 1 at
    its pivot and 0 at every other pivot column, of the matrix whose column
    at[j] is column j of rows.

    Each row is reduced by its leading entry against the pivots so far, so
    the pivots are the leftmost ones, as in column-by-column elimination.
    The rows come shortest first, then rightmost leading column (of rows)
    first, so that early pivots are sparse and reduce few later rows.
    """
    pivots: dict = {}
    for row in sorted(filter(None, rows), key=lambda r: (len(r), -min(r))):
        r = {at[j]: x % p for j, x in row.items() if x % p}
        while r:
            c = min(r)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(r[c], -1, p)
                pivots[c] = {j: x * inv % p for j, x in r.items()}
                break
            _axpy(r, -r[c], prow, p)
        if len(pivots) == ncols:
            break
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for pc in [j for j in row if j != c and j in pivots]:
            _axpy(row, -row[pc], pivots[pc], p)
    return pivots


def _axpy(r: dict, a: int, prow: dict, p: int) -> None:
    """r += a * prow mod p, dropping entries that cancel."""
    for j, x in prow.items():
        y = (r.get(j, 0) + a * x) % p
        if y:
            r[j] = y
        else:
            del r[j]


def _lift(x: int, p: int, bound: int):
    """The rational n/d with n = x*d mod p and |n|, d at most bound."""
    if x <= bound:
        return x
    if p - x <= bound:
        return x - p
    r0, r1, s0, s1 = p, x, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        raise NotCertified(f"{x} has no rational reconstruction mod {p}")
    return Fraction(r1, s1)


def _primitive(v: dict) -> dict:
    """v scaled to integer entries with content 1, keeping its signs."""
    d = lcm(*(x.denominator for x in v.values()))
    ints = {j: int(x * d) for j, x in v.items()}
    g = gcd(*ints.values())
    return {j: x // g for j, x in ints.items()}


def fraction_nullspace(rows: list[dict], ncols: int) -> list[dict]:
    """The same kernel basis by dense Gauss-Jordan elimination over
    Fraction: the exact fallback, and the reference for the tests."""
    m = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row == len(m):
            break
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = {fc: Fraction(1)}
            for r, pc in enumerate(pivots):
                if m[r][fc]:
                    v[pc] = -m[r][fc]
            basis.append(_primitive(v))
    return basis
