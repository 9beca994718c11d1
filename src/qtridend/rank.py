"""Exact rank and nullspace of integer matrices over the rationals.

The work is sparse Gauss-Jordan elimination modulo a 61-bit prime p, and
every answer is certified over Q, never taken as probably right:

- the rank mod p is at most the rank over Q;
- each vector of the RREF kernel basis mod p is lifted to Q by rational
  reconstruction and checked to satisfy M.v = 0 exactly over Z.  The
  lifted vectors are independent (each is 1 on its own free column and 0
  on the others), so they bound the rank over Q from above by the rank
  mod p (Dixon, Numer. Math. 40, 1982).

With both bounds met, the free columns mod p are the free columns over Q,
and the lifted vectors are the rational RREF kernel basis itself.  When a
lift fails (p divides a minor the elimination needs, or an RREF entry is
too large to reconstruct), the second prime is tried, then the dense
Fraction elimination, which is also the reference the tests compare
against.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

PRIMES = (2**61 - 1, 2**62 - 57)


class NotCertified(ArithmeticError):
    """A modular kernel basis failed to lift to an exact one."""


def rational_rank(rows: list[list[int]]) -> int:
    """Rank over Q: the column count minus the certified nullity."""
    ncols = len(rows[0]) if rows else 0
    return ncols - len(_nullspace(rows, ncols))


def rational_nullspace(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of the right kernel: the reduced row echelon kernel basis, one
    vector per free column, each scaled to integer entries with content 1
    and a positive entry on its free column."""
    return _nullspace(rows, ncols)


# rational_rank calls this, not rational_nullspace, so that each elimination
# is one call of exactly one of the two public routines
def _nullspace(rows: list[list[int]], ncols: int) -> list[list[int]]:
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    for p in PRIMES:
        try:
            return modular_nullspace(sparse, ncols, p)
        except NotCertified:
            pass
    return fraction_nullspace(rows, ncols)


def modular_nullspace(rows: list[dict], ncols: int, p: int) -> list[list[int]]:
    """The kernel basis of sparse integer rows ({column: entry}) found mod p,
    lifted and checked exactly; raises NotCertified when it does not lift."""
    pivots = _rref_mod(rows, ncols, p)
    bound = isqrt(p // 2)
    kernel = {f: {f: 1} for f in range(ncols) if f not in pivots}
    for c, row in pivots.items():
        for f, x in row.items():
            if f != c:
                kernel[f][c] = _lift(p - x, p, bound)
    columns: list[list] = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns[j].append((i, x))
    basis = []
    for v in kernel.values():
        v = _primitive(v)
        image: dict = {}
        for j, vj in v.items():
            for i, x in columns[j]:
                image[i] = image.get(i, 0) + x * vj
        if any(image.values()):
            raise NotCertified(f"a kernel vector lifted from mod {p} fails M.v = 0")
        basis.append([v.get(j, 0) for j in range(ncols)])
    return basis


def _rref_mod(rows: list[dict], ncols: int, p: int) -> dict:
    """Reduced row echelon form mod p as {pivot column: row}, each row 1 at
    its pivot and 0 at every other pivot column.

    Each row is reduced by its leading entry against the pivots so far, so
    the pivots are the leftmost ones, as in column-by-column elimination.
    """
    pivots: dict = {}
    for row in sorted(rows, key=len):
        r = {j: x % p for j, x in row.items() if x % p}
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


def fraction_nullspace(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """The same kernel basis by dense Gauss-Jordan elimination over
    Fraction: the exact fallback, and the reference for the tests."""
    m = [[Fraction(x) for x in row] for row in rows]
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
            v = _primitive(v)
            basis.append([v.get(j, 0) for j in range(ncols)])
    return basis
