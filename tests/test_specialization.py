"""Specializing q is a ring map: every product and coproduct computed at an
integer q equals the symbolic one evaluated at that q.  q = -1 makes
coefficients cancel, q = 0 drops every positive power.  The symbolic side
is decoded from its value at q = X; the int kernels never decode, and
seven points are more than any q-degree in range, so they pin every
decoded coefficient."""

from __future__ import annotations

import pytest

from qtridend.algebras import ALGEBRA_NAMES, get_algebra
from qtridend.linear import KINDS, STAR

QS = (-2, -1, 0, 1, 2, 3, 5)
MAX_TOTAL = {"st": 5, "pqsym": 5, "mperm": 5, "tree": 5}


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_specialization_equals_evaluation(name):
    h = get_algebra(name)
    total = MAX_TOTAL[name]
    for n in range(1, total):
        for x in h.basis(n):
            for m in range(1, total - n + 1):
                for y in h.basis(m):
                    for kind in KINDS + (STAR,):
                        sym = h.product(kind, x, y)
                        for q in QS:
                            assert h.product(kind, x, y, q) == sym.eval_q(q), (kind, x, y, q)
    for n in range(1, total + 1):
        for x in h.basis(n):
            sym = h.coproduct(x)
            for q in QS:
                assert h.coproduct(x, q) == sym.eval_q(q), (x, q)
