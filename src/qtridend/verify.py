"""Verification suites: axioms, bialgebra laws, morphisms, oracle
equivalence, brace/projector properties, golden examples, dimensions.

Every suite returns a plain report dict

    {"suite", "params", "checks", "failures", "ok"}

with "failures" a capped list of human-readable strings.  A failure on
basis objects names its witnesses in the input grammar (`render_basis`),
so they can be pasted into `qtridend eval`: `<message> at (1,2)` for one
object, `<message> at x=(1,2) y=(1)` for named ones.  run_plan executes
a list of (suite, kwargs) tasks, optionally across a process pool, and
keeps the plan order in the output.  All suites are deterministic: bases
are enumerated in a fixed order and every check is an exact equality of
Elements, tensors, or integers.
"""

from __future__ import annotations

import json
import time
from itertools import combinations
from pathlib import Path

from .algebras import (
    get_algebra,
    el_coproduct,
    el_product,
    el_star,
    compat_holds,
)
from .brace import (
    brace,
    brace_relation_check,
    check_gvq,
    e_tri,
    e_tri_basis,
    e_tri_oracle,
    filtration_degree,
    omega_coproduct_check,
    primitive_kernel_basis,
    primitive_rank,
    reconstruct,
)
from .grammar import (
    parse_basis,
    parse_mperm,
    parse_word,
    render_basis,
    render_element,
    render_tensor2,
)
from .linear import (
    KINDS,
    LEFT,
    MIDDLE,
    RIGHT,
    STAR,
    UNIT,
    Element,
    Tensor2,
    bilinear_extend,  # noqa: F401  (perfbench checks that its tracer rebinds it here)
    is_coassociative,
    tensor_of,
)
from .mperm import (
    _scan_mperms,
    lift_word,
    mperm_coproduct,
    mperm_product,
    mperm_product_oracle,
    mpermutations,
    mpermutations_filter,
    phi,
    phi_element,
    std_m,
)
from .pqsym import alpha, iota, pf_coproduct, pf_product, pf_product_oracle, pirr_count
from .qpoly import q_scalar
from .st import _scan_words  # noqa: F401  (perfbench's tracer finds the word scan here)
from .st import st_coproduct, st_product
from .trees import corolla, enumerate_trees
from .words import (
    is_parking,
    is_surjection,
    ndpf,
    parking_functions,
    run_compress,
    std,
    surjections,
)

_FAIL_CAP = 20


class _Tally:
    """Counts checks and keeps the first few failure messages."""

    def __init__(self):
        self.checks = 0
        self.failures: list[str] = []
        self.dropped = 0

    def check(self, ok: bool, msg) -> bool:
        self.checks += 1
        if not ok:
            if len(self.failures) < _FAIL_CAP:
                self.failures.append(msg() if callable(msg) else msg)
            else:
                self.dropped += 1
        return ok

    def check_at(self, ok: bool, msg: str, family: str, /, *obj, **named) -> bool:
        """`check` whose failure names its witnesses, basis objects of
        family rendered by `render_basis` only then: one object gives
        `msg at (1,2)`, named ones give `msg at x=(1,2) y=(1)`."""
        if ok:
            self.checks += 1
            return True
        witness = [render_basis(family, o) for o in obj]
        witness += [f"{k}={render_basis(family, o)}" for k, o in named.items()]
        return self.check(False, f"{msg} at {' '.join(witness)}")

    def report(self, suite: str, params: dict) -> dict:
        failures = list(self.failures)
        if self.dropped:
            failures.append(f"... and {self.dropped} more failures")
        return {
            "suite": suite,
            "params": params,
            "checks": self.checks,
            "failures": failures,
            "ok": not failures,
        }


def _degree_splits(budget: int, parts: int):
    """Compositions of at most budget into the given number of parts."""
    if parts == 1:
        yield from ((n,) for n in range(1, budget + 1))
        return
    for first in range(1, budget - parts + 2):
        for rest in _degree_splits(budget - first, parts - 1):
            yield (first,) + rest


# ------------------------------------------------------------- axioms

_RELATIONS = (
    ("(a<b)<c = a<(b*c)", (LEFT, LEFT), (LEFT, STAR)),
    ("(a>b)<c = a>(b<c)", (RIGHT, LEFT), (RIGHT, LEFT)),
    ("(a*b)>c = a>(b>c)", (STAR, RIGHT), (RIGHT, RIGHT)),
    ("(a.b).c = a.(b.c)", (MIDDLE, MIDDLE), (MIDDLE, MIDDLE)),
    ("(a>b).c = a>(b.c)", (RIGHT, MIDDLE), (RIGHT, MIDDLE)),
    ("(a<b).c = a.(b>c)", (LEFT, MIDDLE), (MIDDLE, RIGHT)),
    ("(a.b)<c = a.(b<c)", (MIDDLE, LEFT), (MIDDLE, LEFT)),
    ("(a*b)*c = a*(b*c)", (STAR, STAR), (STAR, STAR)),
)


def verify_axioms(algebra: str, max_total_degree: int, qval=None) -> dict:
    """All seven defining relations plus associativity of the total
    product, on every ordered basis triple within the degree budget."""
    h = get_algebra(algebra)
    t = _Tally()
    for n1, n2, n3 in _degree_splits(max_total_degree, 3):
        b1, b2, b3 = h.basis(n1), h.basis(n2), h.basis(n3)
        for x in b1:
            a = Element.basis(algebra, x)
            for y in b2:
                b = Element.basis(algebra, y)
                for z in b3:
                    c = Element.basis(algebra, z)
                    for name, (inner_l, outer_l), (outer_r, inner_r) in _RELATIONS:
                        ab = el_product(h, inner_l, a, b, qval)
                        bc = el_product(h, inner_r, b, c, qval)
                        lhs = el_product(h, outer_l, ab, c, qval)
                        rhs = el_product(h, outer_r, a, bc, qval)
                        t.check_at(lhs == rhs, f"{name} fails", algebra, a=x, b=y, c=z)
    return t.report(
        "axioms",
        {"algebra": algebra, "max_total_degree": max_total_degree, "q": qval},
    )


# ---------------------------------------------------------- bialgebra


def verify_bialgebra(
    algebra: str,
    max_pair_degree: int,
    max_coassoc_degree: int,
    qval=None,
) -> dict:
    """Coproduct compatibility with the three partial products, counit
    laws, and coassociativity, within the degree budgets."""
    h = get_algebra(algebra)
    t = _Tally()
    one = Element.unit_element(algebra)
    t.check(
        el_coproduct(h, one, qval) == tensor_of(one, one),
        "Delta(1) != 1 (x) 1",
    )
    cop = lambda o: h.coproduct(o, qval)
    for n in range(1, max_coassoc_degree + 1):
        for x in h.basis(n):
            d = cop(x)
            ex = Element.basis(algebra, x)
            t.check_at(d.counit("left") == ex, "left counit law fails", algebra, x)
            t.check_at(d.counit("right") == ex, "right counit law fails", algebra, x)
            t.check_at(is_coassociative(d, cop), "coassociativity fails", algebra, x)
    mismatch = [f"Delta(x {kind} y) mismatch" for kind in KINDS]
    for n1, n2 in _degree_splits(max_pair_degree, 2):
        for x in h.basis(n1):
            for y in h.basis(n2):
                for msg, holds in zip(mismatch, compat_holds(h, x, y, qval)):
                    t.check_at(holds, msg, algebra, x=x, y=y)
    return t.report(
        "bialgebra",
        {
            "algebra": algebra,
            "max_pair_degree": max_pair_degree,
            "max_coassoc_degree": max_coassoc_degree,
            "q": qval,
        },
    )


# ---------------------------------------------------------- morphisms


def _map_element(el: Element, fn, out_family: str) -> Element:
    """Push an Element through a basis-level linear map."""
    parts = [(fn(o), c) for o, c in el.terms.items()]
    if el.unit:
        parts.append((Element.unit_element(out_family), el.unit))
    return Element.sum(out_family, parts)


def verify_morphisms(max_degree: int = 4, alpha_inj_degree: int = 5, qval=None) -> dict:
    """The embedding into parking functions and the projection onto big
    multipermutations respect products and coproducts; the plain
    inclusion of surjective words does not."""
    st_h = get_algebra("st")
    pq_h = get_algebra("pqsym")
    mm_h = get_algebra("mperm")
    t = _Tally()
    for n1, n2 in _degree_splits(max_degree, 2):
        for f in surjections(n1):
            af = alpha(f)
            pf = phi_element(f)
            for g in surjections(n2):
                ag = alpha(g)
                pg = phi_element(g)
                for kind in KINDS:
                    fg = st_product(kind, f, g, qval)
                    ok = _map_element(fg, alpha, "pqsym") == el_product(pq_h, kind, af, ag, qval)
                    t.check_at(ok, f"alpha does not respect {kind}", "st", f=f, g=g)
                    ok = _map_element(fg, phi_element, "mperm") == el_product(mm_h, kind, pf, pg, qval)
                    t.check_at(ok, f"phi does not respect {kind}", "st", f=f, g=g)
    for n in range(1, max_degree + 1):
        for f in surjections(n):
            d, af, pf = st_coproduct(f), alpha(f), phi_element(f)
            ok = d.map_slots(alpha, alpha, "pqsym") == el_coproduct(pq_h, af, qval)
            t.check_at(ok, "alpha does not respect Delta", "st", f)
            ok = d.map_slots(phi_element, phi_element, "mperm") == el_coproduct(mm_h, pf, qval)
            t.check_at(ok, "phi does not respect Delta", "st", f)

    # injectivity: images have disjoint supports, each marked by f itself
    for n in range(1, alpha_inj_degree + 1):
        for f in surjections(n):
            sup = set(alpha(f).terms)
            t.check(
                f in sup and all(std(hw) == f for hw in sup),
                lambda f=f: f"alpha image of {render_basis('st', f)} is not marked by it",
            )

    # surjectivity: the block-index word is an explicit preimage
    for n in range(1, max_degree + 1):
        for w in mpermutations(n):
            word = [0] * n
            for j, blk in enumerate(w, start=1):
                for v in blk:
                    word[v - 1] = j
            word_t = tuple(word)
            t.check(
                is_surjection(word_t) and phi(word_t) == w,
                lambda w=w: f"block-index preimage fails for {render_basis('mperm', w)}",
            )

    # on permutations the unweighted inclusion coincides with alpha
    for n in range(1, max_degree + 1):
        for f in surjections(n):
            if max(f) != len(f):
                continue
            t.check_at(iota(f) == alpha(f), "iota and alpha disagree", "st", f)

    # expected failure: iota is not a coalgebra morphism at (1,1,2)
    w = (1, 1, 2)
    lhs = st_coproduct(w).map_slots(iota, iota, "pqsym")
    rhs = el_coproduct(pq_h, iota(w), qval)
    t.check(lhs != rhs, "iota unexpectedly respects Delta at (1,1,2)")
    t.check(
        pf_coproduct(w).interior().is_zero(),
        "(1,1,2) is not primitive among parking functions",
    )
    t.check(
        not st_coproduct(w).interior().is_zero(),
        "(1,1,2) is primitive among surjective words",
    )
    return t.report(
        "morphisms",
        {"max_degree": max_degree, "alpha_inj_degree": alpha_inj_degree, "q": qval},
    )


# ------------------------------------------------------------ oracles


def verify_oracles(
    st_max: int = 6,
    pqsym_max: int = 6,
    mperm_max: int = 5,
    pf_coproduct_max: int = 5,
    concat_max: int = 4,
    qval=None,
) -> dict:
    """Fast product routes against one-pass brute-force scans, the
    positional coproduct of parking functions against a subset-split
    scan, and the plain concatenation product against the q=1 scan."""
    t = _Tally()

    for name, budget in (("st", st_max), ("pqsym", pqsym_max), ("mperm", mperm_max)):
        h = get_algebra(name)
        disagrees = [(kind, f"{name} {kind} disagrees with scan") for kind in (*KINDS, STAR)]
        for total in range(2, budget + 1):
            scan = h.scan(total)
            for n in range(1, total):
                for x in h.basis(n):
                    for y in h.basis(total - n):
                        monos = scan[(x, y)]
                        for kind, msg in disagrees:
                            want = Element.from_monomials(name, monos[kind], qval)
                            t.check_at(h.product(kind, x, y, qval) == want, msg, name, x=x, y=y)

    # positional coproduct of parking functions vs all position subsets
    for n in range(1, pf_coproduct_max + 1):
        for f in parking_functions(n):
            terms: dict = {(UNIT, f): 1, (f, UNIT): 1}
            ok_unique = True
            for j in range(1, n):
                found = 0
                for pos in combinations(range(n), j):
                    left = tuple(f[i] for i in pos)
                    rest = [f[i] for i in range(n) if i not in pos]
                    if any(v <= j for v in rest):
                        continue
                    right = tuple(v - j for v in rest)
                    if is_parking(left) and is_parking(right):
                        found += 1
                        terms[(left, right)] = 1
                ok_unique = ok_unique and found <= 1
            t.check_at(ok_unique, "coproduct split not unique", "pqsym", f)
            ok = pf_coproduct(f) == Tensor2("pqsym", terms)
            t.check_at(ok, "pqsym coproduct disagrees with subset scan", "pqsym", f)

    # concatenation product: the total product at q=1 against the q=1 scan
    for total in range(2, concat_max + 1):
        scan = _scan_mperms(total)
        for n in range(1, total):
            for B in mpermutations(n):
                for D in mpermutations(total - n):
                    want = Element.from_monomials("mperm", scan[(B, D)][STAR], 1)
                    ok = mperm_product(STAR, B, D, 1) == want
                    t.check_at(ok, "concatenation product disagrees", "mperm", B=B, D=D)
    return t.report(
        "oracles",
        {
            "st_max": st_max,
            "pqsym_max": pqsym_max,
            "mperm_max": mperm_max,
            "pf_coproduct_max": pf_coproduct_max,
            "concat_max": concat_max,
            "q": qval,
        },
    )


# -------------------------------------------------------------- brace


def verify_brace(max_degree: int = 4, qs=(0, 1, 5), qval=None) -> dict:
    """Projector identities, brace and distributive laws on small grids,
    coproducts of omega words, and closure of primitives."""
    t = _Tally()
    for name in ("st", "pqsym", "tree", "mperm"):
        h = get_algebra(name)
        not_idempotent = f"{name}: projector not idempotent"
        not_alternating = f"{name}: projector disagrees with alternating sum"
        not_reconstructed = f"{name}: reconstruction fails"
        for n in range(1, max_degree + 1):
            for o in h.basis(n):
                x = Element.basis(name, o)
                e = e_tri_basis(h, o, qval)
                t.check_at(e_tri(h, e, qval) == e, not_idempotent, name, o)
                t.check_at(e_tri_oracle(h, x, qval) == e, not_alternating, name, o)
                t.check_at(reconstruct(h, x, qval) == x, not_reconstructed, name, o)
        for n1, n2 in _degree_splits(max_degree, 2):
            for y in h.basis(n1):
                ey = Element.basis(name, y)
                for z in h.basis(n2):
                    prod = el_product(h, RIGHT, ey, Element.basis(name, z), qval)
                    t.check(
                        e_tri(h, prod, qval).is_zero(),
                        lambda name=name, y=y, z=z: (
                            f"{name}: projector does not kill"
                            f" {render_basis(name, y)} > {render_basis(name, z)}"
                        ),
                    )
        gen = Element.basis(name, h.basis(1)[0])
        for n in range(3):
            for m in range(3):
                t.check(
                    brace_relation_check(h, gen, [gen] * n, [gen] * m, qval),
                    f"{name}: brace relation fails at n={n} m={m}",
                )
            t.check(
                check_gvq(h, gen, gen, [gen] * n, qval),
                f"{name}: distributive law fails at n={n}",
            )
        t.check(
            omega_coproduct_check(h, [gen, gen], qval),
            f"{name}: omega coproduct identity fails on two generators",
        )
        t.check(
            omega_coproduct_check(h, [gen, gen, gen], qval),
            f"{name}: omega coproduct identity fails on three generators",
        )
        for q in qs:
            kernels = {
                n: primitive_kernel_basis(h, n, q)
                for n in range(1, max_degree)
            }
            for n1, n2 in _degree_splits(max_degree, 2):
                for p in kernels[n1]:
                    for r in kernels[n2]:
                        dot = el_product(h, MIDDLE, p, r, q)
                        t.check(
                            el_coproduct(h, dot, q).interior().is_zero(),
                            lambda name=name, q=q, n1=n1, n2=n2: (
                                f"{name}: primitives not closed under . at"
                                f" q={q} degrees {n1},{n2}"
                            ),
                        )
                        br = brace(h, p, [r], q)
                        t.check(
                            el_coproduct(h, br, q).interior().is_zero(),
                            lambda name=name, q=q, n1=n1, n2=n2: (
                                f"{name}: primitives not closed under brace at"
                                f" q={q} degrees {n1},{n2}"
                            ),
                        )

    # pinned instances in the surjective-word and tree algebras
    st_h = get_algebra("st")
    one = Element.basis("st", (1,))
    m11 = brace(st_h, one, [one])
    expected = (
        Element.basis("st", (1, 1)).scale(q_scalar(None))
        + Element.basis("st", (1, 2))
        - Element.basis("st", (2, 1))
    )
    t.check(m11 == expected, "M_11((1);(1)) has the wrong value")
    t.check(brace(st_h, expected, []) == expected, "M_10 is not the identity")
    t.check(
        e_tri_basis(st_h, (1, 1)) == Element.basis("st", (1, 1)),
        "projector moves the primitive (1,1)",
    )
    t.check(e_tri_basis(st_h, (1, 2)).is_zero(), "projector keeps (1,2)")
    t.check(
        e_tri_basis(st_h, (2, 1))
        == Element.basis("st", (2, 1)) - Element.basis("st", (1, 2)),
        "projector wrong at (2,1)",
    )
    t.check(
        filtration_degree(st_h, Element.basis("st", (1, 1))) == 1,
        "(1,1) should sit in filtration degree 1",
    )
    t.check(
        filtration_degree(st_h, Element.basis("st", (1, 2))) == 2,
        "(1,2) should sit in filtration degree 2",
    )
    tr_h = get_algebra("tree")
    t.check(
        filtration_degree(tr_h, Element.basis("tree", corolla(2))) == 1,
        "the 3-leaf corolla should be primitive",
    )
    t.check(
        all(primitive_rank(st_h, 1, q) == 1 for q in qs),
        "degree-1 surjective words should have projector rank 1",
    )
    t.check(
        primitive_rank(get_algebra("pqsym"), 2, 1) == pirr_count(2) == 2,
        "degree-2 parking rank should match the irreducible count",
    )
    prim11 = Element.basis("st", (1, 1))
    t.check(
        omega_coproduct_check(st_h, [prim11, prim11], qval),
        "omega coproduct identity fails on two copies of (1,1)",
    )
    return t.report("brace", {"max_degree": max_degree, "qs": list(qs), "q": qval})


# ------------------------------------------------------------- golden


def _golden_data() -> dict:
    path = Path(__file__).resolve().parent / "golden" / "golden.json"
    return json.loads(path.read_text())


def verify_golden() -> dict:
    """Pinned worked examples, each recomputed from the definitions and
    compared string-for-string against the stored rendering."""
    g = _golden_data()
    t = _Tally()

    sp = g["st_products"]
    f = parse_word(sp["f"])
    gw = parse_word(sp["g"])
    for kind, label in ((LEFT, "left"), (MIDDLE, "middle"), (RIGHT, "right")):
        t.check(
            render_element(st_product(kind, f, gw)) == sp[label],
            f"st {label} product of {sp['f']} and {sp['g']} drifted",
        )

    sc = g["st_coproduct"]
    t.check(
        render_tensor2(st_coproduct(parse_word(sc["f"]))) == sc["value"],
        "st coproduct example drifted",
    )

    pp = g["pqsym_products"]
    f = parse_word(pp["f"])
    gw = parse_word(pp["g"])
    oracle = pf_product_oracle(f, gw)
    for kind, label in ((LEFT, "left"), (MIDDLE, "middle"), (RIGHT, "right")):
        t.check(
            render_element(pf_product(kind, f, gw)) == pp[label],
            f"pqsym {label} product of {pp['f']} and {pp['g']} drifted",
        )
        t.check(
            render_element(oracle[kind]) == pp[label],
            f"pqsym {label} product oracle disagrees with stored value",
        )
    t.check(
        not is_parking((1, 5, 2, 4, 4)),
        "(1,5,2,4,4) must not be a parking function",
    )
    t.check(
        (1, 5, 2, 4, 4) not in pf_product(LEFT, f, gw).terms,
        "(1,5,2,4,4) must not appear in the left product",
    )

    pc = g["pqsym_coproduct"]
    t.check(
        render_tensor2(pf_coproduct(parse_word(pc["f"]))) == pc["value"],
        "pqsym coproduct example drifted",
    )

    t.check(
        render_basis("st", std(parse_word(g["std"]["input"]))) == g["std"]["value"],
        "standardization example drifted",
    )
    t.check(
        render_basis("mperm", std_m(parse_mperm(g["std_m"]["input"])))
        == g["std_m"]["value"],
        "block standardization example drifted",
    )
    t.check(
        render_basis("mperm", phi(parse_word(g["phi"]["input"])))
        == g["phi"]["value"],
        "fiber projection example drifted",
    )

    lf = g["lift"]
    fw = parse_word(lf["f"])
    hbar = parse_word(lf["hbar"])
    t.check(
        render_basis("st", run_compress(fw)) == lf["f_compressed"],
        "run compression of the lift example drifted",
    )
    t.check(
        render_basis("pqsym", lift_word(fw, hbar)) == lf["value"],
        "lift example drifted",
    )

    ms = g["mperm_star_q1"]
    B = parse_basis("mperm", ms["B"])
    D = parse_basis("mperm", ms["D"])
    star = mperm_product(STAR, B, D, 1)
    t.check(
        render_element(star) == ms["value"],
        "concatenation product example drifted",
    )
    mm_h = get_algebra("mperm")
    t.check(
        mperm_product_oracle(B, D, 1)[STAR] == star,
        "concatenation product disagrees with the brute-force scan",
    )
    t.check(
        el_star(mm_h, Element.basis("mperm", B), Element.basis("mperm", D), 1)
        == star,
        "concatenation product disagrees with the q=1 total product",
    )
    t.check(len(star.terms) == 13, "concatenation product term count drifted")
    for text in ms["forced_terms"]:
        w = parse_basis("mperm", text)
        t.check(
            star.coeff(w) == 1,
            f"forced term {text} missing from the concatenation product",
        )

    for entry in g["mperm_coproducts"]:
        B = parse_basis("mperm", entry["B"])
        t.check(
            render_tensor2(mperm_coproduct(B)) == entry["value"],
            f"mperm coproduct of {entry['B']} drifted",
        )
    return t.report("golden", {})


# --------------------------------------------------------------- dims

_EXPECTED_COUNTS = {
    "st": [1, 3, 13, 75, 541],
    "pqsym": [1, 3, 16, 125, 1296],
    "ndpf": [1, 2, 5, 14, 42],
    "tree": [1, 3, 11, 45, 197],
    "mperm": [1, 2, 8, 44, 308],
}

_EXPECTED_PIRR = [1, 2, 11, 92, 1014]

_EXPECTED_RANKS = {
    "st": [1, 2, 8, 48, 368],
    "pqsym": [1, 2, 11, 92, 1014],
    "tree": [1, 2, 6, 22, 90],
}

# the quotient is filtered, not graded: its projector ranks depend on q
_EXPECTED_MPERM_RANKS = {0: [1, 1, 5, 29, 217], 1: [1, 1, 5, 31, 235], 5: [1, 1, 5, 31, 235]}
_EXPECTED_MPERM_NULLITY = [1, 1, 4, 25, 198]


def dims_report(max_count_degree: int = 5, rank_degree: int = 4, qs=(0, 1, 5)) -> dict:
    """Basis counts, irreducible parking counts, and projector ranks,
    each checked against frozen expected values and cross-checked where
    an independent route exists.  The rank recursion reads the basis
    counts, so rank_degree may not pass max_count_degree."""
    if rank_degree > max_count_degree:
        raise ValueError(f"rank_degree {rank_degree} exceeds max_count_degree {max_count_degree}")
    t = _Tally()
    table: dict = {"counts": {}, "pirr": [], "ranks": {}, "nullity": {}}

    enumerators = dict(
        st=surjections, pqsym=parking_functions, ndpf=ndpf, tree=enumerate_trees, mperm=mpermutations
    )
    for name, fn in enumerators.items():
        got = [len(fn(n)) for n in range(1, max_count_degree + 1)]
        table["counts"][name] = got
        t.check(
            got == _EXPECTED_COUNTS[name][:max_count_degree],
            f"{name} basis counts drifted: {got}",
        )
    dual = [len(mpermutations_filter(n)) for n in range(1, max_count_degree + 1)]
    t.check(
        dual == table["counts"]["mperm"],
        f"multipermutation enumerators disagree: {dual}",
    )

    got = [pirr_count(n) for n in range(1, rank_degree + 1)]
    table["pirr"] = got
    t.check(got == _EXPECTED_PIRR[:rank_degree], f"irreducible counts drifted: {got}")

    for name, expected in _EXPECTED_RANKS.items():
        h = get_algebra(name)
        per_q = [[primitive_rank(h, n, q) for q in qs] for n in range(1, rank_degree + 1)]
        table["ranks"][name] = per_q
        flat = [row[0] for row in per_q]
        t.check(
            all(len(set(row)) == 1 for row in per_q),
            f"{name} projector ranks vary with q: {per_q}",
        )
        t.check(
            flat == expected[:rank_degree],
            f"{name} projector ranks drifted: {flat}",
        )
        nul = [
            [len(primitive_kernel_basis(h, n, q)) for q in qs]
            for n in range(1, rank_degree + 1)
        ]
        table["nullity"][name] = nul
        t.check(
            nul == per_q,
            f"{name} kernel dimensions disagree with projector ranks: {nul}",
        )
        counts = table["counts"][name]
        for n in range(2, rank_degree + 1):
            predicted = counts[n - 1] - sum(
                flat[j - 1] * counts[n - j - 1] for j in range(1, n)
            )
            t.check(
                predicted == flat[n - 1],
                f"{name} rank recursion fails at degree {n}",
            )

    h = get_algebra("mperm")
    per_q = {q: [primitive_rank(h, n, q) for n in range(1, rank_degree + 1)] for q in qs}
    table["ranks"]["mperm"] = per_q
    for q in qs:
        t.check(
            per_q[q] == _EXPECTED_MPERM_RANKS[q][:rank_degree],
            f"mperm projector ranks at q={q} drifted: {per_q[q]}",
        )
    nul = [len(primitive_kernel_basis(h, n, 0)) for n in range(1, rank_degree + 1)]
    table["nullity"]["mperm"] = nul
    t.check(
        nul == _EXPECTED_MPERM_NULLITY[:rank_degree],
        f"mperm kernel dimensions drifted: {nul}",
    )

    report = t.report(
        "dims",
        {"max_count_degree": max_count_degree, "rank_degree": rank_degree, "qs": list(qs)},
    )
    report["table"] = table
    return report


# ------------------------------------------------------------- runner

_SUITES = {
    "golden": verify_golden,
    "axioms": verify_axioms,
    "bialgebra": verify_bialgebra,
    "morphisms": verify_morphisms,
    "oracles": verify_oracles,
    "brace": verify_brace,
    "dims": dims_report,
}

SUITE_NAMES = tuple(_SUITES)

DEFAULT_PLAN = (
    ("golden", {}),
    ("axioms", {"algebra": "st", "max_total_degree": 6}),
    ("axioms", {"algebra": "pqsym", "max_total_degree": 5}),
    ("axioms", {"algebra": "tree", "max_total_degree": 4}),
    ("axioms", {"algebra": "mperm", "max_total_degree": 4}),
    ("bialgebra", {"algebra": "st", "max_pair_degree": 5, "max_coassoc_degree": 6}),
    ("bialgebra", {"algebra": "pqsym", "max_pair_degree": 5, "max_coassoc_degree": 6}),
    ("bialgebra", {"algebra": "tree", "max_pair_degree": 4, "max_coassoc_degree": 5}),
    ("bialgebra", {"algebra": "mperm", "max_pair_degree": 4, "max_coassoc_degree": 5}),
    ("morphisms", {"max_degree": 4, "alpha_inj_degree": 5}),
    (
        "oracles",
        {"st_max": 6, "pqsym_max": 6, "mperm_max": 5, "pf_coproduct_max": 5, "concat_max": 4},
    ),
    ("brace", {"max_degree": 4}),
    ("dims", {"max_count_degree": 5, "rank_degree": 4}),
)


def run_task(task) -> dict:
    suite, kwargs = task
    fn = _SUITES[suite]
    t0 = time.perf_counter()
    report = fn(**kwargs)
    report["elapsed_s"] = round(time.perf_counter() - t0, 3)
    return report


def build_plan(
    suite: str | None = None,
    algebra: str | None = None,
    max_degree: int | None = None,
    qval=None,
) -> list:
    """Filter and adjust the default plan.

    max_degree clamps every degree budget that exceeds it; qval threads
    a specialization through the suites that accept one.
    """
    if max_degree is not None and max_degree < 1:
        raise ValueError(f"--max-degree must be at least 1, got {max_degree}")
    plan = []
    for name, kwargs in DEFAULT_PLAN:
        if suite is not None and name != suite:
            continue
        if algebra is not None and kwargs.get("algebra") not in (None, algebra):
            continue
        kwargs = dict(kwargs)
        if max_degree is not None:
            for key, value in list(kwargs.items()):
                if key.endswith(("degree", "_max")) and isinstance(value, int):
                    kwargs[key] = min(value, max_degree)
        if qval is not None and name not in ("golden", "dims"):
            kwargs["qval"] = qval
        plan.append((name, kwargs))
    return plan


def run_plan(plan, jobs: int = 1) -> list:
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    plan = list(plan)
    if jobs <= 1 or len(plan) <= 1:
        return [run_task(task) for task in plan]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run_task, plan))


def report_text(reports) -> str:
    lines = []
    for r in reports:
        status = "PASS" if r["ok"] else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in r["params"].items() if v is not None)
        head = f"{status} {r['suite']}"
        if params:
            head += f" [{params}]"
        head += f" checks={r['checks']}"
        if "elapsed_s" in r:
            head += f" time={r['elapsed_s']}s"
        lines.append(head)
        for msg in r["failures"]:
            lines.append(f"  {msg}")
    total = sum(r["checks"] for r in reports)
    bad = sum(1 for r in reports if not r["ok"])
    lines.append(
        f"{'FAIL' if bad else 'PASS'}: {len(reports)} suites, {total} checks,"
        f" {bad} failing suites"
    )
    return "\n".join(lines)


def reports_ok(reports) -> bool:
    return all(r["ok"] for r in reports)
