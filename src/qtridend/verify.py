"""Verification suites: axioms, bialgebra laws, morphisms, oracle
equivalence, brace/projector properties, golden examples, dimensions.

Every suite returns a plain report dict

    {"suite", "params", "checks", "failures", "ok"}

with "failures" a capped list of human-readable strings.  Each suite is
registered by `_suite`, which builds its report: params are the call's
arguments with defaults, qval as q and tuples as lists.  A failure names
its witnesses in the input grammar, for `qtridend eval`: basis objects
by `render_basis`, Elements by `render_element` at the suite's q, as in
`<message> at (1,2)` or `<message> at p=(1,2) - (2,1) r=(1)`.  run_task
runs one (suite, kwargs) task with the cyclic collector paused
(`memo.collector_paused`); run_plan executes a list of them, optionally
across a process pool, and keeps the plan order in the output.  All suites are
deterministic: bases are enumerated in a fixed order and every check is
an exact equality of Elements, tensors, or integers.
"""

from __future__ import annotations

import functools
import json
import time
from itertools import chain, combinations, product
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
    is_primitive,
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
    coalgebra_laws,
    kind_products,
    tensor_of,
)
from .memo import collector_paused
from .mperm import (
    _scan_mperms,
    block_word,
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
    """Counts checks and keeps the first few failure messages; q is the
    suite's qval, at which Element witnesses render."""

    def __init__(self, q):
        self.q = q
        self.checks = 0
        self.failures: list[str] = []
        self.dropped = 0

    def check(self, ok: bool, msg: str) -> bool:
        self.checks += 1
        if not ok:
            if len(self.failures) < _FAIL_CAP:
                self.failures.append(msg)
            else:
                self.dropped += 1
        return ok

    def check_at(self, ok: bool, msg: str, family: str, /, *obj, **named) -> bool:
        """`check` whose failure names its witnesses, rendered only then:
        an Element by `render_element` at the suite's q, a basis object of
        family by `render_basis`.  One witness gives `msg at (1,2)`, named
        ones give `msg at x=(1,2) y=(1)`."""
        if ok:
            self.checks += 1
            return True

        def text(o):
            return render_element(o, self.q) if isinstance(o, Element) else render_basis(family, o)

        witness = [text(o) for o in obj] + [f"{k}={text(o)}" for k, o in named.items()]
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


_SUITES: dict = {}


def _suite(name: str):
    """Register the decorated function as suite name.  It is called with a
    fresh _Tally before its own arguments, which `run.params` names and
    the report's params hold in order, defaults applied; a dict that it
    returns is merged into the report.  Too many positional arguments
    raise Python's TypeError, counting the caller's arguments only."""

    def register(fn):
        names = fn.__code__.co_varnames[1 : fn.__code__.co_argcount]
        defaults = dict(zip(reversed(names), reversed(fn.__defaults__ or ())))
        least = len(names) - len(defaults)
        takes = f"from {least} to {len(names)}" if defaults else str(len(names))
        takes += " positional argument" if takes == "1" else " positional arguments"

        @functools.wraps(fn)
        def run(*args, **kwargs):
            if len(args) > len(names):
                given = "1 was" if len(args) == 1 else f"{len(args)} were"
                raise TypeError(f"{fn.__qualname__}() takes {takes} but {given} given")
            call = {**defaults, **dict(zip(names, args)), **kwargs}
            t = _Tally(call.get("qval"))
            extra = fn(t, *args, **kwargs)
            params = {
                "q" if k == "qval" else k: list(v) if isinstance(v, tuple) else v
                for k, v in ((k, call[k]) for k in names)
            }
            return {**t.report(name, params), **(extra or {})}

        run.params = names
        _SUITES[name] = run
        return run

    return register


def _degree_splits(budget: int, parts: int):
    """Compositions of at most budget into the given number of parts, lex order."""
    return (c for c in product(range(1, budget + 1), repeat=parts) if sum(c) <= budget)


def _tuples(basis, budget: int, parts: int):
    """Every tuple of one object of basis(n) per degree n of a split, split
    by split of `_degree_splits(budget, parts)`, each in product order."""
    return chain.from_iterable(product(*map(basis, c)) for c in _degree_splits(budget, parts))


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


@_suite("axioms")
def verify_axioms(t: _Tally, algebra: str, max_total_degree: int, qval=None) -> None:
    """All seven defining relations plus associativity of the total
    product, on every ordered basis triple within the degree budget."""
    h = get_algebra(algebra)
    for x, y, z in _tuples(h.basis, max_total_degree, 3):
        a, b, c = (Element.basis(algebra, o) for o in (x, y, z))
        for name, (inner_l, outer_l), (outer_r, inner_r) in _RELATIONS:
            ab = el_product(h, inner_l, a, b, qval)
            bc = el_product(h, inner_r, b, c, qval)
            lhs = el_product(h, outer_l, ab, c, qval)
            rhs = el_product(h, outer_r, a, bc, qval)
            t.check_at(lhs == rhs, f"{name} fails", algebra, a=x, b=y, c=z)


# ---------------------------------------------------------- bialgebra


@_suite("bialgebra")
def verify_bialgebra(
    t: _Tally,
    algebra: str,
    max_pair_degree: int,
    max_coassoc_degree: int,
    qval=None,
) -> None:
    """Coproduct compatibility with the three partial products, counit
    laws, and coassociativity, within the degree budgets."""
    h = get_algebra(algebra)
    one = Element.unit_element(algebra)
    t.check(
        el_coproduct(h, one, qval) == tensor_of(one, one),
        "Delta(1) != 1 (x) 1",
    )
    # at symbolic q the coproduct is passed itself, one frame less per lookup;
    # a partial with a keyword argument costs more per call than this lambda
    cop = h.coproduct if qval is None else lambda o: h.coproduct(o, qval)
    objects = (x for (x,) in _tuples(h.basis, max_coassoc_degree, 1))
    for x, left, right, coassoc in coalgebra_laws(objects, cop):
        t.check_at(left, "left counit law fails", algebra, x)
        t.check_at(right, "right counit law fails", algebra, x)
        t.check_at(coassoc, "coassociativity fails", algebra, x)
    mismatch = [f"Delta(x {kind} y) mismatch" for kind in KINDS]
    for x, y in _tuples(h.basis, max_pair_degree, 2):
        for msg, holds in zip(mismatch, compat_holds(h, x, y, qval)):
            t.check_at(holds, msg, algebra, x=x, y=y)


# ---------------------------------------------------------- morphisms


def _map_element(el: Element, fn, out_family: str) -> Element:
    """Push an Element through a basis-level linear map."""
    parts = [(fn(o), c) for o, c in el.terms.items()]
    if el.unit:
        parts.append((Element.unit_element(out_family), el.unit))
    return Element.sum(out_family, parts)


@_suite("morphisms")
def verify_morphisms(t: _Tally, max_degree: int = 4, alpha_inj_degree: int = 5, qval=None) -> None:
    """The embedding into parking functions and the projection onto big
    multipermutations respect products and coproducts; the plain
    inclusion of surjective words does not."""
    st_h = get_algebra("st")
    pq_h = get_algebra("pqsym")
    mm_h = get_algebra("mperm")
    maps = (("alpha", alpha, pq_h), ("phi", phi_element, mm_h))
    for f, g in _tuples(st_h.basis, max_degree, 2):
        for kind in KINDS:
            fg = st_product(kind, f, g, qval)
            for name, fn, h in maps:
                ok = _map_element(fg, fn, h.name) == el_product(h, kind, fn(f), fn(g), qval)
                t.check_at(ok, f"{name} does not respect {kind}", "st", f=f, g=g)
    for (f,) in _tuples(st_h.basis, max_degree, 1):
        d = st_coproduct(f)
        for name, fn, h in maps:
            ok = d.map_slots(fn, fn, h.name) == el_coproduct(h, fn(f), qval)
            t.check_at(ok, f"{name} does not respect Delta", "st", f)

    # injectivity: images have disjoint supports, each marked by f itself
    for (f,) in _tuples(st_h.basis, alpha_inj_degree, 1):
        sup = set(alpha(f).terms)
        ok = f in sup and all(std(hw) == f for hw in sup)
        t.check_at(ok, "alpha image is not marked by its source", "st", f)

    # surjectivity: the block-index word is an explicit preimage
    for (w,) in _tuples(mm_h.basis, max_degree, 1):
        word = block_word(w)
        ok = is_surjection(word) and phi(word) == w
        t.check_at(ok, "block-index preimage fails", "mperm", w)

    # on permutations the unweighted inclusion coincides with alpha
    for (f,) in _tuples(st_h.basis, max_degree, 1):
        if max(f) == len(f):
            t.check_at(iota(f) == alpha(f), "iota and alpha disagree", "st", f)

    # expected failure: iota is not a coalgebra morphism at (1,1,2)
    w = (1, 1, 2)
    lhs = st_coproduct(w).map_slots(iota, iota, "pqsym")
    rhs = el_coproduct(pq_h, iota(w), qval)
    t.check(lhs != rhs, "iota unexpectedly respects Delta at (1,1,2)")
    t.check(
        is_primitive(pq_h, Element.basis("pqsym", w)),
        "(1,1,2) is not primitive among parking functions",
    )
    t.check(
        not is_primitive(st_h, Element.basis("st", w)),
        "(1,1,2) is primitive among surjective words",
    )


# ------------------------------------------------------------ oracles


@_suite("oracles")
def verify_oracles(
    t: _Tally,
    st_max: int = 6,
    pqsym_max: int = 6,
    mperm_max: int = 5,
    pf_coproduct_max: int = 5,
    concat_max: int = 4,
    qval=None,
) -> None:
    """Fast product routes against one-pass brute-force scans, the
    positional coproduct of parking functions against a subset-split
    scan, and the plain concatenation product against the q=1 scan."""
    for name, budget in (("st", st_max), ("pqsym", pqsym_max), ("mperm", mperm_max)):
        h = get_algebra(name)
        disagrees = [(kind, f"{name} {kind} disagrees with scan") for kind in (*KINDS, STAR)]
        for total in range(2, budget + 1):
            scan = h.scan(total)
            for n in range(1, total):
                for x in h.basis(n):
                    for y in h.basis(total - n):
                        want = kind_products(name, scan[x, y], qval)
                        for kind, msg in disagrees:
                            ok = h.product(kind, x, y, qval) == want[kind]
                            t.check_at(ok, msg, name, x=x, y=y)

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
                    want = kind_products("mperm", scan[B, D], 1)[STAR]
                    ok = mperm_product(STAR, B, D, 1) == want
                    t.check_at(ok, "concatenation product disagrees", "mperm", B=B, D=D)


# -------------------------------------------------------------- brace


@_suite("brace")
def verify_brace(t: _Tally, max_degree: int = 4, qs=(0, 1, 5), qval=None) -> None:
    """Projector identities, brace and distributive laws on small grids,
    coproducts of omega words, and closure of primitives."""
    for name in ("st", "pqsym", "tree", "mperm"):
        h = get_algebra(name)
        not_idempotent = f"{name}: projector not idempotent"
        not_alternating = f"{name}: projector disagrees with alternating sum"
        not_reconstructed = f"{name}: reconstruction fails"
        not_killed = f"{name}: projector does not kill y > z"
        for (o,) in _tuples(h.basis, max_degree, 1):
            x = Element.basis(name, o)
            e = e_tri_basis(h, o, qval)
            t.check_at(e_tri(h, e, qval) == e, not_idempotent, name, o)
            t.check_at(e_tri_oracle(h, x, qval) == e, not_alternating, name, o)
            t.check_at(reconstruct(h, x, qval) == x, not_reconstructed, name, o)
        for y, z in _tuples(h.basis, max_degree, 2):
            prod = el_product(h, RIGHT, Element.basis(name, y), Element.basis(name, z), qval)
            t.check_at(e_tri(h, prod, qval).is_zero(), not_killed, name, y=y, z=z)
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
            kernels = {n: primitive_kernel_basis(h, n, q) for n in range(1, max_degree)}
            not_dot = f"{name}: primitives not closed under . (q={q})"
            not_brace = f"{name}: primitives not closed under brace (q={q})"
            for p, r in _tuples(kernels.__getitem__, max_degree, 2):
                dot = el_product(h, MIDDLE, p, r, q)
                t.check_at(is_primitive(h, dot, q), not_dot, name, p=p, r=r)
                br = brace(h, p, [r], q)
                t.check_at(is_primitive(h, br, q), not_brace, name, p=p, r=r)

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


# ------------------------------------------------------------- golden


def _golden_data() -> dict:
    path = Path(__file__).resolve().parent / "golden" / "golden.json"
    return json.loads(path.read_text())


@_suite("golden")
def verify_golden(t: _Tally) -> None:
    """Pinned worked examples, each recomputed from the definitions and
    compared string-for-string against the stored rendering."""
    g = _golden_data()

    sp = g["st_products"]
    f = parse_word(sp["f"])
    gw = parse_word(sp["g"])
    for kind in KINDS:
        t.check(
            render_element(st_product(kind, f, gw)) == sp[kind],
            f"st {kind} product of {sp['f']} and {sp['g']} drifted",
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
    for kind in KINDS:
        t.check(
            render_element(pf_product(kind, f, gw)) == pp[kind],
            f"pqsym {kind} product of {pp['f']} and {pp['g']} drifted",
        )
        t.check(
            render_element(oracle[kind]) == pp[kind],
            f"pqsym {kind} product oracle disagrees with stored value",
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


@_suite("dims")
def dims_report(t: _Tally, max_count_degree: int = 5, rank_degree: int = 4, qs=(0, 1, 5)) -> dict:
    """Basis counts, irreducible parking counts, and projector ranks,
    each checked against frozen expected values and cross-checked where
    an independent route exists.  The rank recursion reads the basis
    counts, so rank_degree may not pass max_count_degree."""
    if rank_degree > max_count_degree:
        raise ValueError(f"rank_degree {rank_degree} exceeds max_count_degree {max_count_degree}")
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

    return {"table": table}


# ------------------------------------------------------------- runner

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

# plan order, not registration order: golden leads `verify --help`
SUITE_NAMES = tuple(dict.fromkeys(name for name, _ in DEFAULT_PLAN))


def run_task(task) -> dict:
    suite, kwargs = task
    fn = _SUITES[suite]
    t0 = time.perf_counter()
    with collector_paused():
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
        if qval is not None and "qval" in _SUITES[name].params:
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
