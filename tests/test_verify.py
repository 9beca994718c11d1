from __future__ import annotations

import inspect
import re
import sys
from itertools import combinations

import pytest

from qtridend import mperm, pqsym, st, verify
from qtridend.grammar import parse_basis, parse_element, render_element
from qtridend.linear import MIDDLE, STAR, Element
from qtridend.verify import (
    DEFAULT_PLAN,
    _degree_splits,
    _tuples,
    SUITE_NAMES,
    build_plan,
    dims_report,
    report_text,
    reports_ok,
    run_plan,
    run_task,
    verify_axioms,
    verify_bialgebra,
    verify_brace,
    verify_golden,
    verify_morphisms,
    verify_oracles,
)


def _check_shape(report):
    assert set(report) >= {"suite", "params", "checks", "failures", "ok"}
    assert report["checks"] > 0
    assert report["failures"] == []
    assert report["ok"] is True


def test_degree_splits_walk_the_pairs_in_lex_order():
    # the degree pairs and triples the axiom, bialgebra and morphism suites walk
    assert list(_degree_splits(4, 2)) == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
    # _tuples walks them split by split, each split in product order
    a, two = (1,), [(1, 1), (1, 2), (2, 1)]
    singles = [(a,)] + [(x,) for x in two] + [(f,) for f in st.basis(3)]
    assert list(_tuples(st.basis, 3, 1)) == singles
    assert list(_tuples(st.basis, 3, 2)) == [(a, a)] + [(a, x) for x in two] + [(x, a) for x in two]
    assert list(_tuples(st.basis, 4, 3)) == (
        [(a, a, a)] + [(a, a, x) for x in two] + [(a, x, a) for x in two] + [(x, a, a) for x in two]
    )
    # a dict basis, as the brace suite walks its kernels; degree 3 is never read
    kernels = {1: ["p"], 2: ["r", "s"]}
    pairs = [("p", "p"), ("p", "r"), ("p", "s"), ("r", "p"), ("s", "p")]
    assert list(_tuples(kernels.__getitem__, 3, 2)) == pairs
    assert list(_tuples(kernels.__getitem__, 1, 2)) == []


def test_golden_suite():
    _check_shape(verify_golden())


def test_axiom_suite_small():
    for algebra in ("st", "pqsym", "tree", "mperm"):
        _check_shape(verify_axioms(algebra, 3))


def test_axiom_suite_specialized():
    _check_shape(verify_axioms("st", 3, qval=2))


def test_bialgebra_suite_small():
    for algebra in ("st", "pqsym", "tree", "mperm"):
        _check_shape(verify_bialgebra(algebra, 3, 3))


def test_morphism_suite_small():
    _check_shape(verify_morphisms(3, alpha_inj_degree=3))


def test_oracle_suite_small():
    _check_shape(verify_oracles(3, 3, 3, 3, 3))


def test_brace_suite_small():
    _check_shape(verify_brace(3))


def test_dims_suite_small():
    report = dims_report(3, 2)
    _check_shape(report)
    table = report["table"]
    assert table["counts"]["st"] == [1, 3, 13]
    assert table["counts"]["tree"] == [1, 3, 11]
    assert table["pirr"] == [1, 2]
    assert [r[0] for r in table["ranks"]["st"]] == [1, 2]


def test_dims_suite_passes_with_ranks_at_degree_five():
    report = dims_report(5, rank_degree=5)
    _check_shape(report)
    assert report["ok"] and report["checks"] == 32
    table = report["table"]
    assert table["pirr"][4] == 1014 and table["nullity"]["mperm"][4] == 198
    assert {name: table["ranks"][name][4][0] for name in ("st", "pqsym", "tree")} == {
        "st": 368, "pqsym": 1014, "tree": 90
    }
    assert {q: ranks[4] for q, ranks in table["ranks"]["mperm"].items()} == {0: 217, 1: 235, 5: 235}


def test_dims_refuses_ranks_past_the_counted_degrees():
    # The rank recursion reads the basis counts of every rank degree.
    with pytest.raises(ValueError, match="rank_degree 4 exceeds max_count_degree 3"):
        dims_report(max_count_degree=3, rank_degree=4)
    with pytest.raises(ValueError, match="rank_degree 4 exceeds max_count_degree 3"):
        verify.run_task(("dims", {"max_count_degree": 3}))
    assert dims_report(3, 3)["ok"]
    for m in range(1, 7):
        assert build_plan(suite="dims", max_degree=m) == [
            ("dims", {"max_count_degree": min(m, 5), "rank_degree": min(m, 4)})
        ]


def test_too_many_arguments_count_only_the_callers():
    """A suite called with too many positional arguments raises Python's
    own TypeError for its signature without the tally."""

    def golden():
        pass

    def axioms(algebra, max_total_degree, qval=None):
        pass

    def morphisms(max_degree=4, alpha_inj_degree=5, qval=None):
        pass

    for suite, plain, args in (
        (verify_golden, golden, (1,)),
        (verify_golden, golden, (1, 2)),
        (verify_axioms, axioms, ("st", 2, None, 4)),
        (verify_morphisms, morphisms, (1, 2, None, 4)),
    ):
        with pytest.raises(TypeError) as want:
            plain(*args)
        with pytest.raises(TypeError) as got:
            suite(*args)
        assert str(got.value) == str(want.value).replace(plain.__qualname__, suite.__name__)
    message = "verify_golden() takes 0 positional arguments but 1 was given"
    with pytest.raises(TypeError, match=re.escape(message)):
        verify_golden(1)


def test_default_plan_covers_all_suites():
    # plan order, which is the order `verify --help` lists them in
    assert SUITE_NAMES == ("golden", "axioms", "bialgebra", "morphisms", "oracles", "brace", "dims")
    assert tuple(dict.fromkeys(name for name, _ in DEFAULT_PLAN)) == SUITE_NAMES
    assert set(verify._SUITES) == set(SUITE_NAMES)


def _plan_at_degree_two(q):
    """(suite, params, checks) of each report of build_plan(max_degree=2, qval=q)."""
    families = ("st", "pqsym", "tree", "mperm")
    return [
        ("golden", {}, 27),
        *(("axioms", {"algebra": a, "max_total_degree": 2, "q": q}, 0) for a in families),
        *(
            ("bialgebra", {"algebra": a, "max_pair_degree": 2, "max_coassoc_degree": 2, "q": q}, n)
            for a, n in zip(families, (16, 16, 16, 13))
        ),
        ("morphisms", {"max_degree": 2, "alpha_inj_degree": 2, "q": q}, 27),
        (
            "oracles",
            {"st_max": 2, "pqsym_max": 2, "mperm_max": 2, "pf_coproduct_max": 2, "concat_max": 2, "q": q},
            21,
        ),
        ("brace", {"max_degree": 2, "qs": [0, 1, 5], "q": q}, 140),
        ("dims", {"max_count_degree": 2, "rank_degree": 2, "qs": [0, 1, 5]}, 23),
    ]


@pytest.mark.parametrize("qval", [None, 1])
def test_plan_reports_pin_suite_params_and_checks(qval):
    """The params of a report are its suite's arguments in signature order,
    defaults applied, qval as q and tuples as lists."""
    got = [
        (r["suite"], list(r["params"].items()), r["checks"])
        for r in run_plan(build_plan(max_degree=2, qval=qval))
    ]
    assert got == [(s, list(p.items()), n) for s, p, n in _plan_at_degree_two(qval)]


def test_build_plan_filters_and_clamps():
    plan = build_plan(suite="axioms")
    assert {name for name, _ in plan} == {"axioms"}
    assert len(plan) == 4
    plan = build_plan(suite="axioms", algebra="tree")
    assert plan == [("axioms", {"algebra": "tree", "max_total_degree": 4})]
    plan = build_plan(max_degree=3)
    for name, kwargs in plan:
        for key, value in kwargs.items():
            if isinstance(value, int):
                assert value <= 3, (name, key, value)
    plan = build_plan(suite="axioms", algebra="st", max_degree=2, qval=1)
    assert plan == [("axioms", {"algebra": "st", "max_total_degree": 2, "qval": 1})]
    assert build_plan(suite="axioms", algebra="nosuch") == []
    assert build_plan(suite="oracles", max_degree=5) == [
        (
            "oracles",
            {"st_max": 5, "pqsym_max": 5, "mperm_max": 5, "pf_coproduct_max": 5, "concat_max": 4},
        )
    ]
    with pytest.raises(ValueError, match="at least 1, got 0"):
        build_plan(max_degree=0)


def test_run_plan_and_report_text():
    plan = build_plan(suite="axioms", max_degree=2)
    reports = run_plan(plan)
    assert reports_ok(reports)
    text = report_text(reports)
    lines = text.splitlines()
    assert len(lines) == len(reports) + 1
    assert all(line.startswith("PASS axioms") for line in lines[:-1])
    assert lines[-1].startswith("PASS:")
    assert "elapsed_s" in reports[0]


def test_run_task_records_time():
    report = run_task(("golden", {}))
    assert report["elapsed_s"] >= 0
    _check_shape(report)


def test_report_text_failure_rendering():
    fake = [
        {
            "suite": "axioms",
            "params": {"algebra": "st"},
            "checks": 2,
            "failures": ["relation broke at x"],
            "ok": False,
        }
    ]
    text = report_text(fake)
    assert text.splitlines()[0].startswith("FAIL axioms")
    assert "relation broke at x" in text
    assert "1 failing suites" in text
    assert not reports_ok(fake)


def _off_at(fn, when, fault):
    """fn, except that its value goes through fault where when(*args) holds."""

    def wrong(*args):
        out = fn(*args)
        return fault(out) if when(*args) else out

    return wrong


def _double(x):
    return x.scale(2)


def _plus(family, obj):
    return lambda out: out + Element.basis(family, obj)


def _st_middle_gains(obj):
    """The middle product of (1,2) and (1) with obj added, as seen by the
    st handle and by verify."""
    wrong = _off_at(
        st.st_product,
        lambda kind, f, g, *q: (kind, f, g) == (MIDDLE, (1, 2), (1,)),
        _plus("st", obj),
    )
    return [(st, "product", wrong), (verify, "st_product", wrong)]


def _on(family, obj):
    """An (h, element, ...) call on family whose element has obj in its support."""
    return lambda h, x, *q: h.name == family and obj in x.terms


def _is(family, obj):
    """An (h, element, ...) call on family whose element is the basis element obj."""
    return lambda h, x, *q: h.name == family and x == Element.basis(family, obj)


def _false(_):
    return False


_B1 = (frozenset({1}),)
_B12 = (frozenset({1}), frozenset({2}))
_PQ_COP = _off_at(pqsym.pf_coproduct, lambda f, *q: f == (1, 1), _double)
_T22 = parse_basis("tree", "V(V(|,|),V(|,|))")

# one planted fault per shape of witness message: (family of the
# witnesses, patches, suite run, its exact failures)
_PLANTED = {
    "axiom relation": (
        "st",
        _st_middle_gains((1, 1, 1)),
        lambda: verify_axioms("st", 3),
        ["(a>b).c = a>(b.c) fails at a=(1) b=(1) c=(1)"],
    ),
    "compat": (
        "st",
        _st_middle_gains((1, 2, 3))[:1],  # not primitive, so Delta sees it
        lambda: verify_bialgebra("st", 3, 1),
        ["Delta(x middle y) mismatch at x=(1,2) y=(1)"],
    ),
    "oracle product": (
        "st",
        _st_middle_gains((1, 1, 1)),
        lambda: verify_oracles(3, 2, 1, 2, 1),
        ["st middle disagrees with scan at x=(1,2) y=(1)"],
    ),
    "alpha and phi on products": (
        "st",
        _st_middle_gains((1, 1, 1)),
        lambda: verify_morphisms(3, alpha_inj_degree=1),
        [
            "alpha does not respect middle at f=(1,2) g=(1)",
            "phi does not respect middle at f=(1,2) g=(1)",
        ],
    ),
    "counit and coassociativity": (
        "pqsym",
        [(pqsym, "coproduct", _PQ_COP)],
        lambda: verify_bialgebra("pqsym", 1, 2),
        [
            "left counit law fails at (1,1)",
            "right counit law fails at (1,1)",
            "coassociativity fails at (1,1)",
        ],
    ),
    "coproduct split uniqueness": (
        "pqsym",
        [(verify, "combinations", lambda pool, j: [*combinations(pool, j)] * 2)],
        lambda: verify_oracles(1, 1, 1, 2, 1),
        ["coproduct split not unique at (1,2)", "coproduct split not unique at (2,1)"],
    ),
    "pqsym coproduct subset scan": (
        "pqsym",
        [(verify, "pf_coproduct", _PQ_COP)],
        lambda: verify_oracles(1, 1, 1, 2, 1),
        ["pqsym coproduct disagrees with subset scan at (1,1)"],
    ),
    "alpha on Delta": (
        "st",
        [(pqsym, "coproduct", _PQ_COP)],
        lambda: verify_morphisms(2, alpha_inj_degree=1),
        ["alpha does not respect Delta at (1,1)"],
    ),
    "phi on Delta": (
        "st",
        [(mperm, "coproduct", _off_at(mperm.mperm_coproduct, lambda B, *q: B == _B12, _double))],
        lambda: verify_morphisms(2, alpha_inj_degree=1),
        ["phi does not respect Delta at (1,2)"],
    ),
    "concatenation": (
        "mperm",
        [
            (
                verify,
                "mperm_product",
                _off_at(
                    mperm.mperm_product,
                    lambda kind, B, D, *q: (kind, B, D) == (STAR, _B1, _B12),
                    _double,
                ),
            )
        ],
        lambda: verify_oracles(1, 1, 1, 1, 3),
        ["concatenation product disagrees at B=[(1)] D=[(1),(2)]"],
    ),
    "iota and alpha": (
        "st",
        [(verify, "iota", _off_at(pqsym.iota, lambda f: f == (2, 1), _double))],
        lambda: verify_morphisms(2, alpha_inj_degree=1),
        ["iota and alpha disagree at (2,1)"],
    ),
    "projector idempotence": (
        "st",
        [(verify, "e_tri", _off_at(verify.e_tri, _on("st", (1, 1)), _double))],
        lambda: verify_brace(2, qs=()),
        ["st: projector not idempotent at (1,1)"],
    ),
    "projector alternating sum": (
        "pqsym",
        [(verify, "e_tri_oracle", _off_at(verify.e_tri_oracle, _on("pqsym", (1, 1)), _double))],
        lambda: verify_brace(2, qs=()),
        ["pqsym: projector disagrees with alternating sum at (1,1)"],
    ),
    "reconstruction": (
        "mperm",
        [(verify, "reconstruct", _off_at(verify.reconstruct, _on("mperm", _B12), _double))],
        lambda: verify_brace(2, qs=()),
        ["mperm: reconstruction fails at [(1),(2)]"],
    ),
    "alpha marking": (
        "st",
        [(verify, "alpha", _off_at(pqsym.alpha, lambda f: f == (2, 1), _plus("pqsym", (1, 1))))],
        lambda: verify_morphisms(1, alpha_inj_degree=2),
        ["alpha image is not marked by its source at (2,1)"],
    ),
    "block-index preimage": (
        "mperm",
        [(verify, "phi", _off_at(mperm.phi, lambda f: f == (2, 1), lambda w: w[::-1]))],
        lambda: verify_morphisms(2, alpha_inj_degree=1),
        ["block-index preimage fails at [(2),(1)]"],
    ),
    "projector kills >": (
        "mperm",
        [(verify, "e_tri", _off_at(verify.e_tri, _is("mperm", _B12), _plus("mperm", _B12)))],
        lambda: verify_brace(2, qs=()),
        ["mperm: projector does not kill y > z at y=[(1)] z=[(1)]"],
    ),
    "primitives closed under .": (
        "st",
        [(verify, "is_primitive", _off_at(verify.is_primitive, _on("st", (2, 1, 2)), _false))],
        lambda: verify_brace(3, qs=(0,)),
        [
            "st: primitives not closed under . (q=0) at p=(1) r=-(1,2) + (2,1)",
            "st: primitives not closed under . (q=0) at p=-(1,2) + (2,1) r=(1)",
        ],
    ),
    "primitives closed under brace": (
        "tree",
        [(verify, "is_primitive", _off_at(verify.is_primitive, _on("tree", _T22), _false))],
        lambda: verify_brace(3, qs=(0,)),
        ["tree: primitives not closed under brace (q=0) at p=V(V(|,|),|) - V(|,V(|,|)) r=V(|,|)"],
    ),
}


def test_failure_witnesses_parse_back(monkeypatch):
    """A planted fault is reported with exactly the pinned messages, whose
    witnesses are in the input grammar and parse back to the objects at
    fault.  Element witnesses hold spaces, so the witnesses are split at
    their ` name=` markers.  Together the cases fail every check_at call
    of verify.py, so each witness message shape is pinned here."""
    failed_at = set()
    check_at = verify._Tally.check_at

    def recording(self, ok, *args, **named):
        if not ok:
            failed_at.add(sys._getframe(1).f_lineno)
        return check_at(self, ok, *args, **named)

    monkeypatch.setattr(verify._Tally, "check_at", recording)
    for case, (family, patches, run, expected) in _PLANTED.items():
        with monkeypatch.context() as m:
            for module, name, fn in patches:
                m.setattr(module, name, fn)
            failures = run()["failures"]
        assert failures == expected, case
        for msg in failures:
            assert msg.count(" at ") == 1, msg
            texts = re.split(r"(?:^| )[A-Za-z]+=", msg.split(" at ")[1])
            for text in filter(None, texts):
                assert render_element(parse_element(family, text)) == text, (case, text)
    lines, _ = inspect.getsourcelines(verify)
    assert failed_at == {i for i, line in enumerate(lines, 1) if "t.check_at(" in line}
