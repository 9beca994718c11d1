from __future__ import annotations

import pytest

from qtridend import mperm, pqsym, st, verify
from qtridend.grammar import parse_basis, render_basis
from qtridend.linear import MIDDLE, STAR, Element
from qtridend.verify import (
    DEFAULT_PLAN,
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


def test_default_plan_covers_all_suites():
    assert {name for name, _ in DEFAULT_PLAN} == set(SUITE_NAMES)


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


def _st_middle_gains(obj):
    """The middle product of (1,2) and (1) with obj added, as seen by the
    st handle and by verify."""
    wrong = _off_at(
        st.st_product,
        lambda kind, f, g, *q: (kind, f, g) == (MIDDLE, (1, 2), (1,)),
        lambda out: out + Element.basis("st", obj),
    )
    return [(st, "product", wrong), (verify, "st_product", wrong)]


def _on(family, obj):
    """An (h, element, ...) call on family whose element has obj in its support."""
    return lambda h, x, *q: h.name == family and obj in x.terms


_B1 = (frozenset({1}),)
_B12 = (frozenset({1}), frozenset({2}))
_PQ_COP = _off_at(pqsym.pf_coproduct, lambda f, *q: f == (1, 1), _double)

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
}


def test_failure_witnesses_parse_back(monkeypatch):
    """A planted fault is reported with exactly the pinned messages, whose
    witnesses are in the input grammar and parse back to the objects at
    fault."""
    for case, (family, patches, run, expected) in _PLANTED.items():
        with monkeypatch.context() as m:
            for module, name, fn in patches:
                m.setattr(module, name, fn)
            failures = run()["failures"]
        assert failures == expected, case
        for msg in failures:
            for token in msg.split(" at ", 1)[1].split():
                text = token.split("=", 1)[-1]
                assert render_basis(family, parse_basis(family, text)) == text
