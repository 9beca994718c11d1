from __future__ import annotations

import pytest

from qtridend import pqsym, st, verify
from qtridend.grammar import parse_basis, render_basis
from qtridend.linear import MIDDLE, Element
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


def test_failure_witnesses_parse_back(monkeypatch):
    """A wrong fast product or coproduct is reported with witnesses in the
    input grammar, which parse back to the objects at fault."""
    fast_product, fast_coproduct = st.st_product, pqsym.pf_coproduct

    def wrong_product(kind, f, g, qval=None):
        out = fast_product(kind, f, g, qval)
        if kind == MIDDLE and (f, g) == ((1, 2), (1,)):
            out = out + Element.basis("st", (1, 1, 1))
        return out

    def wrong_coproduct(f):
        return fast_coproduct(f).scale(2) if f == (1, 1) else fast_coproduct(f)

    for module in (st, verify):
        monkeypatch.setattr(module, "st_product", wrong_product)
    for module in (pqsym, verify):
        monkeypatch.setattr(module, "pf_coproduct", wrong_coproduct)
    reports = [verify_oracles(3, 2, 1, 2, 1), verify_morphisms(3, alpha_inj_degree=1)]
    failures = [msg for r in reports for msg in r["failures"]]
    assert "st middle disagrees with scan at x=(1,2) y=(1)" in failures
    assert "pqsym coproduct disagrees with subset scan at (1,1)" in failures
    assert "alpha does not respect middle at f=(1,2) g=(1)" in failures
    assert "alpha does not respect Delta at (1,1)" in failures
    for msg in failures:
        family = "pqsym" if msg.startswith("pqsym") else "st"
        for token in msg.split(" at ", 1)[1].split():
            text = token.split("=", 1)[-1]
            assert render_basis(family, parse_basis(family, text)) == text
