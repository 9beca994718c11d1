"""Acceptance gate: nine criteria, one printed line each.

Criterion 9 runs the full default verification plan once (module fixture);
criteria 1-5 and 8 read the relevant suite reports out of that run, and 6-7
assert the dimension and rank table values directly.  Each test prints a
single PASS/FAIL line to the real terminal before asserting, so the gate is
readable even under pytest output capture.

Criterion 7 note: the tree primitive ranks asserted here are 1, 2, 6, 22.
Rank 1 in degree 2 is impossible for this coproduct: the corolla and the
commutator of the two grafting products are independent primitives there.
Three independent routes agree on the asserted values: the projector rank
at each q in {0, 1, 5}, the kernel dimension of the reduced coproduct, and
the tensor-algebra recursion applied to the basis counts.

A last test, outside the nine criteria, pins the check count of every
plan entry, so that a change that drops checks fails here.
"""

from __future__ import annotations

import time

import pytest

from qtridend.verify import DEFAULT_PLAN, reports_ok, run_plan


@pytest.fixture(scope="module")
def full_run():
    t0 = time.perf_counter()
    reports = run_plan(DEFAULT_PLAN, jobs=1)
    elapsed = time.perf_counter() - t0
    by = {}
    for r in reports:
        by[(r["suite"], r["params"].get("algebra"))] = r
    return {"reports": reports, "by": by, "elapsed": elapsed}


def announce(capsys, num: int, name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {name}{tail}")
    assert ok, f"criterion {num}: {name}{tail}"


def test_criterion_1_golden_examples(full_run, capsys):
    r = full_run["by"][("golden", None)]
    ok = r["ok"] and r["elapsed_s"] < 1.0
    announce(
        capsys, 1, "golden examples bit-exact",
        ok, f"{r['checks']} checks in {r['elapsed_s']}s",
    )


def test_criterion_2_axiom_suites(full_run, capsys):
    degrees = {"st": 6, "pqsym": 5, "tree": 4, "mperm": 4}
    reports = [full_run["by"][("axioms", a)] for a in degrees]
    ok = all(r["ok"] for r in reports)
    for a, d in degrees.items():
        ok = ok and full_run["by"][("axioms", a)]["params"]["max_total_degree"] == d
    total = sum(r["elapsed_s"] for r in reports)
    ok = ok and total < 300
    announce(
        capsys, 2, "seven relations symbolic in q",
        ok, f"{sum(r['checks'] for r in reports)} checks in {round(total, 3)}s",
    )


def test_criterion_3_bialgebra_suites(full_run, capsys):
    reports = [
        full_run["by"][("bialgebra", a)] for a in ("st", "pqsym", "tree", "mperm")
    ]
    ok = all(r["ok"] for r in reports)
    announce(
        capsys, 3, "coproduct compatibility and coassociativity",
        ok, f"{sum(r['checks'] for r in reports)} checks",
    )


def test_criterion_4_morphism_suites(full_run, capsys):
    r = full_run["by"][("morphisms", None)]
    ok = r["ok"] and r["params"]["max_degree"] == 4
    announce(
        capsys, 4,
        "alpha and phi are bialgebra maps, iota coalgebra failure witnessed",
        ok, f"{r['checks']} checks",
    )


def test_criterion_5_oracle_equivalence(full_run, capsys):
    r = full_run["by"][("oracles", None)]
    p = r["params"]
    ok = (
        r["ok"]
        and p["st_max"] == 6
        and p["pqsym_max"] == 6
        and p["mperm_max"] == 5
        and p["pf_coproduct_max"] == 5
    )
    announce(
        capsys, 5, "fast products match brute-force oracles",
        ok, f"{r['checks']} checks",
    )


def test_criterion_6_dimension_table(full_run, capsys):
    table = full_run["by"][("dims", None)]["table"]
    counts = table["counts"]
    ok = (
        counts["ndpf"] == [1, 2, 5, 14, 42]
        and counts["pqsym"] == [1, 3, 16, 125, 1296]
        and counts["st"] == [1, 3, 13, 75, 541]
        and counts["tree"] == [1, 3, 11, 45, 197]
    )
    announce(capsys, 6, "dimension table exact", ok)


def test_criterion_7_primitive_ranks(full_run, capsys):
    r = full_run["by"][("dims", None)]
    table = r["table"]
    tree_rows = table["ranks"]["tree"]
    tree_flat = [row[0] for row in tree_rows]
    q_stable = all(len(set(row)) == 1 for row in tree_rows)
    # see the module docstring: 1, 2, 6, 22 are the values forced by the
    # kernel computation, the projector rank, and the count recursion
    counts = table["counts"]["tree"]
    recursion = all(
        tree_flat[n - 1]
        == counts[n - 1] - sum(tree_flat[j - 1] * counts[n - j - 1] for j in range(1, n))
        for n in range(2, 5)
    )
    pq_rows = table["ranks"]["pqsym"]
    pq_flat = [row[0] for row in pq_rows]
    ok = (
        r["ok"]
        and q_stable
        and tree_flat == [1, 2, 6, 22]
        and recursion
        and pq_flat == table["pirr"]
        and pq_flat[:3] == [1, 2, 11]
    )
    announce(
        capsys, 7, "primitive ranks at q in {0,1,5}",
        ok, f"tree {tree_flat}, pqsym {pq_flat} = pirr",
    )


def test_criterion_8_brace_layer(full_run, capsys):
    r = full_run["by"][("brace", None)]
    ok = r["ok"] and r["params"]["max_degree"] == 4
    announce(
        capsys, 8,
        "projector idempotent, reconstruction exact, brace and"
        " distributive laws symbolic",
        ok, f"{r['checks']} checks",
    )


def test_criterion_9_full_run_budget(full_run, capsys):
    ok = reports_ok(full_run["reports"]) and full_run["elapsed"] < 600
    total = sum(r["checks"] for r in full_run["reports"])
    announce(
        capsys, 9, "full default verify run green",
        ok, f"{total} checks in {round(full_run['elapsed'], 1)}s",
    )


# check counts of the default plan entries, in plan order
PLAN_CHECKS = [27, 4496, 680, 80, 56, 16759, 55927, 886, 1165, 1160, 27339, 1810, 29]


def test_default_plan_check_counts(full_run):
    assert [r["checks"] for r in full_run["reports"]] == PLAN_CHECKS
