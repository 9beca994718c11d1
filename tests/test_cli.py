from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qtridend.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_text(capsys):
    code, out, _ = run(capsys, "eval", "--algebra", "st", "--op", "middle", "(1,2)", "(1)")
    assert code == 0
    assert out.strip() == "(1,2,2)"


def test_eval_star_symbolic(capsys):
    code, out, _ = run(capsys, "eval", "--op", "star", "(1)", "(1)")
    assert code == 0
    assert out.strip() == "q*(1,1) + (1,2) + (2,1)"


def test_eval_specialized(capsys):
    code, out, _ = run(capsys, "eval", "--op", "star", "--q", "1", "(1)", "(1)")
    assert code == 0
    assert out.strip() == "(1,1) + (1,2) + (2,1)"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("eval", "--op", "star"), "25*(1,1) + 5*(1,2) + 5*(2,1)"),
        (("brace",), "25*(1,1) + 5*(1,2) - 5*(2,1)"),
    ],
    ids=["eval", "brace"],
)
def test_q_specializes_the_inputs_too(capsys, argv, expected):
    code, out, _ = run(capsys, *argv, "--algebra", "st", "--q", "5", "q*(1)", "(1)")
    assert code == 0
    assert out.strip() == expected


def test_coproduct_specializes_its_input(capsys):
    code, out, _ = run(capsys, "coproduct", "--q", "-1", "q*(1) + (1)")
    assert code == 0
    assert out.strip() == "0"


def test_eval_json(capsys):
    code, out, _ = run(
        capsys, "eval", "--algebra", "pqsym", "--op", "left", "--format", "json",
        "(1,1)", "(1)",
    )
    assert code == 0
    data = json.loads(out)
    assert data["algebra"] == "pqsym"
    assert data["terms"] == [{"basis": "(2,2,1)", "coeff": [[0, 1]]}]


def test_eval_element_sums(capsys):
    code, out, _ = run(capsys, "eval", "--op", "right", "(1) + (1,2)", "(1)")
    assert code == 0
    assert out.strip() == "(1,2) + (1,2,3)"


def test_coproduct(capsys):
    code, out, _ = run(capsys, "coproduct", "--algebra", "st", "(1,2,1)")
    assert code == 0
    assert out.strip() == "(1,1) # (1) + (1,2,1) # 1 + 1 # (1,2,1)"


def test_coproduct_json(capsys):
    code, out, _ = run(
        capsys, "coproduct", "--algebra", "mperm", "--format", "json", "[(2),(1)]"
    )
    assert code == 0
    data = json.loads(out)
    assert {"left": "[(1)]", "right": "[(1)]", "coeff": [[0, 1]]} in data["terms"]


def test_brace(capsys):
    code, out, _ = run(capsys, "brace", "--algebra", "st", "(1)", "(1)")
    assert code == 0
    assert out.strip() == "q*(1,1) + (1,2) - (2,1)"


def test_brace_no_ys_is_identity(capsys):
    code, out, _ = run(capsys, "brace", "(2,1)")
    assert code == 0
    assert out.strip() == "(2,1)"


def test_primitives(capsys):
    code, out, _ = run(
        capsys, "primitives", "--algebra", "st", "--degree", "2", "--q", "1"
    )
    assert code == 0
    assert "projector rank: 2" in out
    assert "dimension 2" in out
    assert "(1,1)" in out


def test_primitives_requires_integer_q(capsys):
    code, _, err = run(capsys, "primitives", "--algebra", "st", "--degree", "2")
    assert code == 2
    assert "integer" in err


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_primitives_rejects_degree_below_one(capsys, degree):
    code, out, err = run(
        capsys, "primitives", "--algebra", "st", "--degree", degree, "--q", "1"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: degree must be at least 1, got {degree}\n"


def test_primitives_json(capsys):
    code, out, _ = run(
        capsys, "primitives", "--algebra", "tree", "--degree", "2", "--q", "0",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["projector_rank"] == 2
    assert data["kernel_dim"] == 2
    assert len(data["kernel_basis"]) == 2


def test_morphism_alpha(capsys):
    code, out, _ = run(capsys, "morphism", "--which", "alpha", "(1,1,2)")
    assert code == 0
    assert out.strip() == "(1,1,2) + (1,1,3)"


def test_morphism_iota(capsys):
    code, out, _ = run(capsys, "morphism", "--which", "iota", "(2,1)")
    assert code == 0
    assert out.strip() == "(2,1)"


def test_morphism_phi(capsys):
    code, out, _ = run(capsys, "morphism", "--which", "phi", "(2,1,2)")
    assert code == 0
    assert out.strip() == "[(2),(1,3)]"


def test_verify_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "axioms", "--algebra", "tree",
        "--max-degree", "3",
    )
    assert code == 0
    assert out.splitlines()[0].startswith("PASS axioms")


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "golden", "--format", "json"
    )
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["suite"] == "golden"
    assert reports[0]["ok"] is True


def test_verify_algebra_filter_keeps_global_suites(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "golden", "--algebra", "tree",
        "--max-degree", "2",
    )
    assert code == 0  # golden has no algebra axis, so the filter keeps it
    assert out.splitlines()[0].startswith("PASS golden")


def test_dims(capsys):
    code, out, _ = run(capsys, "dims", "--max-degree", "2")
    assert code == 0
    assert "basis counts by degree:" in out
    assert "[1, 3]" in out
    assert out.strip().splitlines()[-1].startswith("PASS")


def test_dims_json(capsys):
    code, out, _ = run(capsys, "dims", "--max-degree", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["table"]["counts"]["st"] == [1, 3]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "--op", "left", "(1,3)", "(1)")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", ["verify", "dims"])
@pytest.mark.parametrize("degree", ["0", "-1"])
def test_max_degree_below_one_exits_two(capsys, command, degree):
    code, out, err = run(capsys, command, "--max-degree", degree)
    assert code == 2
    assert out == ""
    assert err == f"error: --max-degree must be at least 1, got {degree}\n"


@pytest.mark.parametrize(
    "algebra, bad, good, message",
    [
        ("st", "(1,3)", "(1)", "not a surjective word: (1,3)"),
        ("pqsym", "(2,2)", "(1)", "not a parking function: (2,2)"),
        ("tree", "V(|)", "V(|,|)", "not a tree of degree >= 1: V(|)"),
        ("mperm", "[(1,2)]", "[(1)]", "not a multipermutation: [(1,2)]"),
    ],
)
def test_invalid_basis_is_named_in_the_grammar(capsys, algebra, bad, good, message):
    code, out, err = run(capsys, "eval", "--algebra", algebra, "--op", "left", good, bad)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("literal", ["[(1,x)]", "[(1,)]"])
def test_malformed_mperm_literal_is_named_in_the_grammar(capsys, literal):
    code, out, err = run(capsys, "eval", "--algebra", "mperm", "--op", "left", literal, "[(1)]")
    assert code == 2
    assert out == ""
    assert err == f"error: bad multipermutation literal: {literal!r}\n"


@pytest.mark.parametrize(
    "args, bad",
    [(["1", "(1)"], "1"), (["(1) + 1", "(1)"], "(1) + 1"), (["(1)", "2 + (1)"], "(1) + 2*1")],
)
def test_brace_rejects_unit_terms(capsys, args, bad):
    code, out, err = run(capsys, "brace", "--algebra", "st", *args)
    assert code == 2
    assert out == ""
    assert err == f"error: brace arguments must have no unit term, got {bad}\n"


def test_bad_choice_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--algebra", "nosuch"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, text",
    [
        (("eval", "--algebra", "st", "--op", "left", "(1) - - (1,1)", "(1)"), "(1) - - (1,1)"),
        (("eval", "--algebra", "st", "--op", "left", "(1)", "(1,1) +"), "(1,1) +"),
        (("coproduct", "--algebra", "pqsym", "(1,1) + - (1)"), "(1,1) + - (1)"),
        (("coproduct", "--algebra", "st", "-"), "-"),
    ],
)
def test_doubled_and_trailing_signs_exit_two(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: empty term in {text!r}\n"


def test_a_single_leading_sign_stays_valid(capsys):
    code, out, _ = run(capsys, "eval", "--algebra", "st", "--op", "left", "--", "-(1)", "(1)")
    assert code == 0
    assert out.strip() == "-(2,1)"


@pytest.mark.parametrize(
    "algebra, degree, message",
    [
        ("pqsym", "7", "pqsym degree 7 has 262144 basis objects, over 20000"),
        ("pqsym", "9", "pqsym degree 7 has 262144 basis objects, over 20000"),
        ("st", "7", "st degree 7 has 47293 basis objects, over 20000"),
        ("mperm", "7", "mperm degree 7 has 25988 basis objects, over 20000"),
        ("tree", "8", "tree degree 8 has 20793 basis objects, over 20000"),
    ],
)
def test_primitives_refuses_a_basis_past_the_ceiling(capsys, algebra, degree, message):
    code, out, err = run(capsys, "primitives", "--algebra", algebra, "--degree", degree, "--q", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_the_ceiling_admits_pqsym_degree_six():
    from qtridend.brace import BASIS_CEILING
    from qtridend.pqsym import pf_basis
    from qtridend.trees import tree_basis

    assert len(pf_basis(6)) == 16807 <= BASIS_CEILING
    assert len(tree_basis(7)) <= BASIS_CEILING


@pytest.mark.parametrize("term, factor", [("q^-1*(1)", "q^-1"), ("q^2^3*(1)", "q^2^3"), ("2*qq*(1)", "qq")])
def test_malformed_q_factor_is_named(capsys, term, factor):
    code, out, err = run(capsys, "eval", "--algebra", "st", "--op", "star", "(1)", term)
    assert code == 2
    assert out == ""
    assert err == f"error: bad q factor {factor!r}\n"


@pytest.mark.parametrize("q", [[], ["--q", "1"]])
def test_q_exponent_past_the_cap_exits_two(capsys, q):
    code, out, err = run(capsys, "eval", "--op", "left", *q, "q^99999999999*(1)", "(1)")
    assert code == 2
    assert out == ""
    assert err == "error: q exponent over 64 in 'q^99999999999*(1)'\n"
    code, out, _ = run(capsys, "eval", "--op", "left", *q, "q^64*(1)", "(1)")
    assert code == 0
    assert out.strip() == ("q^64*(2,1)" if not q else "(2,1)")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_two(capsys, jobs):
    code, out, err = run(capsys, "verify", "--suite", "golden", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"


# The symbolic bounds of the CLI (`qtridend.qpoly`): eval of two degree-1
# terms is bounded by |f| |g| 3^2, the coproduct of (1) by 2 |f|, and a
# brace of two degree-1 terms by 2 (2 * 3^2) |x| |y|.  Just under 2^63 the
# result is computed as before; at 2^63 it is refused, naming the input.
HALF = 2**63


@pytest.mark.parametrize(
    "argv, factor, expected",
    [
        (("eval", "--op", "left", "{c}*(1)", "(1)"), 9, "{c}*(2,1)"),
        (("coproduct", "{c}*(1)"), 2, "{c}*(1) # 1 + {c}*1 # (1)"),
        (("brace", "(1)", "{c}*(1)"), 36, "{c}*q*(1,1) + {c}*(1,2) - {c}*(2,1)"),
    ],
    ids=["eval", "coproduct", "brace"],
)
def test_symbolic_bound_edges(capsys, argv, factor, expected):
    under = (HALF - 1) // factor
    code, out, _ = run(capsys, *(a.format(c=under) for a in argv))
    assert code == 0
    assert out.strip() == expected.format(c=under)
    at = under + 1
    code, out, err = run(capsys, *(a.format(c=at) for a in argv))
    assert code == 2
    assert out == ""
    assert err == (
        f"error: coefficients of '{at}*(1)' are too large for symbolic q:"
        " the result may reach 2^63\n"
    )
    code, out, _ = run(capsys, *argv[:1], "--q", "1", *(a.format(c=at) for a in argv[1:]))
    assert code == 0  # an integer q has no bound


def test_symbolic_input_past_the_bound_exits_two(capsys):
    text = f"(1) + {HALF - 1}*(1,1)"
    code, out, err = run(capsys, "coproduct", text)
    assert code == 2
    assert err == f"error: coefficients of {text!r} reach 2^63, too large for symbolic q\n"
    code, out, _ = run(capsys, "coproduct", "--q", "2", text)
    assert code == 0


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "qtridend", "eval", "--op", "star", "(1)", "(1)"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert done.returncode == 0
    assert done.stdout.strip() == "q*(1,1) + (1,2) + (2,1)"
