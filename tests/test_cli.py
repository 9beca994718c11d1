from __future__ import annotations

import json

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
