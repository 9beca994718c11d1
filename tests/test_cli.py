from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qtridend.algebras import el_coproduct, get_algebra
from qtridend.cli import main
from qtridend.grammar import parse_element, parse_tensor2


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


@pytest.mark.parametrize("text", ["0", "-0", "0 + (1,2,1)", "(1) - 0*(1,1) + 2*q*(2,1)"])
def test_coproduct_text_reads_back_as_a_tensor(capsys, text):
    # the CLI takes no tensor text; its tensor output, the zero included,
    # must parse back to the tensor it printed
    code, out, _ = run(capsys, "coproduct", "--algebra", "st", text)
    assert code == 0
    want = el_coproduct(get_algebra("st"), parse_element("st", text))
    assert parse_tensor2("st", out.strip()) == want
    assert parse_tensor2("st", f"0 + {out.strip()} - 0") == want


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


@pytest.mark.parametrize("literal", ["[(1,1)]", "[(1,1,2)]"])
def test_a_value_repeated_in_an_mperm_block_exits_two(capsys, literal):
    code, out, err = run(capsys, "eval", "--algebra", "mperm", "--op", "left", literal, "[(1)]")
    assert code == 2
    assert out == ""
    assert err == f"error: repeated value in a block of {literal!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--algebra", "st", "--op", "left", "", "(1)"),
        ("eval", "--algebra", "mperm", "--op", "star", "[(1)]", "   "),
        ("coproduct", "--algebra", "pqsym", " "),
        ("brace", "--algebra", "tree", "V(|,|)", ""),
    ],
)
def test_blank_element_text_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: empty element; the zero is written 0\n"


@pytest.mark.parametrize(
    "algebra, text, message",
    [
        ("mperm", "[1 2]", "bad multipermutation literal: '[1 2]'"),
        ("mperm", "[(1)(2)]", "bad multipermutation literal: '[(1)(2)]'"),
        ("mperm", "[(1),,(2)]", "bad multipermutation literal: '[(1),,(2)]'"),
        ("st", "(\u0661)", "bad word literal: '(\u0661)'"),
        ("st", "\uff13*(1)", "bad word literal: '\uff13'"),
        ("st", "q^\uff13*(1)", "bad q factor 'q^\uff13'"),
    ],
    ids=["space", "no comma", "two commas", "arabic digit", "fullwidth coefficient", "fullwidth exponent"],
)
def test_literals_outside_the_grammar_exit_two(capsys, algebra, text, message):
    code, out, err = run(capsys, "coproduct", "--algebra", algebra, text)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_bare_singletons_and_spaces_stay_valid(capsys):
    want = run(capsys, "eval", "--algebra", "mperm", "--op", "left", "[(1,3),(2)]", "[(1)]")
    assert want[0] == 0
    for text in ("[(1,3),2]", " [ ( 1 , 3 ) , 2 ] "):
        assert run(capsys, "eval", "--algebra", "mperm", "--op", "left", text, "[ 1 ]") == want
    assert run(capsys, "coproduct", "--algebra", "st", "( 1 , 2 )") == run(capsys, "coproduct", "--algebra", "st", "(1,2)")


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


_LONG = "7" * 4301  # one digit past what int() converts by default


@pytest.mark.parametrize(
    "argv, text",
    [
        (("eval", "--op", "left", f"{_LONG}*(1)", "(1)"), f"{_LONG}*(1)"),
        (("eval", "--op", "left", f"q^{_LONG}*(1)", "(1)"), f"q^{_LONG}*(1)"),
        (("morphism", "--which", "alpha", f"(1,{_LONG})"), f"(1,{_LONG})"),
        (("eval", "--algebra", "mperm", "--op", "left", f"[(1,{_LONG})]", "[1]"), f"[(1,{_LONG})]"),
    ],
    ids=["coefficient", "q exponent", "word letter", "mperm value"],
)
def test_a_number_too_long_to_convert_exits_two(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: number too long in {text!r}\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_two(capsys, jobs):
    code, out, err = run(capsys, "verify", "--suite", "golden", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"


# Integer options read numbers as the element grammar does: an optional '-'
# and ASCII digits, so fullwidth digits, '_', '+' and spaces exit 2.
@pytest.mark.parametrize(
    "argv, flag, text",
    [
        (("eval", "--op", "star", "--q", "３", "(1)", "(1)"), "--q", "３"),
        (("eval", "--op", "star", "--q", "1_0", "(1)", "(1)"), "--q", "1_0"),
        (("coproduct", "--q", "+1", "(1)"), "--q", "+1"),
        (("coproduct", "--q", " 1", "(1)"), "--q", " 1"),
        (("primitives", "--degree", "２", "--q", "1"), "--degree", "２"),
        (("primitives", "--degree", "2", "--q", "１"), "--q", "１"),
        (("verify", "--suite", "golden", "--jobs", "２"), "--jobs", "２"),
        (("verify", "--suite", "golden", "--max-degree", "1_0"), "--max-degree", "1_0"),
        (("dims", "--max-degree", "1_0"), "--max-degree", "1_0"),
        (("dims", "--max-degree", "2.0"), "--max-degree", "2.0"),
        (("eval", "--op", "star", "--q", _LONG, "(1)", "(1)"), "--q", _LONG),
    ],
    ids=[
        "q-fullwidth",
        "q-underscore",
        "q-plus",
        "q-space",
        "degree-fullwidth",
        "primitives-q-fullwidth",
        "jobs-fullwidth",
        "verify-max-degree-underscore",
        "dims-max-degree-underscore",
        "dims-max-degree-decimal",
        "q-too-long-to-convert",
    ],
)
def test_integer_options_take_only_ascii_digits(capsys, argv, flag, text):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    expected = "'symbolic' or an integer" if flag == "--q" else "an integer"
    assert out.err.endswith(f"error: argument {flag}: expected {expected}, got {text!r}\n")


def test_integer_options_take_symbolic_q_and_leading_zeros(capsys):
    code, out, _ = run(capsys, "eval", "--op", "star", "--q", "symbolic", "(1)", "(1)")
    assert (code, out.strip()) == (0, "q*(1,1) + (1,2) + (2,1)")
    code, out, _ = run(capsys, "primitives", "--degree", "02", "--q", "1")
    assert (code, out.splitlines()[0]) == (0, "algebra=st degree=2 q=1")


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


def python_dash_m(*argv):
    """Run `python -m qtridend` in a fresh interpreter, as a user would."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "qtridend", *argv],
        capture_output=True, text=True, env=env, check=False,
    )


def test_python_dash_m_runs_the_cli():
    done = python_dash_m("eval", "--op", "star", "(1)", "(1)")
    assert done.returncode == 0
    assert done.stdout.strip() == "q*(1,1) + (1,2) + (2,1)"


def chain_tree(depth: int) -> str:
    """A tree of the given depth: each graft but the last grafts again on
    its last child."""
    return "V(|," * depth + "|,|" + ")" * depth


def test_a_tree_of_depth_200_keeps_its_coproduct():
    t = chain_tree(200)
    done = python_dash_m("coproduct", "--algebra", "tree", t)
    terms = done.stdout.strip().split(" + ")
    assert done.returncode == 0 and done.stderr == ""
    assert len(terms) == 201 and terms[:2] == [f"1 # {t}", f"{t} # 1"]
    assert terms[2] == f"{chain_tree(199)} # V(|,|)"


@pytest.mark.parametrize("depth", [250, 1200], ids=["compute", "parse"])
def test_too_deep_a_tree_exits_two_with_one_line(depth):
    done = python_dash_m("coproduct", "--algebra", "tree", chain_tree(depth))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "error: input nested too deeply to parse or compute\n"


def test_a_reader_that_stops_early_ends_the_run_quietly():
    # 0.3 MB of kernel vectors: more than the pipe holds, so the run is
    # still writing when the reader closes its end after one line
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["primitives", "--algebra", "tree", "--degree", "6", "--q", "1"]
    with subprocess.Popen(
        [sys.executable, "-m", "qtridend", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    ) as proc:
        assert proc.stdout.readline() == "algebra=tree degree=6 q=1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == ""
