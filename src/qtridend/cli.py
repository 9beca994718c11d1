"""Command line surface over the four q-tridendriform bialgebras.

Examples:
  qtridend eval --algebra st --op middle "(1,2)" "(1)"
  qtridend coproduct --algebra pqsym --q 1 "(1,1,3)"
  qtridend brace --algebra st "(1)" "(1)" "(1)"
  qtridend primitives --algebra tree --degree 3 --q 1
  qtridend morphism --which alpha "(1,1,2)"
  qtridend verify --suite axioms --algebra st --max-degree 4 --jobs 2
  qtridend dims --format json

Every subcommand accepts --format text|json.  --q takes "symbolic" (the
default: exact polynomial coefficients in q) or an integer N, which sets
q = N in the inputs too; primitives requires an integer (ranks over Q).
Symbolic q is computed at q = 2^64 (`qpoly`): eval, coproduct and brace
first bound their result and refuse a bound of 2^63 or more.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import prod

from .algebras import ALGEBRA_NAMES, el_coproduct, el_product, get_algebra
from .brace import brace, primitive_kernel_basis, primitive_rank
from .grammar import (
    element_to_json,
    parse_basis,
    parse_element,
    render_element,
    render_tensor2,
    tensor2_to_json,
)
from .linear import Element, Tensor2
from .mperm import phi_element
from .pqsym import alpha, iota
from .qpoly import HALF, coefficient_ceiling, to_pairs
from .verify import (
    SUITE_NAMES,
    build_plan,
    report_text,
    reports_ok,
    run_plan,
)


def _q_arg(text: str):
    if text == "symbolic":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'symbolic' or an integer, got {text!r}"
        )


def _emit(x, fmt: str, qval: int | None = None) -> None:
    """Print an Element or a Tensor2 in the chosen format."""
    if isinstance(x, Tensor2):
        print(json.dumps(tensor2_to_json(x, qval)) if fmt == "json" else render_tensor2(x, qval))
    else:
        print(json.dumps(element_to_json(x, qval)) if fmt == "json" else render_element(x, qval))


def _norm(coeffs) -> int:
    """The sum of the magnitudes of the true coefficients in coeffs."""
    return sum(abs(c) for coeff in coeffs for _, c in to_pairs(coeff))


def _el_norm(el: Element) -> int:
    return _norm((*el.terms.values(), el.unit))


def _refuse_past_bound(bound: int, texts, els) -> None:
    """Refuse a symbolic request whose coefficient bound reaches X/2
    (`qpoly`), naming its largest input."""
    if bound >= HALF:
        _, text = max(zip(map(_el_norm, els), texts))
        raise ValueError(
            f"coefficients of {text!r} are too large for symbolic q: the result may reach 2^63"
        )


def _ceiling(h, els) -> int:
    """coefficient_ceiling at the total degree of els."""
    return coefficient_ceiling(sum(max(map(h.degree, el.terms), default=0) for el in els))


def _cmd_eval(args) -> int:
    h = get_algebra(args.algebra)
    f, g = (parse_element(args.algebra, text, args.q) for text in (args.f, args.g))
    if args.q is None:
        bound = _el_norm(f) * _el_norm(g) * _ceiling(h, (f, g))
        _refuse_past_bound(bound, (args.f, args.g), (f, g))
    _emit(el_product(h, args.op, f, g, args.q), args.format, args.q)
    return 0


def _cmd_coproduct(args) -> int:
    h = get_algebra(args.algebra)
    f = parse_element(args.algebra, args.f, args.q)
    if args.q is None:
        cops = (_norm((c,)) * _norm(h.coproduct(o).terms.values()) for o, c in f.terms.items())
        _refuse_past_bound(_norm((f.unit,)) + sum(cops), (args.f,), (f,))
    _emit(el_coproduct(h, f, args.q), args.format, args.q)
    return 0


def _cmd_brace(args) -> int:
    h = get_algebra(args.algebra)
    els = [parse_element(args.algebra, text, args.q) for text in (args.x, *args.ys)]
    if args.q is None:
        # n + 1 terms of n products each; rtilde = > + q. counts twice
        n = len(args.ys)
        bound = (n + 1) * (2 * _ceiling(h, els)) ** n * prod(map(_el_norm, els))
        _refuse_past_bound(bound, (args.x, *args.ys), els)
    _emit(brace(h, els[0], els[1:], args.q), args.format, args.q)
    return 0


def _cmd_primitives(args) -> int:
    if args.q is None:
        raise ValueError("primitives needs an integer --q; ranks are taken over Q")
    h = get_algebra(args.algebra)
    rank = primitive_rank(h, args.degree, args.q)
    kernel = primitive_kernel_basis(h, args.degree, args.q)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "algebra": args.algebra,
                    "degree": args.degree,
                    "q": args.q,
                    "projector_rank": rank,
                    "kernel_dim": len(kernel),
                    "kernel_basis": [element_to_json(el, args.q) for el in kernel],
                }
            )
        )
    else:
        print(f"algebra={args.algebra} degree={args.degree} q={args.q}")
        print(f"projector rank: {rank}")
        print(f"ker of reduced coproduct: dimension {len(kernel)}")
        for el in kernel:
            print(f"  {render_element(el, args.q)}")
    return 0


_MORPHISMS = {
    "alpha": alpha,
    "iota": iota,
    "phi": phi_element,
}


def _cmd_morphism(args) -> int:
    f = parse_basis("st", args.word)
    _emit(_MORPHISMS[args.which](f), args.format)
    return 0


def _cmd_verify(args) -> int:
    plan = build_plan(
        suite=args.suite,
        algebra=args.algebra,
        max_degree=args.max_degree,
        qval=args.q,
    )
    if not plan:
        print("error: no suite matches the given filters", file=sys.stderr)
        return 2
    reports = run_plan(plan, jobs=args.jobs)
    if args.format == "json":
        print(json.dumps(reports, indent=2))
    else:
        print(report_text(reports))
    return 0 if reports_ok(reports) else 1


def _dims_text(report: dict) -> str:
    table = report["table"]
    lines = ["basis counts by degree:"]
    for name, row in table["counts"].items():
        lines.append(f"  {name:6s} {row}")
    lines.append(f"irreducible parking functions: {table['pirr']}")
    lines.append("projector ranks (q-stable across {0, 1, 5}):")
    for name in ("st", "pqsym", "tree"):
        flat = [row[0] for row in table["ranks"][name]]
        lines.append(f"  {name:6s} {flat}")
    lines.append("mperm projector ranks by q:")
    for q, row in table["ranks"]["mperm"].items():
        lines.append(f"  q={q}: {row}")
    lines.append(f"mperm reduced-coproduct kernel dims: {table['nullity']['mperm']}")
    status = "PASS" if report["ok"] else "FAIL"
    lines.append(f"{status}: {report['checks']} checks")
    for msg in report["failures"]:
        lines.append(f"  {msg}")
    return "\n".join(lines)


def _cmd_dims(args) -> int:
    plan = build_plan(suite="dims", max_degree=args.max_degree)
    report = run_plan(plan)[0]
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(_dims_text(report))
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    qflag = argparse.ArgumentParser(add_help=False)
    qflag.add_argument(
        "--q",
        type=_q_arg,
        default=None,
        metavar="symbolic|INT",
        help="q specialization; default keeps coefficients symbolic",
    )
    alg = argparse.ArgumentParser(add_help=False)
    alg.add_argument(
        "--algebra", choices=ALGEBRA_NAMES, default="st", help="which bialgebra"
    )

    p = argparse.ArgumentParser(
        prog="qtridend",
        description="Exact computations in four q-tridendriform bialgebras.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    e = sub.add_parser(
        "eval", parents=[alg, qflag, fmt], help="product of two elements"
    )
    e.add_argument(
        "--op",
        choices=("left", "middle", "right", "star"),
        required=True,
        help="which product",
    )
    e.add_argument("f", help="first element, e.g. \"(1,2) + q*(2,1)\"")
    e.add_argument("g", help="second element")
    e.set_defaults(fn=_cmd_eval)

    c = sub.add_parser(
        "coproduct", parents=[alg, qflag, fmt], help="coproduct of an element"
    )
    c.add_argument("f", help="element")
    c.set_defaults(fn=_cmd_coproduct)

    b = sub.add_parser(
        "brace", parents=[alg, qflag, fmt], help="brace M_1n(x; y_1..y_n)"
    )
    b.add_argument("x", help="first argument")
    b.add_argument("ys", nargs="*", help="the y_i, in order")
    b.set_defaults(fn=_cmd_brace)

    pr = sub.add_parser(
        "primitives",
        parents=[alg, qflag, fmt],
        help="projector rank and a kernel basis of the reduced coproduct",
    )
    pr.add_argument("--degree", type=int, required=True, help="basis degree n")
    pr.set_defaults(fn=_cmd_primitives)

    m = sub.add_parser(
        "morphism", parents=[fmt], help="apply alpha, iota, or phi to a word"
    )
    m.add_argument(
        "--which", choices=sorted(_MORPHISMS), required=True, help="which map"
    )
    m.add_argument("word", help="surjective word, e.g. \"(1,1,2)\"")
    m.set_defaults(fn=_cmd_morphism)

    v = sub.add_parser(
        "verify", parents=[qflag, fmt], help="run verification suites"
    )
    v.add_argument("--suite", choices=SUITE_NAMES, help="restrict to one suite")
    v.add_argument(
        "--algebra", choices=ALGEBRA_NAMES, help="restrict to one algebra"
    )
    v.add_argument(
        "--max-degree", type=int, help="clamp every degree budget to this"
    )
    v.add_argument("--jobs", type=int, default=1, help="parallel workers")
    v.set_defaults(fn=_cmd_verify)

    d = sub.add_parser(
        "dims", parents=[fmt], help="dimension and rank table with cross-checks"
    )
    d.add_argument(
        "--max-degree", type=int, help="clamp count and rank degrees to this"
    )
    d.set_defaults(fn=_cmd_dims)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
