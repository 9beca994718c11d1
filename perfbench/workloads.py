"""The four benchmark workloads: their inputs, one timed pass, and the gates.

Inputs are frozen here rather than read from the package, so that a later
change to the package's own plan or budgets does not change what is
measured.  Only the session workload depends on the seed; the other three
run the same fixed inputs on every seed.

Each pass is a closed loop with one client: the next operation starts only
after the previous one has returned.  Package functions are looked up on the
`qtridend` package at call time, so a tracer that rebinds them is seen.
Times are read from the `clock` argument: time.monotonic by default, and a
speed.SpeedClock (reference seconds) in the measured passes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
import time
from pathlib import Path

WORKLOADS = ("verify-sym", "verify-q1", "ranks", "session")
FAMILIES = ("st", "pqsym", "tree", "mperm")

# ------------------------------------------------------------------ verify

# The 13 entries of the package's DEFAULT_PLAN as they stand at the commit
# that introduced this benchmark, with the check count each one makes.
VERIFY_PLAN = (
    ("golden", {}, 27),
    ("axioms", {"algebra": "st", "max_total_degree": 6}, 4496),
    ("axioms", {"algebra": "pqsym", "max_total_degree": 5}, 680),
    ("axioms", {"algebra": "tree", "max_total_degree": 4}, 80),
    ("axioms", {"algebra": "mperm", "max_total_degree": 4}, 56),
    ("bialgebra", {"algebra": "st", "max_pair_degree": 5, "max_coassoc_degree": 6}, 16759),
    ("bialgebra", {"algebra": "pqsym", "max_pair_degree": 5, "max_coassoc_degree": 6}, 55927),
    ("bialgebra", {"algebra": "tree", "max_pair_degree": 4, "max_coassoc_degree": 5}, 886),
    ("bialgebra", {"algebra": "mperm", "max_pair_degree": 4, "max_coassoc_degree": 5}, 1165),
    ("morphisms", {}, 1160),
    ("oracles", {}, 27339),
    ("brace", {}, 1810),
    ("dims", {}, 29),
)
VERIFY_CHECKS = 110414
SUITES = ("golden", "axioms", "bialgebra", "morphisms", "oracles", "brace", "dims")


def report_failures(report: dict) -> int:
    """Failed checks in a suite report, counting the '... and N more' tail."""
    n = 0
    for msg in report["failures"]:
        if msg.startswith("... and ") and msg.endswith(" more failures"):
            n += int(msg[len("... and "):-len(" more failures")])
        else:
            n += 1
    return n


def gate_verify(reports: list, tasks: list) -> tuple[int, int, list]:
    """(attempted, failed, errors) over the plan.  A crashed entry (None)
    or one whose check count drifted fails all of its expected checks."""
    attempted = failed = 0
    errors = []
    for report, (suite, kwargs, expected) in zip(reports, tasks):
        attempted += expected
        label = f"{suite} {kwargs.get('algebra', '')}".strip()
        if report is None:
            failed += expected
            errors.append(f"{label}: crashed")
        elif report["checks"] != expected:
            failed += expected
            errors.append(f"{label}: {report['checks']} checks, expected {expected}")
        elif not report["ok"]:
            bad = min(report_failures(report), expected) or 1
            failed += bad
            errors.append(f"{label}: {bad} failed checks")
    return attempted, failed, errors


def _report_digest(reports: list) -> str:
    h = hashlib.sha256()
    for r in reports:
        r = {k: v for k, v in (r or {}).items() if k != "elapsed_s"}
        h.update(json.dumps(r, sort_keys=True, default=str).encode())
    return h.hexdigest()


def verify_tasks(qval) -> list:
    """The plan with qval added where `qtridend verify --q` adds it."""
    return [
        (suite, kwargs if qval is None or suite in ("golden", "dims") else dict(kwargs, qval=qval), n)
        for suite, kwargs, n in VERIFY_PLAN
    ]


def run_verify(qt, qval, clock=time.monotonic):
    """The whole plan is one request, as one `qtridend verify` command is."""
    tasks = verify_tasks(qval)
    verify = qt.verify
    reports = []
    t_first = clock()
    for suite, kwargs, _ in tasks:
        try:
            report = verify.run_task((suite, kwargs))
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            report = None
            print(f"perfbench: {suite} raised {exc!r}", file=sys.stderr)
        reports.append(report)
    wall = clock() - t_first
    attempted, failed, errors = gate_verify(reports, tasks)
    return {
        "wall_s": wall,
        "latencies_s": [wall],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": _report_digest(reports),
        "suite_s": _suite_seconds(reports),
    }


def _suite_seconds(reports: list) -> dict:
    out = dict.fromkeys(SUITES, 0.0)
    for r in reports:
        if r is not None:
            out[r["suite"]] += r["elapsed_s"]
    return out


# ------------------------------------------------------------------- ranks

# (family, degree, q, rank, kernel dimension).  st and tree are the
# tensor-algebra recursion r_n = c_n - sum_j r_j c_{n-j} over the basis
# counts; mperm at q=0 is filtered, so rank and nullity differ.
RANK_CASES = (
    ("st", 5, 1, 368, 368),
    ("tree", 5, 1, 90, 90),
    ("mperm", 5, 0, 217, 198),
    ("pqsym", 4, 1, 92, 92),
)
BASIS_COUNTS = {"st": (1, 3, 13, 75, 541), "tree": (1, 3, 11, 45, 197)}
LOWER_RANKS = {"st": (1, 2, 8, 48), "tree": (1, 2, 6, 22)}


def recursion_rank(family: str, n: int) -> int:
    """c_n - sum_{j<n} r_j c_{n-j}: 541 - 173 for st/5, 197 - 107 for tree/5."""
    c, r = BASIS_COUNTS[family], LOWER_RANKS[family]
    return c[n - 1] - sum(r[j - 1] * c[n - j - 1] for j in range(1, n))


def gate_rank_case(qt, case, rank, kernel) -> list:
    """Errors for one ranks case; an empty list means it is correct."""
    family, n, q, want_rank, want_nullity = case
    errors = []
    label = f"{family}/{n} q={q}"
    if rank != want_rank:
        errors.append(f"{label}: rank {rank}, expected {want_rank}")
    if len(kernel) != want_nullity:
        errors.append(f"{label}: kernel dimension {len(kernel)}, expected {want_nullity}")
    if family in BASIS_COUNTS and recursion_rank(family, n) != rank:
        errors.append(f"{label}: rank {rank} disagrees with the recursion")
    h = qt.get_algebra(family)
    for v in kernel:
        red = qt.Tensor2(family)
        for o, c in v.terms.items():
            red = red + qt.reduced_coproduct(h, o, q).scale(c)
        if not red.is_zero() or v.is_zero():
            errors.append(f"{label}: kernel vector {qt.render_element(v)} is not primitive")
            break
    return errors


def run_ranks(qt, clock=time.monotonic):
    """All four cases are one request: a single case is too short to time
    steadily on a shared machine."""
    outputs = []
    crashed = []
    t_first = clock()
    for case in RANK_CASES:
        family, n, q = case[:3]
        try:
            h = qt.get_algebra(family)
            rank = qt.primitive_rank(h, n, q)
            kernel = qt.primitive_kernel_basis(h, n, q)
        except Exception as exc:
            rank, kernel = None, []
            crashed.append(f"{family}/{n} q={q}: raised {exc!r}")
        outputs.append((rank, kernel))
    wall = clock() - t_first
    return {
        "wall_s": wall,
        "latencies_s": [wall],
        "outputs": outputs,
        "crashed": crashed,
    }


def finish_ranks(qt, res: dict) -> dict:
    """Gate and digest the ranks outputs; runs after the timed region."""
    errors = list(res.pop("crashed"))
    failed = 0
    h = hashlib.sha256()
    for case, (rank, kernel) in zip(RANK_CASES, res.pop("outputs")):
        errs = gate_rank_case(qt, case, rank, kernel)
        failed += bool(errs)
        errors += errs
        h.update(f"{case[:3]} {rank}\n".encode())
        for v in kernel:
            h.update((qt.render_element(v) + "\n").encode())
    res.update(
        attempted=len(RANK_CASES), failed=failed, errors=errors, digest=h.hexdigest()
    )
    return res


# ----------------------------------------------------------------- session

SESSION_REQUESTS = 16128  # 96 blocks of request_shapes(): long, to narrow the spread from seed to seed
SESSION_MAX_DEGREE = 6
SESSION_OBJECTS_SEED = 0  # the session's basis objects do not depend on --seed
OPS = ("left", "middle", "right", "star", "coproduct", "brace", "e_tri", "reconstruct")


def _random_surjection(rng: random.Random, n: int) -> tuple:
    w = [rng.randint(1, n) for _ in range(n)]
    rank = {v: i + 1 for i, v in enumerate(sorted(set(w)))}
    return tuple(rank[v] for v in w)


def _random_parking(rng: random.Random, n: int) -> tuple:
    while True:
        w = tuple(rng.randint(1, n) for _ in range(n))
        if all(v <= i for i, v in enumerate(sorted(w), start=1)):
            return w


def _random_tree_text(rng: random.Random, leaves: int) -> str:
    if leaves == 1:
        return "|"
    arity = rng.randint(2, leaves)
    cuts = sorted(rng.sample(range(1, leaves), arity - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [leaves])]
    return "V(" + ",".join(_random_tree_text(rng, s) for s in sizes) + ")"


def _random_mperm(rng: random.Random, n: int) -> list:
    while True:
        blocks = rng.randint(1, n)
        label = [rng.randrange(blocks) for _ in range(n)]
        parts = [sorted(v + 1 for v in range(n) if label[v] == b) for b in range(blocks)]
        parts = [p for p in parts if p]
        if not any(v + 1 in p for p in parts for v in p):
            rng.shuffle(parts)
            return parts


def basis_text(rng: random.Random, family: str, n: int) -> str:
    """A random degree-n basis object of the family, in the input grammar."""
    if family == "st":
        return "(" + ",".join(map(str, _random_surjection(rng, n))) + ")"
    if family == "pqsym":
        return "(" + ",".join(map(str, _random_parking(rng, n))) + ")"
    if family == "tree":
        return _random_tree_text(rng, n + 1)
    return "[" + ",".join("(" + ",".join(map(str, p)) + ")" for p in _random_mperm(rng, n)) + "]"


def element_text(rng: random.Random, bases: list) -> str:
    """Signed terms c*q^e*b, one for each basis text b, with random c and e."""
    out = ""
    for i, basis in enumerate(bases):
        c, e = rng.randint(1, 3), rng.randint(0, 2)
        coeff = [str(c)] if c > 1 else []
        coeff += ["q" if e == 1 else f"q^{e}"] if e else []
        term = "*".join(coeff + [basis])
        minus = rng.random() < 0.3
        if i == 0:
            out = ("-" if minus else "") + term
        else:
            out += (" - " if minus else " + ") + term
    return out


def compositions(total: int, parts: int) -> list:
    """All ways to write total as an ordered sum of `parts` positive degrees."""
    return [
        [b - a for a, b in zip((0,) + cuts, cuts + (total,))]
        for cuts in itertools.combinations(range(1, total), parts - 1)
    ]


ARITY = {"coproduct": 1, "e_tri": 1, "reconstruct": 1, "brace": 3}


def request_shapes() -> list:
    """Every (family, op, total degree) the session draws from."""
    return [
        (family, op, total)
        for family in FAMILIES
        for op in OPS
        for total in range(ARITY.get(op, 2), SESSION_MAX_DEGREE + 1)
    ]


def session_requests(seed: int, count: int = SESSION_REQUESTS) -> list:
    """(family, op, [element texts]) requests with symbolic q.

    The stream is a sequence of blocks; each block holds every shape of
    request_shapes() once.  In block b a shape takes the b-th split of its
    total degree among its arguments (cyclically) and 1 + (b + j) % 3
    terms in argument j.  The basis objects of the terms come from a fixed
    random stream, so every seed asks for the same products, coproducts
    and braces and fills the module caches with the same entries.  The
    seed sets the order of the requests in each block and the coefficient
    and sign of every term.  With seeded basis objects the pass time
    varied by up to 20 % from seed to seed, following the size of the
    caches each seed filled.
    """
    rng = random.Random(seed)
    objects = random.Random(SESSION_OBJECTS_SEED)
    shapes = request_shapes()
    reqs = []
    b = 0
    while len(reqs) < count:
        block = []
        for family, op, total in shapes:
            splits = compositions(total, ARITY.get(op, 2))
            degrees = splits[b % len(splits)]
            bases = [[basis_text(objects, family, d) for _ in range(1 + (b + j) % 3)]
                     for j, d in enumerate(degrees)]
            block.append((family, op, bases))
        rng.shuffle(block)
        for family, op, bases in block[: count - len(reqs)]:
            reqs.append((family, op, [element_text(rng, terms) for terms in bases]))
        b += 1
    return reqs


def serve(qt, handles: dict, req):
    """One request: parse, compute, render.  Returns (text, parsed input, result)."""
    family, op, texts = req
    h = handles[family]
    args = [qt.parse_element(family, t) for t in texts]
    if op == "coproduct":
        return qt.render_tensor2(qt.el_coproduct(h, args[0])), args, None
    if op == "brace":
        out = qt.brace(h, args[0], args[1:])
    elif op == "e_tri":
        out = qt.e_tri(h, args[0])
    elif op == "reconstruct":
        out = qt.reconstruct(h, args[0])
    else:
        out = qt.el_product(h, op, args[0], args[1])
    return qt.render_element(out), args, out


def gate_session(reqs: list, results: list) -> tuple[int, list]:
    """(failed, errors): a crash (None) or reconstruct(x) != x fails."""
    failed, errors = 0, []
    for i, (req, res) in enumerate(zip(reqs, results)):
        if res is None:
            failed += 1
            errors.append(f"request {i} {req[0]} {req[1]}: crashed")
        elif req[1] == "reconstruct" and res[2] != res[1][0]:
            failed += 1
            errors.append(f"request {i} {req[0]}: reconstruct(x) != x for {req[2][0]}")
    return failed, errors


PINNED = Path(__file__).with_name("session_digests.json")


def pinned_session_digest(seed: int) -> str | None:
    """The session digest recorded for this seed by pin_session.py, if any."""
    pins = json.loads(PINNED.read_text())
    if pins["requests"] != SESSION_REQUESTS:
        return None
    return pins["digests"].get(str(seed))


def session_digest(texts: list) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode() + b"\n")
    return h.hexdigest()


def run_session(qt, handles: dict, reqs: list, clock=time.monotonic, between=None):
    """`between`, if given, runs before each request, outside its latency."""
    results, lat = [], []
    t_first = clock()
    for req in reqs:
        if between is not None:
            between()
        t0 = clock()
        try:
            res = serve(qt, handles, req)
        except Exception as exc:
            res = None
            print(f"perfbench: request {req} raised {exc!r}", file=sys.stderr)
        lat.append(clock() - t0)
        results.append(res)
    wall = clock() - t_first
    failed, errors = gate_session(reqs, results)
    texts = ["<crash>" if r is None else r[0] for r in results]
    return {
        "wall_s": wall,
        "latencies_s": lat,
        "attempted": len(reqs),
        "failed": failed,
        "errors": errors,
        "digest": session_digest(texts),
    }
