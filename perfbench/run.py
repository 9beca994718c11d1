"""qtridend benchmark: time to a verified answer, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a source checkout.  Every pass runs in a fresh
interpreter started from here, one at a time (no pool), so it begins with
empty module caches and lru_caches, as a `qtridend` command does.

--trace 0 runs a few setup-only starts, then whole passes of the workload:
at least one, and more while the next is expected to end within
--seconds.  It prints every end-to-end metric (the median over passes).
Its times are in reference seconds (see speed.py): each is scaled by the
host's speed at the time, measured by a fixed probe loop, so that the drift
of a shared host's speed does not read as a change of the program.
--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics of the traced one, with the tracing overhead, in plain seconds.

Human-readable lines come first; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  A full record,
with the machine and source identity, is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out")
SETUP_PROBES = 8
RUN_BUDGET_S = 170.0  # a run must end within 180 s
EXPECTED_OPS = {"verify-sym": workloads.VERIFY_CHECKS, "verify-q1": workloads.VERIFY_CHECKS,
                "ranks": len(workloads.RANK_CASES), "session": workloads.SESSION_REQUESTS}
OP_NAME = {"verify-sym": "checks", "verify-q1": "checks", "ranks": "cases", "session": "requests"}

# (name, unit, better, bound).  A request is one element request on
# session and the whole pass on the other workloads, whose req_* metrics
# therefore follow wall_s.  Times are in reference seconds.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("req_p50_ms", "ms", "lower", 0.25),
    ("req_p99_ms", "ms", "lower", 0.25),
    ("req_per_s", "1/s", "higher", 0.25),
)


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def run_info(args, workload: str) -> dict:
    src = Path("src/qtridend")
    h = hashlib.sha256()
    for f in sorted(src.rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(f.relative_to(src).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
        "commit": git_commit(),
        "src_sha256": h.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, else None."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker to completion; a crash or timeout gives {'crash': why}.

    The worker's setup_s is scaled to reference seconds by the mean of the
    host speed measured here just before and just after it runs.
    """
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()), PYTHONHASHSEED="0")
    factor = speed.speed_factor()
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return {"crash": f"{mode} pass exceeded the run budget", "elapsed": time.monotonic() - t0}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"{mode} worker exited with {proc.returncode}", "elapsed": time.monotonic() - t0}
    res = json.loads(lines[-1])
    res["elapsed"] = time.monotonic() - t0
    res["setup_raw_s"] = res["setup_s"]
    res["setup_s"] *= (factor + speed.speed_factor()) / 2
    return res


def tally(workload: str, passes: list) -> tuple[int, int, list]:
    attempted = failed = 0
    errors = []
    for res in passes:
        if "crash" in res:
            attempted += EXPECTED_OPS[workload]
            failed += EXPECTED_OPS[workload]
            errors.append(res["crash"])
        else:
            attempted += res["attempted"]
            failed += res["failed"]
            errors += res["errors"]
    return attempted, failed, errors


def digest_errors(workload: str, seed: int, passes: list) -> list:
    """Every pass of a run computes the same outputs; session outputs also
    match the digest pinned for this seed, where one is pinned."""
    digests = {res["digest"] for res in passes if "digest" in res}
    errors = [] if len(digests) <= 1 else ["passes disagree on their outputs"]
    if workload == "session" and digests:
        pinned = workloads.pinned_session_digest(seed)
        if pinned is not None and digests != {pinned}:
            errors.append(f"session outputs differ from the digest pinned for seed {seed}")
    return errors


def end_to_end(passes: list, setups: list) -> dict:
    done = [p for p in passes if "crash" not in p]
    per_pass = {
        "wall_s": [p["wall_s"] for p in done],
        "peak_rss_mb": [p["rss_mb"] for p in done],
        "req_p50_ms": [percentile(p["latencies_s"], 50) * 1e3 for p in done],
        "req_p99_ms": [percentile(p["latencies_s"], 99) * 1e3 for p in done],
        "req_per_s": [len(p["latencies_s"]) / sum(p["latencies_s"]) for p in done],
    }
    out = {"setup_s": statistics.median(setups + [p["setup_s"] for p in done])}
    for name, values in per_pass.items():
        out[name] = statistics.median(values)
    return out


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[list, dict]:
    setups = []
    for _ in range(SETUP_PROBES):
        probe = spawn(workload, seed, "setup", deadline)
        if "crash" in probe:
            return [probe], {}
        setups.append(probe["setup_s"])
    start = time.monotonic()
    passes = [spawn(workload, seed, "pass", deadline)]
    while "crash" not in passes[-1]:
        expected = statistics.median(p["elapsed"] for p in passes)
        now = time.monotonic()
        if now - start + expected > seconds or now + 2 * expected > deadline:
            break
        passes.append(spawn(workload, seed, "pass", deadline))
    if any("crash" in p for p in passes):
        return passes, {}
    return passes, end_to_end(passes, setups)


def measure_traced(workload: str, seed: int, deadline: float) -> tuple[list, dict]:
    plain = spawn(workload, seed, "plain", deadline)
    if "crash" in plain:
        return [plain], {}
    traced = spawn(workload, seed, "trace", deadline)
    if "crash" in traced:
        return [plain, traced], {}
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    if layers["trace.coverage"] < 0.9:
        traced["errors"].append(f"top-level spans cover only {layers['trace.coverage']:.1%} of the traced pass")
    return [plain, traced], layers


def run_workload(workload: str, args, deadline: float) -> tuple[bool, int, int, dict]:
    """Measure one workload, print its lines and write its record."""
    info = run_info(args, workload)
    print("perfbench info " + json.dumps(info))
    if args.trace:
        passes, values = measure_traced(workload, args.seed, deadline)
        table = [(name, unit) for name, unit, _, _ in tracer.PER_LAYER]
    else:
        passes, values = measure(workload, args.seed, args.seconds, deadline)
        table = [(name, unit) for name, unit, _, _ in END_TO_END]
    attempted, failed, errors = tally(workload, passes)
    errors += digest_errors(workload, args.seed, passes)
    correct = bool(values) and failed == 0 and not errors

    done = [p for p in passes if "crash" not in p]
    samples = sum(len(p["latencies_s"]) for p in done)
    print(f"{workload}: passes={len(passes)} request samples={samples}"
          f" ({OP_NAME[workload]} per pass: {EXPECTED_OPS[workload]})")
    for p in done:
        if "wall_raw_s" in p:
            print(f"{workload}: pass of {p['wall_s']:.4g} reference s: {p['work_raw_s']:.4g} s of work,"
                  f" {p['wall_raw_s']:.4g} s with probes (probe median {p['probe_median_s'] * 1e3:.3g} ms,"
                  f" {speed.REF_S * 1e3:.3g} ms at reference speed)")
    for name, unit in table:
        if name in values:
            print(f"{workload}: {name} = {values[name]:.6g} {unit}")
    print(f"{workload}: fail_ratio = {failed / max(attempted, 1):.6g}"
          f" ({failed} failed of {attempted} {OP_NAME[workload]})")
    for e in errors[:20]:
        print(f"{workload}: error: {e}")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table if name in values}
    OUT.mkdir(exist_ok=True)
    record = dict(info, correct=correct, attempted=attempted, failed=failed, errors=errors,
                  metrics=metrics, passes=[{k: v for k, v in p.items() if k != "latencies_s"} for p in passes])
    tag = f"{workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                    help="one workload, or all of them in turn (the JSON line then keys"
                         " metrics as WORKLOAD.METRIC)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/qtridend/__init__.py").is_file():
        print("perfbench: run from the root of a qtridend checkout (src/qtridend not found)", file=sys.stderr)
        return 2
    if args.workload != "all":
        correct, attempted, failed, metrics = run_workload(
            args.workload, args, time.monotonic() + RUN_BUDGET_S)
    else:
        correct, attempted, failed, metrics = True, 0, 0, {}
        for w in workloads.WORKLOADS:
            ok, a, f, m = run_workload(w, args, time.monotonic() + RUN_BUDGET_S)
            correct, attempted, failed = correct and ok, attempted + a, failed + f
            metrics.update({f"{w}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
