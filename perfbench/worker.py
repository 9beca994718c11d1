"""One pass of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED MODE SPAWNED

MODE is `setup` (import and handle lookup only), `pass` (one untraced
pass timed in reference seconds by a speed.SpeedClock), `plain` (one
untraced pass in plain seconds) or `trace` (one traced pass in plain
seconds).  SPAWNED is the parent's time.monotonic() just before it
started this process; the clock is system-wide, so setup_s covers
interpreter start, `import qtridend`, the harness import and handle
lookup.  The result is one JSON line on stdout.
"""

import sys
import time


def main(argv: list) -> int:
    workload, seed, mode, spawned = argv[1], int(argv[2]), argv[3], float(argv[4])
    import qtridend as qt
    import qtridend.verify  # noqa: F401  (the harness, as the CLI loads it)

    handles = {name: qt.get_algebra(name) for name in ("st", "pqsym", "tree", "mperm")}
    setup_s = time.monotonic() - spawned
    if mode == "setup":
        print(f'{{"setup_s": {setup_s!r}}}')
        return 0

    import contextlib
    import json
    import resource
    import statistics
    from pathlib import Path

    import speed as sp
    import tracer as tr
    import workloads as wl

    out = {"setup_s": setup_s, "errors": tr.cold_state_errors()}
    src = Path("src").resolve()
    if Path(qt.__file__).resolve().parent.parent != src:
        out["errors"].append(f"qtridend imported from {qt.__file__}, not from {src}")
    if workload == "session":
        reqs = wl.session_requests(seed)
    before = tr.snapshot()
    tracer = tr.Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    if mode == "pass":
        clock = sp.SpeedClock(timer=workload != "session")
    else:
        clock = contextlib.nullcontext(time.monotonic)
    try:
        with clock as now:
            if workload == "session":
                res = wl.run_session(qt, handles, reqs, now, getattr(now, "between", None))
            elif workload == "ranks":
                res = wl.run_ranks(qt, now)
            else:
                res = wl.run_verify(qt, None if workload == "verify-sym" else 1, now)
    finally:
        if tracer is not None:
            out["errors"] += [f"{b} not restored" for b in tracer.uninstall()]
    if mode == "pass":
        out["wall_raw_s"] = clock.elapsed_raw()
        out["work_raw_s"] = clock.work_raw()
        out["probe_median_s"] = statistics.median(clock.probes)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        if tr.snapshot() != before:
            out["errors"].append("package attributes differ after the tracer was removed")
        layers = tr.layer_metrics(tracer, res.get("suite_s", {}), res["wall_s"])
        out["layers"] = layers
        tracer.write(Path(".perfbench_out") / f"trace-{workload}")
    if workload == "ranks":
        res = wl.finish_ranks(qt, res)
    out["errors"] += res.pop("errors")
    out.update(res)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
