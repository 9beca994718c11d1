"""Record the session workload's output digest for a range of seeds.

    PYTHONPATH=src python3 perfbench/pin_session.py FIRST LAST

Run from the root of a checkout whose outputs are trusted.  Merges the
digests of seeds FIRST..LAST into session_digests.json, which run.py checks
every session pass against.  Outputs do not depend on cache state, so the
seeds share one process.
"""

import json
import sys

import qtridend as qt

import workloads as wl


def main(first: int, last: int) -> int:
    pins = {"requests": wl.SESSION_REQUESTS, "digests": {}}
    if wl.PINNED.is_file():
        old = json.loads(wl.PINNED.read_text())
        if old["requests"] == wl.SESSION_REQUESTS:
            pins = old
    handles = {name: qt.get_algebra(name) for name in wl.FAMILIES}
    for seed in range(first, last + 1):
        res = wl.run_session(qt, handles, wl.session_requests(seed))
        if res["failed"] or res["errors"]:
            print(f"seed {seed}: {res['errors'][:3]}", file=sys.stderr)
            return 1
        pins["digests"][str(seed)] = res["digest"]
        print(f"seed {seed}: {res['digest']}", flush=True)
    pins["digests"] = dict(sorted(pins["digests"].items(), key=lambda kv: int(kv[0])))
    wl.PINNED.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
