"""Host-speed scaling of the benchmark's times.

On a shared host the speed of a fixed piece of Python drifts by a factor
of up to 3 within seconds, for CPU time as much as for wall time, so two
runs of the same code can differ by more than any useful bound.  This
module measures that drift while the work runs and takes it out.

A *probe* is a fixed reference loop of interpreter work (calls, tuple keys,
dict updates, small and big integer arithmetic) with the collector off.
REF_S is its duration at reference speed.  (On a 2-vCPU cloud VM with
CPython 3.11 it takes 5 to 9 ms.)  A `SpeedClock` runs a probe after every
INTERVAL_S seconds of work, from a SIGALRM handler in the pass's own
thread or, with timer=False, when the caller asks between two requests.
It reads in *reference seconds*: it advances by the elapsed work time
times scale(p), where p is the median of the last three probes, and
stands still while a probe runs.  scale(p) is (REF_S / p) ** SLOPE, and
SLOPE is below 1 because package code slows less than the probe when the
host is loaded.  The probes are fixed code of the benchmark, so a change
to the package moves the reading, and a change in the host's speed mostly
does not.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

REF_S = 0.005  # the unit: a probe takes REF_S at reference speed
INTERVAL_S = 0.05  # work time between probes
SLOPE = 0.85  # package code slows less than the probe: see README.md
_WARM_PROBES = 3  # made before the pass starts
_ROUNDS = 15000
_BIG = 7 ** 120


def _reference_loop() -> int:
    acc: dict = {}
    total = 0
    for i in range(_ROUNDS):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + i * 3
        total += _step(i, key)
    return total + (_BIG * (total | 1)) % 1_000_003


def _step(i: int, key: tuple) -> int:
    return (i * key[0] + key[1]) % 97


def probe() -> float:
    """Seconds the reference loop takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(probe_s: float) -> float:
    """Reference seconds per second on a host where the probe takes probe_s."""
    return (REF_S / probe_s) ** SLOPE


def speed_factor(rounds: int = 3) -> float:
    """scale() of the median of a few probes made now."""
    return scale(statistics.median(probe() for _ in range(rounds)))


class SpeedClock:
    """A clock in reference seconds, for timing one pass in this thread.

    Use as `with SpeedClock() as clock: ... t0 = clock() ...`.  With
    timer=False no alarm is set, and the caller runs `between()` between
    its requests instead, so that no request is cut by a probe.  Every
    probe duration is kept in `probes`; `elapsed_raw()` is the plain wall
    time from start to exit, probes included.
    """

    def __init__(self, timer: bool = True):
        self.timer = timer
        self.probes: list = []
        self._state = (0.0, 0.0, 1.0)  # (reading at mark, perf_counter at mark, factor)
        self._started = 0.0
        self._ended = None
        self._old_handler = None

    def __enter__(self) -> "SpeedClock":
        self.probes = [probe() for _ in range(_WARM_PROBES)]
        now = time.perf_counter()
        self._started = now
        self._state = (0.0, now, scale(statistics.median(self.probes)))
        if self.timer:
            self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._ended = time.perf_counter()
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)

    def between(self) -> None:
        """Probe if INTERVAL_S has passed since the last probe."""
        if time.perf_counter() - self._state[1] >= INTERVAL_S:
            self._probe_now()

    def _on_alarm(self, signum, frame) -> None:
        self._probe_now()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def _probe_now(self) -> None:
        now = time.perf_counter()
        reading, mark, factor = self._state
        reading += (now - mark) * factor
        self.probes.append(probe())
        factor = scale(statistics.median(self.probes[-3:]))
        self._state = (reading, time.perf_counter(), factor)

    def __call__(self) -> float:
        # Read the time before the state: if a probe runs in between, its
        # mark is later than `now` and the reading is the one at its start.
        now = time.perf_counter()
        reading, mark, factor = self._state
        return reading + max(0.0, now - mark) * factor

    def elapsed_raw(self) -> float:
        end = time.perf_counter() if self._ended is None else self._ended
        return end - self._started

    def work_raw(self) -> float:
        """elapsed_raw() without the probes."""
        return self.elapsed_raw() - sum(self.probes[_WARM_PROBES:])
