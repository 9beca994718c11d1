"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import signal
import statistics
from collections import Counter
from pathlib import Path

import qtridend as qt
import qtridend.verify  # noqa: F401
import pytest

import run
import speed
import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def test_session_stream_is_deterministic_per_seed():
    a, b = wl.session_requests(7, 400), wl.session_requests(7, 400)
    assert a == b
    assert a != wl.session_requests(8, 400)


def test_session_mix_is_the_same_for_every_seed():
    def mix(seed):
        return Counter((f, op, len(texts)) for f, op, texts in wl.session_requests(seed))

    assert mix(1) == mix(2)
    assert len(wl.session_requests(1)) == wl.SESSION_REQUESTS
    assert wl.SESSION_REQUESTS % len(wl.request_shapes()) == 0


def test_session_inputs_parse_and_respect_the_degree_budget():
    for family, op, texts in wl.session_requests(3, 2 * len(wl.request_shapes())):
        h = qt.get_algebra(family)
        total = 0
        for text in texts:
            el = qt.parse_element(family, text)
            assert not el.unit
            total += max(h.degree(o) for o in el.terms) if el.terms else 0
        assert total <= wl.SESSION_MAX_DEGREE


def _small_work():
    h = qt.get_algebra("st")
    x = qt.parse_element("st", "(1,2) + 2*q*(2,1)")
    y = qt.parse_element("st", "(1,1)")
    outs = [qt.render_element(qt.el_product(h, "left", x, y)),
            qt.render_element(qt.reconstruct(h, x)),
            qt.render_tensor2(qt.el_coproduct(h, x))]
    report = qt.verify.run_task(("axioms", {"algebra": "tree", "max_total_degree": 3}))
    return outs, {k: v for k, v in report.items() if k != "elapsed_s"}


def test_tracer_wraps_and_restores_every_binding():
    before = tr.snapshot()
    orig = qt.linear.bilinear_extend
    plain = _small_work()
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert qt.linear.bilinear_extend is not orig
        assert qt.algebras.bilinear_extend is qt.linear.bilinear_extend
        assert qt.verify.bilinear_extend is qt.linear.bilinear_extend
        assert qt.QPoly.__rmul__ is qt.QPoly.__mul__
        assert tr.snapshot() != before
        traced = _small_work()
    finally:
        missing = tracer.uninstall()
    assert missing == []
    assert tr.snapshot() == before
    assert traced == plain
    calls, self_s, top = tracer.self_times()
    assert calls["algebras.el_product"] >= 1 and calls["verify"] == 1
    assert all(v >= 0 for v in self_s.values())
    assert tracer.counts["qpoly.new"][0] > 0


def test_self_time_subtracts_children_of_recursive_spans():
    tracer = tr.Tracer()

    def fib(n):
        return n if n < 2 else wrapped(n - 1) + wrapped(n - 2)

    wrapped = tracer._span("fib", fib)
    wrapped(6)
    calls, self_s, top = tracer.self_times()
    total = sum(e - s for s, e, p in zip(tracer.span_start, tracer.span_end, tracer.span_parent) if p < 0)
    assert calls["fib"] == 25
    assert top == pytest.approx(total)
    assert self_s["fib"] == pytest.approx(top)


def test_verify_gate_counts_the_failure_tail_and_crashes():
    tasks = wl.verify_tasks(None)[:3]
    assert all(kw.get("qval") == 1 for s, kw, _ in wl.verify_tasks(1) if s not in ("golden", "dims"))
    good = [{"suite": s, "checks": n, "failures": [], "ok": True} for s, _, n in tasks]
    assert wl.gate_verify(good, tasks) == (4496 + 680 + 27, 0, [])
    bad = [dict(r) for r in good]
    bad[1].update(ok=False, failures=["(a<b)<c = a<(b*c) fails"] * 20 + ["... and 5 more failures"])
    assert wl.gate_verify(bad, tasks)[1] == 25
    bad[1] = None
    assert wl.gate_verify(bad, tasks)[1] == 4496
    bad[1] = dict(good[1], checks=4495)
    assert wl.gate_verify(bad, tasks)[1] == 4496


def test_rank_gate_rejects_corrupted_outputs():
    case = ("pqsym", 4, 1, 92, 92)
    h = qt.get_algebra("pqsym")
    rank = qt.primitive_rank(h, 4, 1)
    kernel = qt.primitive_kernel_basis(h, 4, 1)
    assert wl.gate_rank_case(qt, case, rank, kernel) == []
    assert wl.gate_rank_case(qt, case, rank - 1, kernel)
    assert wl.gate_rank_case(qt, case, rank, kernel[1:])
    broken = kernel[0] + qt.Element.basis("pqsym", (1, 2, 3, 4))
    assert wl.gate_rank_case(qt, case, rank, [broken] + kernel[1:])


def test_rank_recursion_matches_the_pinned_cases():
    assert wl.recursion_rank("st", 5) == 541 - 173 == 368
    assert wl.recursion_rank("tree", 5) == 197 - 107 == 90


def test_session_gate_rejects_a_wrong_reconstruction_and_a_wrong_digest():
    reqs = wl.session_requests(0, 200)
    handles = {f: qt.get_algebra(f) for f in wl.FAMILIES}
    results = [wl.serve(qt, handles, r) for r in reqs]
    assert wl.gate_session(reqs, results) == (0, [])
    i = next(k for k, r in enumerate(reqs) if r[1] == "reconstruct")
    text, args, out = results[i]
    results[i] = (text, args, out + out)
    assert wl.gate_session(reqs, results)[0] == 1
    results[i] = None
    assert wl.gate_session(reqs, results)[0] == 1
    pinned = wl.pinned_session_digest(0)
    assert pinned is not None
    assert run.digest_errors("session", 0, [{"digest": pinned}]) == []
    assert run.digest_errors("session", 0, [{"digest": "0" * 64}])
    assert run.digest_errors("ranks", 0, [{"digest": "a"}, {"digest": "b"}])


def test_speed_clock_scales_work_time_and_skips_probes():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.SpeedClock() as clock:
        t0 = clock()
        while clock.elapsed_raw() < 0.6:
            sum(i * i for i in range(2000))
        reading = clock() - t0
    assert len(clock.probes) >= 5
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    work = clock.elapsed_raw() - sum(clock.probes)
    factor = speed.REF_S / statistics.median(clock.probes)
    assert reading == pytest.approx(work * factor, rel=0.3)


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tr.PER_LAYER
    ]
