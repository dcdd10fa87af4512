"""Tests of the benchmark's own helper logic: the latency tail rule, span
self times, wrapper restore, the speed conversion, workload renaming and
the metric names that BENCHMARK.json declares.

    python -m pytest bench/tests
"""

import json
import random
import signal
import time
import types

import pytest

import harness
import speed
import workloads
from pipeline import tail
from tracing import Tracer, patched, traced
from treeflow.generator import generate_instance
from treeflow.graphs import sort_key


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.mark.parametrize("n, pct, value", [
    (500, 98.0, 490),
    (1000, 99.0, 990),
    (11, 100.0 / 11, 1),
    (10, 100.0, 10),
    (2, 100.0, 2),
])
def test_tail_leaves_exactly_ten_samples_beyond(n, pct, value):
    samples = list(range(1, n + 1))
    random.Random(n).shuffle(samples)
    got_pct, got = tail(samples)
    assert got_pct == pytest.approx(pct)
    assert got == value
    if n > 10:
        assert sum(1 for x in samples if x > got) == 10


def _recursive_program(clock):
    """solve -> _solve_rec -> partition_step -> _solve_rec (twice), three levels deep."""
    ns = types.SimpleNamespace()

    def solve():
        clock.advance(0.25)
        ns.solve_rec(0)

    def solve_rec(depth):
        clock.advance(1.0)
        if depth < 2:
            ns.partition_step(depth)

    def partition_step(depth):
        clock.advance(2.0)
        ns.solve_rec(depth + 1)
        ns.solve_rec(depth + 1)
        clock.advance(0.5)

    ns.solve, ns.solve_rec, ns.partition_step = solve, solve_rec, partition_step
    layers = [(ns, "solve", "solver.solve", None),
              (ns, "solve_rec", "solver._solve_rec", None),
              (ns, "partition_step", "solver.partition_step", None)]
    return ns, layers


def test_self_time_of_nested_and_recursive_spans():
    clock = FakeClock()
    ns, layers = _recursive_program(clock)
    tracer = Tracer(clock)
    with traced(tracer, layers):
        ns.solve()
    summary = tracer.summary()
    # _solve_rec runs at depths 0, 1, 1, 2, 2, 2, 2; partition_step at 0, 1, 1
    assert summary["solver._solve_rec"].calls == 7
    assert summary["solver._solve_rec"].self_s == pytest.approx(7 * 1.0)
    assert summary["solver.partition_step"].calls == 3
    assert summary["solver.partition_step"].self_s == pytest.approx(3 * 2.5)
    assert summary["solver.solve"].self_s == pytest.approx(0.25)
    total = clock.t
    assert sum(rec.self_s for rec in summary.values()) == pytest.approx(total)
    assert tracer.coverage("solver.solve") == pytest.approx((total - 0.25) / total)


def test_work_count_sums_over_calls():
    ns = types.SimpleNamespace(size=lambda xs: len(xs))
    tracer = Tracer(FakeClock())
    with traced(tracer, [(ns, "size", "flows.max_flow.solver", lambda xs: len(xs))]):
        ns.size([1, 2, 3])
        ns.size([4])
    assert tracer.summary()["flows.max_flow.solver"].work == 4


def test_wrappers_are_restored_after_the_pass():
    clock = FakeClock()
    ns, layers = _recursive_program(clock)

    class Core:
        def run(self):
            return "ran"

    original = dict(vars(ns))
    original_run = vars(Core)["run"]
    tracer = Tracer(clock)
    with pytest.raises(RuntimeError):
        with traced(tracer, layers + [(Core, "run", "solver._FreeCore.run", None)]):
            assert ns.solve is not original["solve"]
            assert Core().run() == "ran"
            raise RuntimeError("a pass that fails still restores")
    assert vars(ns) == original
    assert vars(Core)["run"] is original_run

    tracer.reset()
    ns.solve()
    assert Core().run() == "ran"
    assert tracer.summary() == {}


def test_partial_patch_is_undone_when_a_later_name_is_missing():
    ns = types.SimpleNamespace(f=lambda: 1)
    original = ns.f
    with pytest.raises(KeyError):
        with patched([(ns, "f", lambda: 2), (ns, "missing", lambda: 3)]):
            pass
    assert ns.f is original
    assert not hasattr(ns, "missing")


def test_speed_conversion_drops_probe_time_and_follows_the_speed():
    clock = FakeClock()
    probe_time = [speed.REFERENCE_PROBE_S]
    meter = speed.Speedometer(clock, probe=lambda: clock.advance(probe_time[0]))
    start = clock()
    for _ in range(4):  # one second of work at the reference speed, probed as it runs
        clock.advance(0.25)
        meter.probe_now()
    end = clock()
    assert meter.seconds(start, end) == pytest.approx(1.0)

    clock.advance(10.0)  # the machine slows to half speed, far from the first probes
    probe_time[0] *= 2
    start = clock()
    for _ in range(4):  # the same work now takes two seconds
        clock.advance(0.5)
        meter.probe_now()
    end = clock()
    assert meter.seconds(start, end) == pytest.approx(1.0)


def test_speed_probes_on_a_timer_until_exit():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer() as meter:
        deadline = time.perf_counter() + 4 * speed.PROBE_INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(meter.durations) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def _order(ids):
    return sorted(range(len(ids)), key=lambda i: sort_key(ids[i]))


def test_rename_keeps_structure_and_id_order():
    doc = generate_instance(239, *workloads.corpus_params(239))
    new = workloads.rename(doc, random.Random(1))
    old_arcs, new_arcs = doc["graph"]["arcs"], new["graph"]["arcs"]
    vname = dict(zip(doc["graph"]["vertices"], new["graph"]["vertices"]))
    assert len(set(vname.values())) == len(vname)
    assert _order(doc["graph"]["vertices"]) == _order(new["graph"]["vertices"])
    assert _order([a["id"] for a in old_arcs]) == _order([a["id"] for a in new_arcs])
    assert [(vname[a["tail"]], vname[a["head"]], a["cap"]) for a in old_arcs] == \
        [(a["tail"], a["head"], a["cap"]) for a in new_arcs]
    assert new["terminals"] == [vname[t] for t in doc["terminals"]]
    assert new["subtrees"] == {vname[t]: sub for t, sub in doc["subtrees"].items()}
    assert new["tree"] == doc["tree"]


def test_benchmark_json_declares_the_metrics_the_harness_prints():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == harness.end_to_end_names()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == harness.per_layer_names()
