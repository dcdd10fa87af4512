"""Benchmark run: set-up, timed passes, metrics and the result line.

A run is one process on one thread, in a closed loop: instances go one
at a time through the whole pipeline (pipeline.py), pass after pass over
the workload's instance set (workloads.py), until --seconds have
elapsed; at least one pass always runs.

``--trace 0`` measures with nothing wrapped and reports the end-to-end
metrics.  ``--trace 1`` spends half the time on untraced passes and half
on traced ones (tracing.py), and reports per-layer calls, self time and
work, the exact work counts, the tracing overhead (traced over untraced
median pass time) and the share of the solve span that the traced
layers below it account for.

Timings are reported in reference seconds (speed.py): measured seconds
corrected for the speed the shared host ran at while they were taken.
Standard output lists every metric with its unit and sample count, the
measured seconds, the environment and the exact work counts; its last
line is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

import pipeline
import workloads
from speed import REFERENCE_PROBE_S, Speedometer
from tracing import LayerTotals, Tracer, traced

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("scale", "corpus", "stall")
SETUP_REPEATS = 3

# Work counts of the ROADMAP baseline, at seed 0.
BASELINE = {
    "scale": {"max flows per instance": [139, 299], "recursion depth per instance": [5, 6]},
    "corpus": {"free-core runs": 1200, "fallbacks": 12},
    "stall": {"fallbacks": 3},
}

Metrics = Dict[str, Tuple[float, str, int]]  # name -> (value, unit, sample count)


def parse_args(argv: List[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def end_to_end_names() -> List[Tuple[str, str]]:
    return [("setup_s", "s"), ("pipeline_s", "s"), ("solve_s", "s"), ("verify_s", "s"),
            ("dual_s", "s"), ("solve_ms.p50", "ms"), ("solve_ms.tail", "ms"),
            ("peak_rss_mb", "MB")]


def _layer_names(with_work: bool = False) -> List[str]:
    return list(dict.fromkeys(name for _owner, _attr, name, work in pipeline.LAYERS
                              if work is not None or not with_work))


def per_layer_names() -> List[Tuple[str, str]]:
    out = []
    for name in _layer_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{name}.arcs", "count") for name in _layer_names(with_work=True)]
    return out + [("solver.maxflow_calls", "count"), ("solver.recursion_depth", "count"),
                  ("solver.fallbacks", "count"), ("solver.free_core_runs", "count"),
                  ("solver.fallback_ratio", "ratio"), ("trace_overhead", "ratio"),
                  ("solve_coverage", "ratio")]


def set_up(workload: str, seed: int):
    """Instance documents, and the (start, end) clock times of SETUP_REPEATS builds."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = pipeline.clock()
        texts = workloads.build(workload, seed)
        times.append((t0, pipeline.clock()))
    return texts, times


def measure(texts: List[str], seconds: float, tracer: Tracer = None):
    """Passes over the instances until ``seconds`` have elapsed (at least one).

    With a tracer, each pass runs with every layer wrapped, and its span
    summary and solve coverage are kept alongside it.
    """
    passes, spans = [], []
    deadline = pipeline.clock() + seconds
    while not passes or pipeline.clock() < deadline:
        if tracer is None:
            passes.append(pipeline.run_pass(texts))
            continue
        tracer.reset()
        with traced(tracer, pipeline.LAYERS):
            passes.append(pipeline.run_pass(texts))
        spans.append((tracer.summary(), tracer.coverage(pipeline.ROOT_SPAN)))
    if tracer is not None:
        tracer.reset()
    return passes, spans


def end_to_end(setup_times: List[float], passes) -> Tuple[Metrics, float]:
    """End-to-end metrics, and the percentile the latency tail stands for.

    Timings are medians over passes, in reference seconds; latency
    samples are per-instance medians over passes, so their number is the
    instance count.
    """
    n = len(passes)
    latency = [statistics.median(p.solve_ms[i] for p in passes)
               for i in passes[0].solve_ms if all(i in p.solve_ms for p in passes)] or [0.0]
    pct, tail_ms = pipeline.tail(latency)

    def step(name):
        return statistics.median(p.step_s[name] for p in passes)

    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "pipeline_s": (statistics.median(p.pipeline_s for p in passes), "s", n),
        "solve_s": (step("solve"), "s", n),
        "verify_s": (step("verify"), "s", n),
        "dual_s": (step("dual"), "s", n),
        "solve_ms.p50": (statistics.median(latency), "ms", len(latency)),
        "solve_ms.tail": (tail_ms, "ms", len(latency)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    return metrics, pct


def per_layer(plain, traced_passes, spans, speed: Speedometer) -> Metrics:
    last = spans[-1][0]
    k = len(spans)
    # self times in reference seconds, at the speed of the whole pass; they
    # include the speed probes that interrupted them (about 2%)
    scale = [speed.scale(p.start, p.end) for p in traced_passes]

    def totals(summary, name) -> LayerTotals:
        return summary.get(name, LayerTotals())

    metrics: Metrics = {}
    for name in _layer_names():
        metrics[f"{name}.calls"] = (totals(last, name).calls, "count", 1)
        metrics[f"{name}.self_s"] = (statistics.median(totals(s, name).self_s * f for (s, _c), f
                                                       in zip(spans, scale)), "s", k)
    for name in _layer_names(with_work=True):
        metrics[f"{name}.arcs"] = (totals(last, name).work, "count", 1)
    counts = traced_passes[-1].counts or [(0, 0)]
    fallbacks = totals(last, pipeline.FALLBACK_SPAN).calls
    runs = totals(last, pipeline.FREE_CORE_SPAN).calls
    metrics["solver.maxflow_calls"] = (sum(c[0] for c in counts), "count", 1)
    metrics["solver.recursion_depth"] = (max(c[1] for c in counts), "count", 1)
    metrics["solver.fallbacks"] = (fallbacks, "count", 1)
    metrics["solver.free_core_runs"] = (runs, "count", 1)
    metrics["solver.fallback_ratio"] = (fallbacks / runs if runs else 0.0, "ratio", 1)
    overhead = (statistics.median(p.total_s for p in traced_passes)
                / statistics.median(p.total_s for p in plain))
    metrics["trace_overhead"] = (overhead, "ratio", k)
    metrics["solve_coverage"] = (statistics.median(c for _s, c in spans), "ratio", k)
    return metrics


def exact_counts(passes, spans) -> Dict[str, object]:
    """Work counts that must repeat exactly from pass to pass and run to run."""
    counts = passes[-1].counts
    out: Dict[str, object] = {
        "max flows per instance": [c[0] for c in counts],
        "recursion depth per instance": [c[1] for c in counts],
    }
    if spans:
        last = spans[-1][0]
        for label, name in (("free-core runs", pipeline.FREE_CORE_SPAN),
                            ("fallbacks", pipeline.FALLBACK_SPAN),
                            ("max_flow calls (solver)", "flows.max_flow.solver"),
                            ("max_flow calls (certify)", "flows.max_flow.certify"),
                            ("contract calls", "graphs.contract"),
                            ("decompose calls", "flows.decompose")):
            out[label] = last[name].calls if name in last else 0
    return out


def counts_repeat(passes, spans) -> bool:
    calls = [{name: rec.calls for name, rec in summary.items()} for summary, _c in spans]
    return (all(p.counts == passes[0].counts for p in passes)
            and all(c == calls[0] for c in calls))


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
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
    return "unknown"


def environment(seed: int) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    env = environment(args.seed)

    with Speedometer() as speed:
        texts, setup_spans = set_up(args.workload, args.seed)
        if args.trace:
            plain, _ = measure(texts, args.seconds / 2)
            traced_passes, spans = measure(texts, args.seconds / 2, Tracer())
        else:
            plain, spans = measure(texts, args.seconds)
            traced_passes = []
    setup_times = [speed.seconds(a, b) for a, b in setup_spans]
    passes = plain + traced_passes
    for p in passes:
        p.convert(speed)

    e2e, tail_pct = end_to_end(setup_times, plain)
    layers = per_layer(plain, traced_passes, spans, speed) if args.trace else {}
    failures = [f for p in passes for f in p.failures]
    attempted = len(texts) * len(passes)

    print(f"workload {args.workload}: {len(texts)} instances, {len(plain)} untraced "
          f"and {len(traced_passes)} traced passes")
    for key, value in env.items():
        print(f"env {key} = {value}")
    for name, (value, unit, n) in {**e2e, **layers}.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    print(f"solve_ms.tail is p{tail_pct:.4g} of the per-instance medians")
    raw = {s: statistics.median(p.raw_step_s[s] for p in plain) for s in pipeline.STEPS}
    print("measured seconds per step (median over untraced passes): "
          + ", ".join(f"{s} {v:.6g}" for s, v in raw.items()))
    print(f"speed probe: median {statistics.median(speed.durations) * 1000:.4g} ms over "
          f"{len(speed.durations)} probes, reference {REFERENCE_PROBE_S * 1000:.4g} ms")
    print(f"failed_frac = {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    for f in failures[:10]:
        print(f"failure {f}")
    counts = exact_counts(passes, spans)
    for label, value in counts.items():
        if isinstance(value, list) and len(value) > 8:
            digest = hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]
            value = f"sum {sum(value)}, max {max(value)}, digest {digest}"
        print(f"count {label} = {value}")
    print(f"counts repeat over {len(passes)} passes: {'yes' if counts_repeat(passes, spans) else 'NO'}")
    if args.seed == 0:
        for label, expect in BASELINE[args.workload].items():
            if label in counts:
                verdict = "matches" if counts[label] == expect else "DIFFERS from"
                print(f"baseline {label}: {counts[label]} {verdict} {expect}")

    chosen = per_layer_names() if args.trace else end_to_end_names()
    metrics = {**e2e, **layers}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in chosen},
    }))
    return 0
