"""One closed-loop pass of the user pipeline over an instance set.

Per instance, through the public API: parse -> solve -> to_paths ->
serialize_result, then verify_certificate on the emitted paths plus
check_feasible on the component form, then the dual_value oracle.  Each
step is timed on its own and converted to reference seconds (speed.py),
and every answer is checked: the value must equal the dual value, the
certificate must verify and the multiflow must be feasible.  An instance
failing any check, or raising, is a failure.

Calls go through module attributes (``solver.solve``, not a name bound
at import), so the traced run sees them through its wrappers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from speed import Speedometer
from treeflow import certify, documents, multiflow, realization, solver

clock = time.perf_counter


def _arcs(net, *_args, **_kwargs) -> int:
    return len(net.graph.arcs)


# (owner, attribute, span name, work count): every layer the traced run
# wraps.  A function called from two modules is wrapped at both names.
LAYERS = (
    (documents, "parse_instance", "documents.parse_instance", None),
    (documents, "serialize_result", "documents.serialize_result", None),
    (solver, "solve", "solver.solve", None),
    (solver, "_solve_rec", "solver._solve_rec", None),
    (solver, "partition_step", "solver.partition_step", None),
    (solver, "aggregate", "solver.aggregate", None),
    (solver, "base_two_vertices", "solver.base_two_vertices", None),
    (solver, "base_three_leaves", "solver.base_three_leaves", None),
    (solver, "repair_three_leaves", "solver.repair_three_leaves", None),
    (solver, "_free_imf_paths", "solver._free_imf_paths", None),
    (solver._FreeCore, "run", "solver._FreeCore.run", None),
    (solver, "_core_by_splitting", "solver._core_by_splitting", None),
    (solver, "_undo_normalization", "solver._undo_normalization", None),
    (solver, "max_flow", "flows.max_flow.solver", _arcs),
    (certify, "max_flow", "flows.max_flow.certify", _arcs),
    (solver, "decompose", "flows.decompose", None),
    (multiflow, "decompose", "flows.decompose", None),
    (solver, "min_cut_source_side", "flows.min_cut_source_side", None),
    (solver, "lex_max_flow", "flows.lex_max_flow", None),
    (solver, "contract", "graphs.contract", None),
    (solver, "choose_balanced_edge", "realization.choose_balanced_edge", None),
    (solver, "normalize", "realization.normalize", None),
    (solver, "pi_set", "realization.pi_set.solver", None),
    (certify, "pi_set", "realization.pi_set.certify", None),
    (certify, "mu", "realization.mu", None),
    (solver, "validate_instance", "realization.validate_instance", None),
    (realization, "validate_instance", "realization.validate_instance", None),
    (multiflow.Multiflow, "to_paths", "multiflow.to_paths", None),
    (multiflow.Multiflow, "component_value", "multiflow.component_value", None),
    (solver, "mu_value", "certify.mu_value", None),
    (certify, "check_feasible", "certify.check_feasible", None),
    (certify, "verify_certificate", "certify.verify_certificate", None),
    (certify, "dual_value", "certify.dual_value", None),
)
ROOT_SPAN = "solver.solve"
FALLBACK_SPAN = "solver._core_by_splitting"
FREE_CORE_SPAN = "solver._FreeCore.run"


STEPS = ("parse", "solve", "emit", "verify", "dual")
PIPELINE_STEPS = ("parse", "solve", "emit")  # what a `treeflow solve` user waits for


@dataclass
class PassResult:
    start: float = 0.0
    end: float = 0.0
    timings: List[Tuple[int, str, float, float]] = field(default_factory=list)  # (instance, step, start, end)
    counts: List[Tuple[int, int]] = field(default_factory=list)  # (max flows, depth) per instance
    failures: List[str] = field(default_factory=list)
    # filled in by convert(), in reference seconds (speed.py), and as measured
    step_s: Dict[str, float] = field(default_factory=dict)
    raw_step_s: Dict[str, float] = field(default_factory=dict)
    solve_ms: Dict[int, float] = field(default_factory=dict)  # per instance

    @property
    def pipeline_s(self) -> float:
        return sum(self.step_s[s] for s in PIPELINE_STEPS)

    @property
    def total_s(self) -> float:
        return sum(self.step_s.values())

    def convert(self, speed: Speedometer) -> None:
        """Step totals and per-instance solve latency from the raw timings."""
        self.step_s = dict.fromkeys(STEPS, 0.0)
        self.raw_step_s = dict.fromkeys(STEPS, 0.0)
        for i, step, a, b in self.timings:
            seconds = speed.seconds(a, b)
            self.step_s[step] += seconds
            self.raw_step_s[step] += b - a
            if step == "solve":
                self.solve_ms[i] = seconds * 1000.0


def run_pass(texts: List[str]) -> PassResult:
    res = PassResult(start=clock())
    for i, text in enumerate(texts):
        try:
            problem = _run_instance(i, text, res)
        except Exception as exc:  # noqa: BLE001 - a raising instance counts as failed
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            res.failures.append(f"instance {i}: {problem}")
    res.end = clock()
    return res


def _run_instance(i: int, text: str, res: PassResult):
    def step(name, fn, *args):
        a = clock()
        value = fn(*args)
        res.timings.append((i, name, a, clock()))
        return value

    net, real = step("parse", documents.parse_instance, text)
    out = step("solve", solver.solve, net, real)
    paths = step("emit", _emit, net, out)
    issue, bad_arc = step("verify", _verify, net, real, out, paths)
    dual = step("dual", certify.dual_value, net, real)

    res.counts.append((out.stats.maxflow_calls, out.stats.recursion_depth))
    if out.value != dual:
        return f"value {out.value} differs from dual value {dual}"
    if issue is not None:
        return f"certificate rejected: {issue}"
    if bad_arc is not None:
        return f"multiflow infeasible at arc {bad_arc!r}"
    return None


def _emit(net, out):
    """Path packing and result document, as `treeflow solve` writes them."""
    paths = out.multiflow.to_paths(net)
    stats = {
        "n": len(net.vertices),
        "m": len(net.graph.arcs),
        "recursion_depth": out.stats.recursion_depth,
        "maxflow_calls": out.stats.maxflow_calls,
    }
    documents.serialize_result(out.value, paths, out.certificate, stats)
    return paths


def _verify(net, real, out, paths):
    return (certify.verify_certificate(net, real, paths, out.certificate),
            certify.check_feasible(net, out.multiflow))


def tail(samples: List[float]) -> Tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    The value is the sample with exactly ten samples above it in sorted
    order.  With ten samples or fewer no percentile qualifies, and the
    maximum is returned as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]
