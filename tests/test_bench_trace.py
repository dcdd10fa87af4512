"""`bench/run.py --trace 1` counts max-flow work by reading the arcs of
the first argument of every max_flow call the solver makes
(net.graph.arcs).  A change to what the solver passes would break the
traced run without breaking a solve; one traced pass over two small
corpus instances guards it.  A traced pass over a fallback instance
guards the span the bench keeps for the splitting fallback."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _traced_pass(seeds):
    """The result and layer summary of one traced pass over corpus seeds."""
    sys.path.insert(0, str(BENCH))
    try:
        import pipeline
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    texts = [json.dumps(workloads.generate_instance(seed, *workloads.corpus_params(seed)))
             for seed in seeds]
    tracer = tracing.Tracer()
    with tracing.traced(tracer, pipeline.LAYERS):
        result = pipeline.run_pass(texts)
    return result, tracer.summary()


def test_traced_pass_counts_solver_max_flow_work():
    result, layers = _traced_pass((25, 75))
    assert result.failures == []
    assert layers["solver.partition_step"].calls > 0
    assert layers["flows.max_flow.solver"].calls > 0
    assert layers["flows.max_flow.solver"].work > 0


def test_traced_stall_pass_sees_the_splitting_fallback():
    result, layers = _traced_pass((493,))
    assert result.failures == []
    assert layers["solver._core_by_splitting"].calls >= 1
