"""`bench/run.py --trace 1` counts max-flow work by reading the arcs of
the first argument of every max_flow call the solver makes
(net.graph.arcs).  A change to what the solver passes would break the
traced run without breaking a solve; one traced pass over two small
corpus instances guards it."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_pass_counts_solver_max_flow_work():
    sys.path.insert(0, str(BENCH))
    try:
        import pipeline
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    texts = [json.dumps(workloads.generate_instance(seed, *workloads.corpus_params(seed)))
             for seed in (25, 75)]
    tracer = tracing.Tracer()
    with tracing.traced(tracer, pipeline.LAYERS):
        result = pipeline.run_pass(texts)
    assert result.failures == []
    layers = tracer.summary()
    assert layers["solver.partition_step"].calls > 0
    assert layers["flows.max_flow.solver"].calls > 0
    assert layers["flows.max_flow.solver"].work > 0
