"""The traced benchmark run wraps every layer in bench/pipeline.py's
LAYERS by owner and attribute name; a renamed or removed function would
make `bench/run.py --trace 1` fail with a KeyError."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_layer_exists():
    sys.path.insert(0, str(BENCH))
    try:
        import pipeline
    finally:
        sys.path.remove(str(BENCH))
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _span, _work in pipeline.LAYERS
               if attr not in vars(owner)]
    assert missing == []
