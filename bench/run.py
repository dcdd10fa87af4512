"""Outside-in benchmark of the treeflow solve/verify/dual pipeline.

    python3 bench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports treeflow from its
``src`` directory; nothing is installed.  See harness.py for what a run
measures and prints.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> int:
    if not (SRC / "treeflow" / "__init__.py").is_file():
        print(f"error: no treeflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # imports treeflow, so only once src is on the path

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
