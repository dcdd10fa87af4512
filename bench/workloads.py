"""Instance sets of the benchmark workloads, built from the workload seed.

Every workload is built as instance documents in JSON text, so the timed
pipeline starts from the bytes a user hands to ``treeflow solve``.  Seed
0 gives the instance sets the ROADMAP baseline was measured on.

- ``scale``: the two criterion-8 instances (n=2000, m about 8000, |S|=16
  and |S|=32 on a star tree), generated exactly as the acceptance suite
  does, from generator seeds 8416+seed and 8432+seed.  Large graphs put
  the weight on max flow, contraction, aggregation and tree walks; no
  instance falls back, so this workload bypasses the fallback core.
- ``corpus``: the 500-instance acceptance corpus (seeds 1..500, the
  acceptance ``corpus_params``).  Many small instances, so per-call
  overhead dominates and the latency distribution has a real tail.
- ``stall``: the corpus instances 239, 416 and 493, whose free-multiflow
  core stalls and falls back to capacity splitting, spending about 95%
  of solve time in thousands of max flows on tiny graphs.

For ``corpus`` and ``stall`` a nonzero seed gives every vertex and arc a
fresh random name that sorts like the old one.  The solver breaks every
tie by id order, so it repeats the same computation on the renamed
instances, and the seed changes the bytes the program reads but not the
work it does.  Two other ways to vary these sets moved the work itself
between seeds by more than any bound the benchmark could keep: a window
of seeds seed+1..seed+500 changed the max-flow work of a corpus pass by
about 15% (IQR over median) between far-apart seeds, and a random
renaming decides anew which instances fall back, which moved the corpus
p98 solve latency by about 50% and left some ``stall`` instances
without a fallback.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Iterable, List

from treeflow.documents import instance_to_document
from treeflow.generator import generate_instance, superpose_walks
from treeflow.graphs import Digraph, Network, sort_key
from treeflow.realization import RealizationTree

SCALE_INSTANCES = ((8416, 16), (8432, 32))  # (generator seed, |S|) at seed 0
SCALE_N = 2000
SCALE_CYCLES = 2000
CORPUS_SEEDS = range(1, 501)
STALL_SEEDS = (239, 416, 493)


def corpus_params(seed: int):
    """Generator parameters of the acceptance corpus: (n, cycles, pairs, leaves)."""
    n = 10 + (seed % 20) * 9
    cycles = 3 + seed % 30
    pairs = seed % 8
    leaves = 2 + seed % 7
    return n, cycles, pairs, leaves


def star_realization(terms) -> RealizationTree:
    """Star tree with one leaf per terminal, length 1 toward the centre."""
    names = ["c"] + [f"l{i}" for i in range(len(terms))]
    edges = [(f"l{i}", "c", 1, 0) for i in range(len(terms))]
    return RealizationTree.build(names, edges, {t: [f"l{i}"] for i, t in enumerate(terms)})


def scale_instance(generator_seed: int, k: int) -> dict:
    rng = random.Random(generator_seed)
    verts = [f"x{i}" for i in range(SCALE_N)]
    terms = verts[:k]
    arcs, caps = superpose_walks(rng, verts, SCALE_CYCLES, max(2, k // 2), terms)
    net = Network(Digraph.build(verts, arcs), tuple(terms), caps)
    return instance_to_document(net, star_realization(terms))


def rename(doc: dict, rng: random.Random) -> dict:
    """Copy of an instance document with fresh vertex and arc ids that sort
    like the old ones; the arc list keeps its order and the tree is unchanged."""
    graph = doc["graph"]
    vname = _fresh_ids(graph["vertices"], "v", rng)
    aname = _fresh_ids([a["id"] for a in graph["arcs"]], "a", rng)
    arcs = [{"id": aname[a["id"]], "tail": vname[a["tail"]], "head": vname[a["head"]], "cap": a["cap"]}
            for a in graph["arcs"]]
    return {
        "graph": {"vertices": sorted(vname.values()), "arcs": arcs},
        "terminals": [vname[t] for t in doc["terminals"]],
        "tree": doc["tree"],
        "subtrees": {vname[t]: sub for t, sub in doc["subtrees"].items()},
    }


def _fresh_ids(ids: Iterable, prefix: str, rng: random.Random) -> Dict:
    old = sorted(ids, key=sort_key)
    # equal-length hex names, so their string order is their numeric order
    names = [f"{prefix}{x:010x}" for x in sorted(rng.sample(range(16 ** 10), len(old)))]
    return dict(zip(old, names))


def build(workload: str, seed: int) -> List[str]:
    """Instance documents of one workload as JSON text, in run order."""
    if workload == "scale":
        docs = [scale_instance(base + seed, k) for base, k in SCALE_INSTANCES]
    elif workload == "corpus":
        docs = _renamed(CORPUS_SEEDS, seed)
    elif workload == "stall":
        docs = _renamed(STALL_SEEDS, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [json.dumps(d) for d in docs]


def _renamed(corpus_seeds, seed: int) -> List[dict]:
    docs = [generate_instance(s, *corpus_params(s)) for s in corpus_seeds]
    if seed:
        docs = [rename(d, random.Random(f"{seed}:{s}")) for s, d in zip(corpus_seeds, docs)]
    return docs
