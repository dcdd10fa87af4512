"""An independent cut oracle for the optimal value: the dual value from
scipy's maximum flow.

It reads only the ids of a Network (arcs, capacities, terminals) and of a
RealizationTree (arc lengths, subtrees), finds each tree arc's sides by
its own walk, and numbers the vertices itself.  For every tree arc with a
positive length and a terminal subtree on each side, it adds the length
times the maximum flow from a super source, feeding the terminals on the
tail side, to a super sink, fed by those on the head side.  scipy's
maximum_flow needs int32 capacities (given an int64 matrix it returned
flow 0), so the oracle refuses a network whose capacities could overflow
int32.
"""

from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

INT32_MAX = 2**31 - 1


def _side(arc_length, u, v):
    """The tree vertices reached from u without crossing edge uv."""
    nbrs = {}
    for (x, y) in arc_length:
        nbrs.setdefault(x, []).append(y)
    seen, stack = {u}, [u]
    while stack:
        x = stack.pop()
        for y in nbrs[x]:
            if y not in seen and {x, y} != {u, v}:
                seen.add(y)
                stack.append(y)
    return seen


def dual_value(net, real) -> Fraction:
    at = {v: i for i, v in enumerate(net.vertices)}
    source, sink = len(at), len(at) + 1
    caps = {}
    for arc in net.graph.arcs:
        key = (at[arc.tail], at[arc.head])
        caps[key] = caps.get(key, 0) + net.capacity[arc.id]
    big = sum(caps.values()) + 1  # more than any cut
    assert (len(net.terminals) + 1) * big <= INT32_MAX, "capacities overflow int32"
    total = Fraction(0)
    for (u, v), length in real.arc_length.items():
        side = _side(real.arc_length, u, v)
        tail = [at[t] for t in net.terminals if real.subtrees[t] <= side]
        head = [at[t] for t in net.terminals if not real.subtrees[t] & side]
        if not length or not tail or not head:
            continue
        entries = {**caps, **{(source, x): big for x in tail}, **{(x, sink): big for x in head}}
        entries = {k: c for k, c in entries.items() if c}
        rows, cols = zip(*entries)
        graph = csr_matrix((np.array(list(entries.values()), dtype=np.int32), (rows, cols)),
                           shape=(len(at) + 2, len(at) + 2))
        total += length * maximum_flow(graph, source, sink).flow_value
    return total
