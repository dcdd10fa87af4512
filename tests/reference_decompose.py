"""Path peeling as it was before it read only the arcs that carry flow:
it takes one flow entry per arc position, scans every position for the
positive ones and returns TerminalPaths of vertex and arc numbers.  The
tests keep it as the reference that indexed.decompose must match path for
path, in the same order, and raise on exactly the same flows.
"""

from typing import Dict, Iterable, List, Optional, Sequence

from treeflow.errors import ContractViolation
from treeflow.graphs import TerminalPath
from treeflow.indexed import IntGraph


def decompose(g: IntGraph, f: Sequence[int], allowed_sources: Iterable[int],
              allowed_sinks: Iterable[int]) -> List[TerminalPath]:
    """Peel a nonnegative integer flow on a graph (one entry per arc
    position) into weighted simple paths of vertex and arc numbers.

    Walks start at vertices with positive remaining divergence, in number
    order, follow the positive arc that comes first in arc order, and stop
    at the first allowed sink with unmet demand.  Cycles met on the way are
    cancelled and discarded, so the paths' arc function is bounded by f
    and differs from it by a nonnegative circulation.

    A vertex listed both as source and sink takes the role its divergence
    sign dictates.  Any other vertex must have zero divergence.  The paths
    come in peel order, and no two share source, sink and arcs: each peel
    exhausts an arc on its path, its source's surplus or its sink's
    demand, and a walk stops only at a sink with unmet demand.
    """
    tail, head, arcs = g.tail, g.head, g.arcs
    srcs = set(allowed_sources)
    snks = set(allowed_sinks)

    remaining: Dict[int, int] = {}
    div: Dict[int, int] = {}
    out_pos: Dict[int, List[int]] = {}  # each vertex's positive out-arcs in arc order
    for k, w in enumerate(f):
        if w:
            if w < 0:
                raise ContractViolation(f"negative flow on arc position {k}")
            remaining[k] = w
            t, h = tail[k], head[k]
            div[t] = div.get(t, 0) + w
            div[h] = div.get(h, 0) - w
            out_pos.setdefault(t, []).append(k)

    surplus: Dict[int, int] = {}
    demand: Dict[int, int] = {}
    for v, d in div.items():
        if d > 0:
            if v not in srcs:
                raise ContractViolation(f"positive divergence at non-source {g.ids.vertex_ids[v]!r}")
            surplus[v] = d
        elif d < 0:
            if v not in snks:
                raise ContractViolation(f"negative divergence at non-sink {g.ids.vertex_ids[v]!r}")
            demand[v] = -d

    out_ptr: Dict[int, int] = {}

    def next_arc(v) -> Optional[int]:
        lst = out_pos.get(v)
        if not lst:
            return None
        i = out_ptr.get(v, 0)
        while i < len(lst) and remaining[lst[i]] <= 0:
            i += 1
        out_ptr[v] = i
        return lst[i] if i < len(lst) else None

    paths: List[TerminalPath] = []

    for s in sorted(surplus):
        while surplus[s] > 0:
            path_arcs: List[int] = []
            on_path = {s: 0}
            v = s
            while True:
                if v != s and v in snks and demand.get(v, 0) > 0:
                    break
                a = next_arc(v)
                if a is None:
                    raise ContractViolation(f"path peeling stuck at {g.ids.vertex_ids[v]!r}")
                nxt = head[a]
                if nxt in on_path:
                    # cancel the cycle immediately and keep walking
                    k = on_path[nxt]
                    cycle = path_arcs[k:] + [a]
                    theta = min(remaining[c] for c in cycle)
                    for c in cycle:
                        remaining[c] -= theta
                    for c in path_arcs[k:]:
                        del on_path[head[c]]
                    del path_arcs[k:]
                    v = nxt
                    if v != s:
                        on_path[v] = len(path_arcs)
                    continue
                path_arcs.append(a)
                on_path[nxt] = len(path_arcs)
                v = nxt
            t = v
            theta = min(min(remaining[a] for a in path_arcs), surplus[s], demand[t])
            for a in path_arcs:
                remaining[a] -= theta
            surplus[s] -= theta
            demand[t] -= theta
            paths.append(TerminalPath(s, t, tuple([arcs[k] for k in path_arcs]), theta))

    if any(surplus.values()) or any(demand.values()):
        raise ContractViolation("decomposition left unmet surplus or demand")
    return paths
