"""Integer flow primitives on the public types: blocking-flow max flow,
residual min cuts, lexicographic flows, and decomposition of
nonnegative integer arc functions into weighted simple paths.

Each function here is the public boundary of a kernel in indexed.py: it
checks its arguments, interns the network's graph, runs the kernel on
numbers and maps the answer back to the network's own ids.  All routines
are deterministic: arcs break ties in arc order, the order they appear
in the network, and vertices in id order, so path peeling always
follows the positive arc that comes first in the network's arc list.

Every call interns the graph afresh and keeps nothing: a caller that
runs many flows on one graph (dual_value) interns it once itself and
calls the kernels.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from . import indexed
from .errors import InputError
from .graphs import ArcId, Cut, Network, TerminalPath, VertexId
from .indexed import IntGraph, intern, intern_graph


def _on_positions(graph: IntGraph, f: Dict[ArcId, int]) -> List[int]:
    """An arc-id flow as one entry per arc position; ids of no arc are ignored."""
    number = graph.ids.arc_number
    dense = [0] * len(graph.arcs)
    for a, w in f.items():
        k = number.get(a)
        if k is not None:
            dense[k] = w
    return dense


def _by_arc_id(graph: IntGraph, flow: List[int]) -> Dict[ArcId, int]:
    return {a: w for a, w in zip(graph.ids.arc_ids, flow) if w}


def _check_vertices(net: Network, vertices) -> None:
    for v in vertices:
        if v not in net.vertices:
            raise InputError(f"unknown vertex {v!r}", code="dangling-reference")


def _check_endpoint_sets(net: Network, sources, sinks):
    src, snk = set(sources), set(sinks)
    _check_vertices(net, src | snk)
    if src & snk:
        raise InputError("sources and sinks must be disjoint", code="invalid-input")
    return src, snk


def max_flow(net: Network, sources: Iterable[VertexId], sinks: Iterable[VertexId]) -> Tuple[Dict[ArcId, int], int]:
    """Integer maximum flow from a source set to a sink set.

    Returns the flow as a sparse arc-id map together with its value.  The
    flow has zero divergence outside sources and sinks, nonnegative
    divergence at each source and nonpositive at each sink.
    """
    src, snk = _check_endpoint_sets(net, sources, sinks)
    if not src or not snk:
        return {}, 0
    inet = intern(net)
    num = inet.graph.ids.number
    flow, value = indexed.max_flow(inet, [num[v] for v in src], [num[v] for v in snk])
    return _by_arc_id(inet.graph, flow), value


def min_cut_source_side(net: Network, f: Dict[ArcId, int], sources: Iterable[VertexId],
                        sinks: Iterable[VertexId] = ()) -> Cut:
    """Source side of the inclusion-minimal minimum cut for a maximum flow f.

    The side is the set of vertices reachable from the sources in the
    residual graph of f.  If any of the optional sinks is reachable, f was
    not maximum and a ContractViolation is raised.
    """
    src = set(sources)
    _check_vertices(net, src)
    inet = intern(net)
    ids = inet.graph.ids
    side = indexed.min_cut_source_side(inet, _on_positions(inet.graph, f), [ids.number[v] for v in src],
                                       [ids.number[t] for t in sinks if t in ids.number])
    return Cut(frozenset(ids.vertex_ids[v] for v in side))


def lex_max_flow(net: Network, source: VertexId, primary_sink: VertexId,
                 secondary_sinks: Iterable[VertexId]) -> Dict[ArcId, int]:
    """Maximum flow from source to all sinks that, among such maxima,
    maximizes the net inflow at the primary sink.

    A max flow to the primary sink alone, then one to every sink that
    starts from it.  The second never lowers the primary inflow: the first
    one's minimum cut stays saturated.
    """
    sec = set(secondary_sinks)
    _check_endpoint_sets(net, [source], sec | {primary_sink})
    inet = intern(net)
    num = inet.graph.ids.number
    flow = indexed.lex_max_flow(inet, [num[source]], [num[primary_sink]], [num[v] for v in sec])
    return _by_arc_id(inet.graph, flow)


def decompose(net: Network, f: Dict[ArcId, int], allowed_sources: Iterable[VertexId],
              allowed_sinks: Iterable[VertexId]) -> List[TerminalPath]:
    """Peel a nonnegative integer arc function into weighted simple paths.

    Walks start at vertices with positive remaining divergence, in id
    order, follow the positive arc that comes first in the network's arc
    list, and stop at the first allowed sink with unmet demand.  Cycles
    met on the way are cancelled and discarded, so the induced arc
    function of the result is bounded by f and differs from it by a
    nonnegative circulation.  Each path is a TerminalPath from its walk's
    first vertex to its last.

    A vertex listed both as source and sink takes the role its divergence
    sign dictates.  Any other vertex must have zero divergence.
    """
    srcs = set(allowed_sources)
    snks = set(allowed_sinks)
    _check_vertices(net, srcs | snks)
    graph = intern_graph(net.graph)
    ids = graph.ids
    negative = [ids.arc_number[a] for a, w in f.items() if w < 0 and a in ids.arc_number]
    if negative:
        raise InputError(f"negative flow on arc {ids.arc_ids[min(negative)]!r}", code="invalid-input")
    paths = indexed.decompose(graph, _on_positions(graph, f), [ids.number[v] for v in srcs],
                              [ids.number[v] for v in snks])
    return [ids.path_ids(p) for p in paths]
