"""Integer flow primitives on the public types: blocking-flow max flow,
residual min cuts, lexicographic flows, and decomposition of
nonnegative integer arc functions into weighted simple paths.

Each function here is the public boundary of a kernel in indexed.py
(lex_max_flow runs max_flow twice): it checks its arguments, runs the
kernel on the numbers of the graph's index (graphs.Digraph.index, built
with the graph) and maps the answer back to the network's own ids.  All
routines are deterministic: arcs break ties in arc order, the order they
appear in the network, and vertices in id order, so path peeling always
follows the positive arc that comes first in the network's arc list.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from . import indexed
from .errors import InputError
from .graphs import ArcId, Cut, Network, TerminalPath, VertexId
from .indexed import intern


def _on_positions(net: Network, f: Dict[ArcId, int], cap: Optional[List[int]] = None) -> List[int]:
    """An arc-id flow on net as one entry per arc position of its graph's
    index; entries on loops, which the graph drops, are ignored.  An id
    that names no arc of net is an InputError (dangling-reference), and so
    is a negative entry, or one above cap if given (invalid-input), naming
    the first such arc in arc order."""
    ids = net.graph.index.ids
    number = ids.arc_number
    dense = [0] * len(ids.arc_ids)
    for a, w in f.items():
        k = number.get(a)
        if k is not None:
            dense[k] = w
        elif a not in net.capacity:
            raise InputError(f"unknown arc {a!r}", code="dangling-reference")
    bad = [k for k, w in enumerate(dense) if w < 0 or cap is not None and w > cap[k]]
    if bad:
        raise InputError(f"flow {dense[bad[0]]} on arc {ids.arc_ids[bad[0]]!r} is out of range",
                         code="invalid-input")
    return dense


def _by_arc_id(net: Network, flow: List[int]) -> Dict[ArcId, int]:
    return {a: w for a, w in zip(net.graph.index.ids.arc_ids, flow) if w}


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
    return _by_arc_id(net, flow), value


def min_cut_source_side(net: Network, f: Dict[ArcId, int], sources: Iterable[VertexId],
                        sinks: Iterable[VertexId] = ()) -> Cut:
    """Source side of the inclusion-minimal minimum cut for a maximum flow f.

    The side is the set of vertices reachable from the sources in the
    residual graph of f.  If any of the optional sinks is reachable, f was
    not maximum and a ContractViolation is raised.  Unknown sources,
    sinks or arcs, and a negative flow or one above an arc's capacity, are
    InputErrors.
    """
    src, snk = set(sources), set(sinks)
    _check_vertices(net, src | snk)
    inet = intern(net)
    ids = inet.graph.ids
    side = indexed.min_cut_source_side(inet, _on_positions(net, f, inet.cap),
                                       [ids.number[v] for v in src], [ids.number[t] for t in snk])
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
    f, _value = indexed.max_flow(inet, [num[source]], [num[primary_sink]])
    f, _value = indexed.max_flow(inet, [num[source]], [num[v] for v in sec | {primary_sink}], start=f)
    return _by_arc_id(net, f)


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
    sign dictates.  Any other vertex must have zero divergence.  An id in
    f that names no arc of net is an InputError.  After the checks the
    peel reads only f's positive entries.
    """
    srcs = set(allowed_sources)
    snks = set(allowed_sinks)
    _check_vertices(net, srcs | snks)
    graph = net.graph.index
    ids = graph.ids
    # the index holds arc number k at position k, so positions are arc numbers
    paths = indexed.decompose(graph, indexed.sparse(_on_positions(net, f)),
                              [ids.number[v] for v in srcs], [ids.number[v] for v in snks])
    return [ids.path_ids(p) for p in paths]
