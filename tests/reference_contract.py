"""Contraction as it was before it copied only the smaller side: one pass
over every arc position of the parent, a vertex image plus an arc filter,
into a compact graph whose adjacency is built from scratch.  The tests
keep it as the reference that indexed.contract must match arc for arc.
"""

from typing import Iterable, List, Mapping

from treeflow.indexed import IntGraph, IntNetwork


def contract(net: IntNetwork, groups: Mapping[int, Iterable[int]]) -> IntNetwork:
    """Contract disjoint vertex sets, each into its own new vertex.

    groups maps each new vertex number z (from IdTable.new_vertex) to
    the set it replaces.  Arcs inside one set disappear; all others keep
    their numbers, capacities and order.  The caller's tree holds the
    terminals, the new vertices among them.
    """
    g = net.graph
    image = list(range(len(g.ids.vertex_ids)))
    for z, members in groups.items():
        for v in members:
            image[v] = z
    arcs: List[int] = []
    tail: List[int] = []
    head: List[int] = []
    cap: List[int] = []
    for a, t, h, c in zip(g.arcs, g.tail, g.head, net.cap):
        t = image[t]
        h = image[h]
        if t != h:
            arcs.append(a)
            tail.append(t)
            head.append(h)
            cap.append(c)
    vertices = frozenset([v for v in g.vertices if image[v] == v]).union(groups)
    return IntNetwork(IntGraph(g.ids, vertices, arcs, tail, head), cap)
