"""The graph boundary as it was before numbering moved into the build pass:
Digraph.build made an Arc per arc and kept a set of the ids seen, a
Network checked its terminals and capacities in a second pass, and
Digraph.index numbered the finished graph in a third.  Kept as the oracle
for the one-pass numbering (tests/test_index.py); it shares no code with
graphs._number or Network.__post_init__.
"""

from types import SimpleNamespace

from treeflow.documents import _ID, _expect, _expect_ids, _subtree_keys
from treeflow.errors import InputError
from treeflow.graphs import MAX_CAPACITY, Arc, sort_key
from treeflow.realization import RealizationTree, parse_rational


def build(vertices, arcs):
    """The vertex set and the Arc tuple of the old Digraph.build."""
    vset = frozenset(vertices)
    seen, kept = set(), []
    for aid, tail, head in arcs:
        if aid in seen:
            raise InputError(f"duplicate arc id {aid!r}", code="duplicate-arc")
        seen.add(aid)
        if tail not in vset or head not in vset:
            raise InputError(f"arc {aid!r} references unknown vertex", code="dangling-reference")
        if tail != head:
            kept.append(Arc(aid, tail, head))
    return vset, tuple(kept)


def check_network(vset, arcs, terminals, capacity):
    """The old Network.__post_init__."""
    if len(terminals) < 1:
        raise InputError("a network needs at least one terminal", code="no-terminals")
    if len(set(terminals)) != len(terminals):
        raise InputError("terminal list contains duplicates", code="duplicate-terminal")
    for t in terminals:
        if t not in vset:
            raise InputError(f"terminal {t!r} is not a vertex", code="dangling-reference")
    for a in arcs:
        if capacity.get(a.id) is None:
            raise InputError(f"arc {a.id!r} has no capacity", code="missing-capacity")
    for aid, c in capacity.items():
        if not isinstance(c, int) or isinstance(c, bool):
            raise InputError(f"capacity of arc {aid!r} is not an integer", code="non-integer-capacity")
        if c < 0:
            raise InputError(f"capacity of arc {aid!r} is negative", code="negative-capacity")
        if c > MAX_CAPACITY:
            raise InputError(f"capacity of arc {aid!r} exceeds 64-bit range", code="capacity-overflow")


def index(vset, arcs, capacity):
    """The old Digraph.index (IdTable and IntGraph) of a built graph, and
    the capacities by arc position that intern read through the ids."""
    vertex_ids = sorted(vset, key=sort_key)
    number = {v: i for i, v in enumerate(vertex_ids)}
    arc_ids = [a.id for a in arcs]
    tail = [number[a.tail] for a in arcs]
    head = [number[a.head] for a in arcs]
    adj = [[] for _ in vertex_ids]
    for k, (t, h) in enumerate(zip(tail, head)):
        adj[t].append(2 * k)
        adj[h].append(2 * k + 1)
    return SimpleNamespace(vertex_ids=vertex_ids, number=number, arc_ids=arc_ids,
                           arc_number={a: k for k, a in enumerate(arc_ids)},
                           vertices=frozenset(range(len(vertex_ids))), arcs=list(range(len(arcs))),
                           tail=tail, head=head, adj=adj, live=len(arcs),
                           cap=[capacity[a] for a in arc_ids])


def document_to_instance(doc):
    """The old documents.document_to_instance: every arc entry checked
    field by field, then build, check_network and the tree."""
    graph = _expect(doc, "graph", dict, "document")
    vertices = _expect_ids(graph, "vertices", "graph")
    arcs = []
    caps = {}
    for a in _expect(graph, "arcs", list, "graph"):
        aid = _expect(a, "id", _ID, "arc")
        tail = _expect(a, "tail", _ID, "arc")
        head = _expect(a, "head", _ID, "arc")
        arcs.append((aid, tail, head))
        caps[aid] = _expect(a, "cap", None, "arc")
    terminals = tuple(_expect_ids(doc, "terminals", "document"))
    vset, kept = build(vertices, arcs)
    check_network(vset, kept, terminals, caps)

    tree = _expect(doc, "tree", dict, "document")
    tvertices = _expect_ids(tree, "vertices", "tree")
    edges = []
    for e in _expect(tree, "edges", list, "tree"):
        u = _expect(e, "u", _ID, "tree edge")
        v = _expect(e, "v", _ID, "tree edge")
        edges.append((u, v, parse_rational(_expect(e, "len_uv", None, "tree edge")),
                      parse_rational(_expect(e, "len_vu", None, "tree edge"))))
    subs_doc = _expect(doc, "subtrees", dict, "document")
    subtrees = {}
    for key, t in zip(_subtree_keys(terminals), terminals):
        if key not in subs_doc:
            raise InputError(f"terminal {t!r} has no subtree", code="missing-subtree")
        subtrees[t] = _expect_ids(subs_doc, key, "subtrees")
    RealizationTree.build(tvertices, edges, subtrees)
    return vset, kept, terminals, caps
