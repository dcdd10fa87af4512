"""Optimality certification and the independent dual-value oracle.

A certificate assigns to one arc of every tree edge with a nonempty
terminal-pair set a vertex cut that separates those pairs and is
saturated by the multiflow; its complement does the same for the other
arc.  Any multiflow carrying such a family is optimal, for every
choice of arc lengths, so verification never looks at lengths except
through the value computation.

solve writes the family as one tree position per network vertex: the cut
of a tree arc is the set of vertices placed on its tail side.  Such a map
exists because the family is cross-free, and a cross-free family has a
tree representation (Edmonds and Giles, 1977); here that tree is the
realization tree itself, as in Hirai and Koichi's duality for directed
multiflows, which writes an optimal dual as a map from network vertices
to tree points.  The recursion builds the map directly:
- a single-edge base places its cut side at the edge's first end and the
  rest at the other; a star base places each leaf's side at the leaf and
  the rest at the center.  The leaf sides are disjoint: the solver
  raises a ContractViolation when two minimal terminal cuts overlap, and
  repairing a leaf only shrinks its side;
- a partition step merges its two children's placements.  A vertex that
  a child places at its anchor, the far end of the partition edge, moves
  to the near end; the two are adjacent, so they lie on the same side of
  every other edge, and each child's cuts lift unchanged;
- undoing the normalization sends a vertex at a made tree vertex to the
  input vertex it came from, and a split terminal to the vertex of its
  path subtree nearest its placement: off the path the whole subtree lies
  on one side, which is where the halves' cuts put it, and on the path it
  keeps its side.
So a solve's certificate costs n entries, not one vertex set per tree
edge, and verify_certificate reads it in one pass: it contracts every
tree edge with an empty pair set and checks separation, saturation and
crossings against the components, never walking a cut's boundary.  A
certificate of per-edge cuts, as older result documents carry, takes the
per-cut check, which stays as the general check and as the test oracle
for the position check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from .errors import InputError
from .graphs import Network, TerminalPath, boundary, sort_key
from .indexed import intern, max_flow
from .realization import IntTree, RealizationTree, TreeArc, TreeVertex, mu, pi_set


@dataclass(frozen=True, init=False)
class Certificate:
    """A family of saturated separating cuts, in one of two forms.

    positions maps every network vertex id to a tree vertex id; solve
    writes this form, and with the tree and terminals it was made for,
    cuts is derived from it on first read.  Otherwise cuts is given: per
    tree edge, the source side of a cut under the arc whose tail side it
    is, the other arc's cut being its complement.  A derived cut is keyed
    by the arc whose tail side has fewer tree vertices (on a tie, the arc
    whose tail comes first in id order), one per tree edge with a
    nonempty pair set.
    """

    positions: Optional[Dict[Hashable, TreeVertex]]
    _cuts: Optional[Dict[TreeArc, frozenset]]
    _tree: Optional[Tuple[RealizationTree, tuple]] = field(compare=False)

    def __init__(self, cuts: Optional[Dict[TreeArc, frozenset]] = None,
                 positions: Optional[Dict[Hashable, TreeVertex]] = None,
                 real: Optional[RealizationTree] = None, terminals: Iterable[Hashable] = ()):
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "_cuts", cuts)
        object.__setattr__(self, "_tree", None if real is None else (real, tuple(terminals)))

    def __repr__(self):
        if self.positions is None:
            return f"Certificate(cuts={self._cuts!r})"
        return f"Certificate(positions={self.positions!r})"

    @cached_property
    def cuts(self) -> Dict[TreeArc, frozenset]:
        if self.positions is None:
            return self._cuts or {}
        if self._tree is None:
            raise ValueError("a certificate of positions derives its cuts from its tree, and has none")
        return _derived_cuts(self.positions, *self._tree)


def _tree_of(real: RealizationTree, terminals) -> IntTree:
    """real's tree on numbers with the subtrees of exactly these terminals."""
    tree = real._int
    if len(terminals) == len(tree.subtrees) and all(t in tree.subtrees for t in terminals):
        return tree
    for t in terminals:
        if t not in tree.subtrees:
            raise InputError(f"unknown terminal {t!r}", code="dangling-reference")
    return IntTree(tree.index, {t: tree.subtrees[t] for t in terminals})


def _derived_cuts(positions, real: RealizationTree, terminals) -> Dict[TreeArc, frozenset]:
    tree = _tree_of(real, terminals)
    index, num, vid = tree.index, real._ids.number, real._ids.vertex_ids
    at: Dict[int, List[Hashable]] = {}
    for v, p in positions.items():
        at.setdefault(num[p], []).append(v)
    everything = frozenset(positions)
    cuts = {}
    for c in index.order:
        if c not in tree.separating:
            continue
        p, lo, size = index.parent[c], index.start[c], index.size[c]
        below = frozenset(v for x in index.order[lo:lo + size] for v in at.get(x, ()))
        rest = len(index.order) - size
        if size < rest or (size == rest and c < p):
            cuts[(vid[c], vid[p])] = below
        else:
            cuts[(vid[p], vid[c])] = everything - below
    return cuts


@dataclass(frozen=True)
class CertificateViolation:
    kind: str  # "infeasible" | "missing-cut" | "separation" | "crossing" | "capacity" | "no-paths" | "value"
    tree_arc: Optional[TreeArc] = None
    detail: Optional[Hashable] = None

    def __str__(self):
        where = f" at tree arc {self.tree_arc!r}" if self.tree_arc else ""
        extra = f" ({self.detail!r})" if self.detail is not None else ""
        return f"{self.kind}{where}{extra}"


def mu_value(real: RealizationTree, flow: Iterable[TerminalPath]) -> Fraction:
    """Total distance-weighted value of a path packing or Multiflow."""
    weight: Dict[Tuple[Hashable, Hashable], int] = {}
    for p in flow:
        if p.source not in real.subtrees or p.target not in real.subtrees:
            raise InputError(f"path endpoint without subtree: {p.source!r}->{p.target!r}",
                             code="dangling-reference")
        weight[(p.source, p.target)] = weight.get((p.source, p.target), 0) + p.weight
    return sum((mu(real, s, t) * w for (s, t), w in weight.items()), Fraction(0))


def check_feasible(net: Network, flow: Iterable[TerminalPath]):
    """None when the path packing (or Multiflow) is feasible, else what
    violates it.

    The paths must be walks with a positive integer weight between two
    distinct terminals: a path with bad endpoints or weight, or whose arcs
    do not run from its source to its target, is returned; otherwise the
    id of the first arc that is unknown, does not continue its walk, or is
    loaded beyond its capacity.
    """
    return _loads(net, flow)[0]


def _loads(net: Network, flow: Iterable[TerminalPath]):
    """What check_feasible returns, and the load of every arc position the
    flow uses, its paths' total weight there."""
    g = net.graph.index
    number, vertex_number, tail, head = g.ids.arc_number, g.ids.number, g.tail, g.head
    terminals = set(net.terminals)
    totals: Dict[int, int] = {}  # by arc position
    for p in flow:
        if (p.source == p.target or p.source not in terminals or p.target not in terminals
                or not p.arcs or not isinstance(p.weight, int) or isinstance(p.weight, bool)
                or p.weight <= 0):
            return p, totals
        prev = None
        for aid in p.arcs:
            k = number.get(aid)
            if k is None or (prev is not None and tail[k] != prev):
                return aid, totals
            prev = head[k]
            totals[k] = totals.get(k, 0) + p.weight
        if tail[number[p.arcs[0]]] != vertex_number[p.source] or prev != vertex_number[p.target]:
            return p, totals
    cap = net.cap
    return next((g.ids.arc_ids[k] for k, w in totals.items() if w > cap[k]), None), totals


def verify_certificate(net: Network, real: RealizationTree, flow: Iterable[TerminalPath],
                       cert: Certificate) -> Optional[CertificateViolation]:
    """None when the certificate proves optimality of the multiflow.

    Checks feasibility of the flow first, then the certificate: its
    positions if it has them (_verify_positions), else its cuts: for every
    tree arc with a nonempty pair set and a cut of its own, the cut
    separates the pair set, every positive path meets the cut boundary at
    most once, and the arcs leaving the cut are used to exactly their
    capacity.  An arc without a cut takes the complement of its reverse
    arc's cut, whose entering arcs must then be used to exactly their
    capacity.  The flow is a path packing or a Multiflow, checked as
    given.  A violation names the first offending terminal or arc in id
    order, or the first offending path in packing order.  Each arc
    position's load, its paths' total weight, is summed once, as the flow
    is checked.  Each cut reads only the paths on its boundary arcs: every
    arc position is indexed once to the paths that use it, one entry per
    use.
    """
    paths = list(flow)
    bad, load = _loads(net, paths)
    if bad is not None:
        return CertificateViolation("infeasible", detail=bad)
    if cert.positions is not None:
        return _verify_positions(net, real, paths, load, cert.positions)

    number, arc_ids, cap = net.graph.index.ids.arc_number, net.graph.index.ids.arc_ids, net.cap
    uses: Dict[int, List[int]] = {}
    for i, p in enumerate(paths):
        for aid in p.arcs:
            uses.setdefault(number[aid], []).append(i)

    cuts = cert.cuts
    for a in real.quasi_arcs():
        side = cuts.get(a)
        reverse = (a[1], a[0])
        if side is None and reverse in cuts:
            continue  # checked as the complement of the reverse arc's cut
        pi = pi_set(real, net.terminals, a)
        if pi.empty:
            continue
        if side is None:
            return CertificateViolation("missing-cut", a)
        if not side or not (side < net.vertices):
            return CertificateViolation("separation", a, "invalid cut")
        wrong = [s for s in pi.tail_side_terminals if s not in side]
        wrong = wrong or [t for t in pi.head_side_terminals if t in side]
        if wrong:
            return CertificateViolation("separation", a, min(wrong, key=sort_key))
        out_arcs, in_arcs = boundary(net, side)
        crossings = [i for k in chain(out_arcs, in_arcs) for i in uses.get(k, ())]
        if len(set(crossings)) < len(crossings):
            p = paths[min(i for i, c in Counter(crossings).items() if c > 1)]
            return CertificateViolation("crossing", a, (p.source, p.target))
        checks = [(out_arcs, a)] if reverse in cuts else [(out_arcs, a), (in_arcs, reverse)]
        for arcs, arc in checks:
            unmet = [arc_ids[k] for k in arcs if load.get(k, 0) != cap[k]]
            if unmet:
                return CertificateViolation("capacity", arc, min(unmet, key=sort_key))
    return None


def _verify_positions(net: Network, real: RealizationTree, paths: List[TerminalPath], load: Dict[int, int],
                      positions: Dict[Hashable, TreeVertex]) -> Optional[CertificateViolation]:
    """The check of a feasible flow against tree positions, in
    O(m + sum of |P| * depth + sum of |S_s|).

    The tree edges with a nonempty pair set are the cut edges
    (IntTree.separating); contracting every other edge leaves components,
    joined by the cut edges into a component tree.  The position of every
    vertex is read once, by vertex number, as its component.  Then:
    - separation: the component of each terminal's position meets the
      terminal's subtree.  Otherwise some cut edge lies between the two,
      and the whole subtree on its far side;
    - crossing: for each path, the component hops along it, read at the
      heads of its arcs, add up to the hops between its ends.  A walk in a
      tree that crosses no edge twice is a geodesic, and each cut a path
      crosses twice adds two;
    - capacity: every arc whose ends lie in different components, and so
      every arc leaving or entering a cut, carries exactly its capacity.
      Such an arc has an end outside the component holding the most
      vertices, so only the adjacency of the other vertices is walked.
    A position that names no tree vertex, a vertex without one and an id
    of no vertex are separation violations."""
    g = net.graph.index
    tree = _tree_of(real, net.terminals)
    index, separating, tnum = tree.index, tree.separating, real._ids.number
    # the component of each tree vertex, numbered in the preorder of the
    # component tree; up, depth and size: each component's parent, depth
    # and number of components below it, itself included
    comp = [0] * len(index.order)
    up, depth = [-1], [0]
    for c in index.order[1:]:
        above = comp[index.parent[c]]
        if c in separating:
            comp[c] = len(up)
            up.append(above)
            depth.append(depth[above] + 1)
        else:
            comp[c] = above
    size = [1] * len(up)
    for c in range(len(up) - 1, 0, -1):
        size[up[c]] += size[c]

    vertex_ids = g.ids.vertex_ids
    try:
        at = [comp[tnum[positions[v]]] for v in vertex_ids]  # each vertex's component, by number
    except KeyError:
        v = next(v for v in vertex_ids if v not in positions or positions[v] not in tnum)
        return CertificateViolation("separation", detail=f"no tree position for {v!r}")
    if len(positions) != len(vertex_ids):
        v = min((v for v in positions if v not in g.ids.number), key=sort_key)
        return CertificateViolation("separation", detail=f"a tree position for {v!r}, which is no vertex")

    number = g.ids.number
    wrong = [s for s in net.terminals if not any(comp[x] == at[number[s]] for x in tree.subtrees[s])]
    if wrong:
        return CertificateViolation("separation", detail=min(wrong, key=sort_key))

    def hops(a: int, b: int) -> int:
        """The cut edges between two components, through their lowest
        common ancestor: the first component on the walk up from the lower
        number (an ancestor's is lower) whose preorder interval holds the
        other, found at once where one is the other's ancestor."""
        if a > b:
            a, b = b, a
        x = a
        while not x <= b < x + size[x]:
            x = up[x]
        return depth[a] + depth[b] - 2 * depth[x]

    arc_number, tail, head = g.ids.arc_number, g.tail, g.head
    for p in paths:  # feasible: each arc starts where the one before it ends
        walked, start = 0, at[number[p.source]]
        here = start
        for aid in p.arcs:
            c = at[head[arc_number[aid]]]
            if c != here:
                walked += hops(here, c)
                here = c
        if walked and walked != hops(start, here):
            return CertificateViolation("crossing", detail=(p.source, p.target))

    cap, adj = net.cap, g.adj
    largest = Counter(at).most_common(1)[0][0] if at else -1
    unmet = [g.ids.arc_ids[e >> 1] for x, c in enumerate(at) if c != largest for e in adj[x]
             if at[tail[e >> 1]] != at[head[e >> 1]] and load.get(e >> 1, 0) != cap[e >> 1]]
    if unmet:
        return CertificateViolation("capacity", detail=min(unmet, key=sort_key))
    return None


def verify_result(net: Network, real: RealizationTree, value: Fraction,
                  paths: Optional[Iterable[TerminalPath]], cert: Certificate) -> Optional[CertificateViolation]:
    """None when a result document's value, paths and certificate prove it
    optimal, else the first violation: "no-paths" without paths, then what
    verify_certificate finds, then "value" if the paths' value differs."""
    if paths is None:
        return CertificateViolation("no-paths")
    paths = list(paths)
    issue = verify_certificate(net, real, paths, cert)
    if issue is None and (carried := mu_value(real, paths)) != value:
        return CertificateViolation("value", detail=f"the paths carry {carried}")
    return issue


def dual_value(net: Network, real: RealizationTree) -> Fraction:
    """Sum over tree arcs of length times the minimum separating cut.

    Each arc with nonempty pair set A x B contributes its length times
    the minimum capacity of an (A, B)-cut, found by one max-flow run on
    the network, numbered once for all of them.  Arcs with the same A and
    B share one run, since their minimum cuts are the same.  For valid
    instances this equals the optimal distance-weighted value, which
    makes it the testing oracle for the solver.
    """
    inet = intern(net)
    num = inet.graph.ids.number
    cut: Dict[Tuple[frozenset, frozenset], int] = {}
    total = Fraction(0)
    for a, ell in real.arc_length.items():
        if ell == 0:
            continue
        pi = pi_set(real, net.terminals, a)
        if pi.empty:
            continue
        key = (pi.tail_side_terminals, pi.head_side_terminals)
        if key not in cut:
            cut[key] = max_flow(inet, [num[s] for s in key[0]], [num[t] for t in key[1]])[1]
        total += ell * cut[key]
    return total
