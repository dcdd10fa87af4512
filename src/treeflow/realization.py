"""Tree realizations of directed distances between terminals.

A realization is an undirected tree in which every edge uv carries two
directed lengths (one per traversal direction) together with one
connected subtree per terminal.  The distance from terminal s to
terminal t is the smallest directed path length from a vertex of s's
subtree to a vertex of t's subtree.

The module also hosts the pre-processing reductions that the solver
relies on: splitting linear terminals into simple pairs, pruning bare
leaves, relocating simple terminals to pendant vertices, bounding inner
degrees by three, and merging chains, all while preserving the induced
distance and a provenance map from original tree arcs to surviving ones.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Set, Tuple

from .errors import InputError, ContractViolation
from .graphs import Network, Digraph, VertexId, fresh_id, sort_key

TreeVertex = Hashable
TreeArc = Tuple[TreeVertex, TreeVertex]


@dataclass(frozen=True)
class RealizationTree:
    """Undirected tree with per-direction arc lengths and terminal subtrees.

    The neighbour lists are built on first use and kept; every tree walk
    reads that one copy.
    """

    vertices: frozenset
    arc_length: Dict[TreeArc, Fraction]
    subtrees: Dict[Hashable, frozenset]

    @staticmethod
    def build(vertices, edges, subtrees) -> "RealizationTree":
        """edges: iterable of (u, v, len_uv, len_vu)."""
        vset = frozenset(vertices)
        lengths: Dict[TreeArc, Fraction] = {}
        adj: Dict[TreeVertex, set] = {v: set() for v in vset}
        n_edges = 0
        for u, v, luv, lvu in edges:
            if u not in vset or v not in vset:
                raise InputError(f"tree edge {u!r}-{v!r} references unknown vertex", code="dangling-reference")
            if u == v:
                raise InputError("tree edge endpoints must differ", code="invalid-tree")
            if (u, v) in lengths:
                raise InputError(f"duplicate tree edge {u!r}-{v!r}", code="invalid-tree")
            luv, lvu = Fraction(luv), Fraction(lvu)
            if luv < 0 or lvu < 0:
                raise InputError("tree arc lengths must be nonnegative", code="negative-length")
            lengths[(u, v)] = luv
            lengths[(v, u)] = lvu
            adj[u].add(v)
            adj[v].add(u)
            n_edges += 1
        if n_edges != len(vset) - 1 or not _connected(vset, adj):
            raise InputError("the realization graph is not a tree", code="invalid-tree")
        subs: Dict[Hashable, frozenset] = {}
        for term, verts in subtrees.items():
            sub = frozenset(verts)
            if not sub:
                raise InputError(f"subtree of terminal {term!r} is empty", code="empty-subtree")
            for x in sub:
                if x not in vset:
                    raise InputError(f"subtree of {term!r} references unknown tree vertex", code="dangling-reference")
            if not _connected(sub, {v: adj[v] & sub for v in sub}):
                raise InputError(f"subtree of terminal {term!r} is not connected", code="disconnected-subtree")
            subs[term] = sub
        return RealizationTree(vset, lengths, subs)

    # -- structure helpers ------------------------------------------------

    @cached_property
    def _adjacency(self) -> Mapping[TreeVertex, Tuple[TreeVertex, ...]]:
        adj: Dict[TreeVertex, List[TreeVertex]] = {v: [] for v in self.vertices}
        for (u, v) in self.arc_length:
            adj[u].append(v)
        return {v: tuple(sorted(ns, key=sort_key)) for v, ns in adj.items()}

    def adjacency(self) -> Mapping[TreeVertex, Tuple[TreeVertex, ...]]:
        """Neighbours of every tree vertex, sorted by sort_key; the tree's
        own copy, not to be modified."""
        return self._adjacency

    def edges(self) -> List[Tuple[TreeVertex, TreeVertex]]:
        out = []
        for (u, v) in self.arc_length:
            if sort_key(u) < sort_key(v):
                out.append((u, v))
        out.sort(key=lambda e: (sort_key(e[0]), sort_key(e[1])))
        return out

    def quasi_arcs(self) -> List[TreeArc]:
        return sorted(self.arc_length, key=lambda a: (sort_key(a[0]), sort_key(a[1])))

    def leaves(self) -> List[TreeVertex]:
        adj = self.adjacency()
        return [v for v in sorted(self.vertices, key=sort_key) if len(adj[v]) == 1]

    def path_between(self, x: TreeVertex, y: TreeVertex) -> List[TreeVertex]:
        if x not in self.vertices or y not in self.vertices:
            raise InputError("unknown tree vertex", code="dangling-reference")
        adj = self.adjacency()
        prev = {x: None}
        q = deque([x])
        while q:
            u = q.popleft()
            if u == y:
                break
            for w in adj[u]:
                if w not in prev:
                    prev[w] = u
                    q.append(w)
        path = [y]
        while path[-1] != x:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def component_without_edge(self, u: TreeVertex, v: TreeVertex) -> FrozenSet:
        """Vertices on u's side after removing edge uv."""
        if (u, v) not in self.arc_length:
            raise InputError(f"unknown tree arc {(u, v)!r}", code="dangling-reference")
        adj = self.adjacency()
        seen = {u}
        q = deque([u])
        while q:
            w = q.popleft()
            for x in adj[w]:
                if (w, x) == (u, v) or (w, x) == (v, u):
                    continue
                if x not in seen:
                    seen.add(x)
                    q.append(x)
        return frozenset(seen)


def _connected(vset, adj) -> bool:
    if not vset:
        return False
    start = next(iter(vset))
    seen = {start}
    q = deque([start])
    while q:
        u = q.popleft()
        for w in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                q.append(w)
    return len(seen) == len(vset)


@dataclass(frozen=True)
class PiSet:
    """Terminal pair structure of a tree arc: pairs in A x B feel its length."""

    tree_arc: TreeArc
    tail_side_terminals: frozenset
    head_side_terminals: frozenset

    @property
    def pairs(self):
        return {(s, t) for s in self.tail_side_terminals for t in self.head_side_terminals}

    @property
    def empty(self) -> bool:
        return not self.tail_side_terminals or not self.head_side_terminals


def tree_distance(real: RealizationTree, x: TreeVertex, y: TreeVertex) -> Fraction:
    """Length of the unique directed x -> y path in the quasi-tree."""
    path = real.path_between(x, y)
    total = Fraction(0)
    for a, b in zip(path, path[1:]):
        total += real.arc_length[(a, b)]
    return total


def mu(real: RealizationTree, s, t) -> Fraction:
    """Distance from s's subtree to t's subtree (zero when s == t)."""
    if s not in real.subtrees or t not in real.subtrees:
        raise InputError("unknown terminal", code="dangling-reference")
    if s == t:
        return Fraction(0)
    best = None
    for u in sorted(real.subtrees[s], key=sort_key):
        for v in sorted(real.subtrees[t], key=sort_key):
            d = tree_distance(real, u, v)
            if best is None or d < best:
                best = d
    return best


def classify_terminal(real: RealizationTree, s) -> str:
    """'simple', 'linear', or 'complex'.

    Linear means the subtree is an undirected path one of whose traversal
    directions has zero total length.
    """
    sub = real.subtrees.get(s)
    if sub is None:
        raise InputError(f"unknown terminal {s!r}", code="dangling-reference")
    if len(sub) == 1:
        return "simple"
    ends = _path_endpoints(real, sub)
    if ends is None:
        return "complex"
    t1, t2 = ends
    if tree_distance(real, t1, t2) == 0 or tree_distance(real, t2, t1) == 0:
        return "linear"
    return "complex"


def _path_endpoints(real: RealizationTree, sub: frozenset):
    """Endpoints if the subtree induces a path, else None."""
    adj = real.adjacency()
    degs = {}
    for v in sub:
        degs[v] = sum(1 for w in adj[v] if w in sub)
    ends = [v for v in sub if degs[v] == 1]
    if any(d > 2 for d in degs.values()) or len(ends) != 2:
        return None
    ends.sort(key=sort_key)
    return ends[0], ends[1]


def pi_set(real: RealizationTree, terminals, a: TreeArc) -> PiSet:
    """Terminals whose subtrees lie entirely on the tail/head side of a."""
    u, v = a
    side_u = real.component_without_edge(u, v)
    side_v = real.vertices - side_u
    tail, head = set(), set()
    for s in terminals:
        sub = real.subtrees.get(s)
        if sub is None:
            raise InputError(f"unknown terminal {s!r}", code="dangling-reference")
        if sub <= side_u:
            tail.add(s)
        elif sub <= side_v:
            head.add(s)
    return PiSet(a, frozenset(tail), frozenset(head))


def choose_balanced_edge(real: RealizationTree):
    """An edge with non-leaf endpoints splitting the leaves near-evenly.

    Returns (u, v) with leaf counts of both sides (counting the new leaf
    a contraction would create) at most 2k/3 + 1, or None when every edge
    touches a leaf.  Only adjacency(), edges() and component_without_edge()
    are read, so the solver passes its numbered tree as well.
    """
    adj = real.adjacency()
    leaves = {v for v, ns in adj.items() if len(ns) == 1}
    k = len(leaves)
    eligible = [(u, v) for (u, v) in real.edges() if u not in leaves and v not in leaves]
    if not eligible:
        return None
    for (u, v) in eligible:
        side_u = real.component_without_edge(u, v)
        k1 = len(leaves & side_u) + 1
        k2 = len(leaves - side_u) + 1
        if 3 * k1 <= 2 * k + 3 and 3 * k2 <= 2 * k + 3:
            return (u, v)
    raise ContractViolation("no balanced partition edge in a degree-3 tree")


@dataclass(frozen=True)
class ValidationIssue:
    vertex: VertexId
    reason: str


def validate_instance(net: Network, real: RealizationTree) -> Optional[ValidationIssue]:
    """Check the solvability conditions; None when the instance is fine.

    Structural problems (missing subtrees, dangling references) raise
    InputError.  A capacity imbalance at an inner vertex or at a complex
    terminal is reported as a ValidationIssue instead.
    """
    for t in net.terminals:
        if t not in real.subtrees:
            raise InputError(f"terminal {t!r} has no subtree", code="missing-subtree")
    caps_out: Dict[VertexId, int] = {}
    caps_in: Dict[VertexId, int] = {}
    for a in net.graph.arcs:
        c = net.capacity[a.id]
        caps_out[a.tail] = caps_out.get(a.tail, 0) + c
        caps_in[a.head] = caps_in.get(a.head, 0) + c
    terms = set(net.terminals)
    for v in sorted(net.vertices, key=sort_key):
        balanced = caps_out.get(v, 0) == caps_in.get(v, 0)
        if v not in terms:
            if not balanced:
                return ValidationIssue(v, "inner vertex is not Eulerian")
        elif classify_terminal(real, v) == "complex":
            if not balanced:
                return ValidationIssue(v, "complex terminal is not Eulerian")
    return None


# -- reductions -----------------------------------------------------------


@dataclass(frozen=True)
class SplitRecord:
    """One linear-terminal split: s became inner, s1/s2 took its roles."""

    terminal: Hashable
    source_half: Hashable  # s2, the new departing terminal
    target_half: Hashable  # s1, the new arriving terminal
    in_arc: Hashable  # arc s -> s1
    out_arc: Hashable  # arc s2 -> s


@dataclass
class NormalizeRecord:
    """Provenance of a normalization run, enough to undo its effects."""

    splits: List[SplitRecord] = field(default_factory=list)
    arc_map: Dict[TreeArc, Optional[TreeArc]] = field(default_factory=dict)


def split_linear_terminal(net: Network, real: RealizationTree, s):
    """Replace a linear terminal by two simple ones at its path ends.

    New vertices s1 and s2 hang off s with arcs (s, s1) of capacity
    c(in(s)) and (s2, s) of capacity c(out(s)); afterwards s is an inner
    Eulerian vertex.  Distances are preserved: mu(x, s1) equals the old
    mu(x, s) and mu(s2, x) equals the old mu(s, x).
    """
    if classify_terminal(real, s) != "linear":
        raise ContractViolation(f"terminal {s!r} is not linear")
    t1, t2 = _path_endpoints(real, real.subtrees[s])
    if tree_distance(real, t2, t1) != 0:
        t1, t2 = t2, t1
    if tree_distance(real, t2, t1) != 0:
        raise ContractViolation("linear terminal has no zero-length direction")

    g = net.graph
    cap_in = sum(net.capacity[a.id] for a in g.in_arcs(s))
    cap_out = sum(net.capacity[a.id] for a in g.out_arcs(s))
    # the stems differ, so the two new vertices (and arcs) cannot collide
    s1 = fresh_id(net.vertices, "+", ("in", s))
    s2 = fresh_id(net.vertices, "+", ("out", s))
    a_in = fresh_id(g.arcs_by_id(), "+", ("arc-in", s))
    a_out = fresh_id(g.arcs_by_id(), "+", ("arc-out", s))

    arcs = [(a.id, a.tail, a.head) for a in g.arcs]
    arcs.append((a_in, s, s1))
    arcs.append((a_out, s2, s))
    caps = dict(net.capacity)
    caps[a_in] = cap_in
    caps[a_out] = cap_out
    terminals = tuple(t for t in net.terminals if t != s) + (s1, s2)
    new_net = Network(Digraph.build(net.vertices | {s1, s2}, arcs), terminals, caps)

    subs = dict(real.subtrees)
    del subs[s]
    subs[s1] = frozenset({t1})
    subs[s2] = frozenset({t2})
    new_real = RealizationTree(real.vertices, dict(real.arc_length), subs)
    rec = SplitRecord(s, s2, s1, a_in, a_out)
    return new_net, new_real, rec


def normalize(net: Network, real: RealizationTree):
    """Apply the five reductions to a fixed point.

    Afterwards: no linear terminals, every leaf hosts a simple terminal,
    no simple terminal at an inner vertex, inner degrees at most three,
    and no mergeable degree-two chains.  Returns the reduced instance and
    a NormalizeRecord mapping original tree arcs to surviving ones.
    """
    issue = validate_instance(net, real)
    if issue is not None:
        raise InputError(f"instance invalid at {issue.vertex!r}: {issue.reason}", code="not-eulerian")

    record = NormalizeRecord()
    record.arc_map = {a: a for a in real.quasi_arcs()}

    for _round in range(10 * (len(real.vertices) + len(net.terminals)) + 20):
        changed = False

        # C1: split linear terminals into pairs of simple ones
        for s in sorted(net.terminals, key=sort_key):
            if classify_terminal(real, s) == "linear":
                net, real, rec = split_linear_terminal(net, real, s)
                record.splits.append(rec)
                changed = True

        # mutable views of the tree for the remaining reductions
        tverts = set(real.vertices)
        lengths = dict(real.arc_length)
        subs = {t: set(v) for t, v in real.subtrees.items()}

        def adj_of():
            adj: Dict[TreeVertex, Set[TreeVertex]] = {v: set() for v in tverts}
            for (u, v) in lengths:
                adj[u].add(v)
            return adj

        # C2: drop leaves that realize no simple terminal
        while True:
            adj = adj_of()
            victim = None
            for v in sorted(tverts, key=sort_key):
                if len(adj[v]) != 1:
                    continue
                if len(tverts) < 2:
                    break
                if any(sub == {v} for sub in subs.values()):
                    continue
                victim = v
                break
            if victim is None:
                break
            nb = next(iter(adj_of()[victim]))
            del lengths[(victim, nb)]
            del lengths[(nb, victim)]
            record.arc_map = {
                a: (None if m is not None and victim in m else m)
                for a, m in record.arc_map.items()
            }
            tverts.remove(victim)
            for sub in subs.values():
                sub.discard(victim)
            changed = True

        # C3: move simple terminals off inner vertices to zero-length pendants
        adj = adj_of()
        for v in sorted(tverts, key=sort_key):
            if len(adj.get(v, ())) < 2:
                continue
            movers = [t for t, sub in subs.items() if sub == {v}]
            if not movers:
                continue
            v2 = fresh_id(tverts, "+", ("leaf", v))
            tverts.add(v2)
            lengths[(v, v2)] = Fraction(0)
            lengths[(v2, v)] = Fraction(0)
            for t in movers:
                subs[t] = {v2}
            adj = adj_of()
            changed = True

        # C4: split vertices of degree four or more
        while True:
            adj = adj_of()
            v = next((x for x in sorted(tverts, key=sort_key) if len(adj[x]) >= 4), None)
            if v is None:
                break
            neighbors = sorted(adj[v], key=sort_key)
            keep, move = neighbors[:2], neighbors[2:]
            v2 = fresh_id(tverts, "+", ("deg", v))
            tverts.add(v2)
            moved = set(move)
            for w in move:
                lengths[(v2, w)] = lengths.pop((v, w))
                lengths[(w, v2)] = lengths.pop((w, v))
            record.arc_map = {
                a: (_rename_arc(m, v, v2, moved) if m is not None else None)
                for a, m in record.arc_map.items()
            }
            lengths[(v, v2)] = Fraction(0)
            lengths[(v2, v)] = Fraction(0)
            for sub in subs.values():
                if v in sub and sub & moved:
                    sub.add(v2)
            changed = True

        # C5: merge chains at degree-2 vertices with no subtree boundary
        while True:
            adj = adj_of()
            merged = False
            for v in sorted(tverts, key=sort_key):
                if len(adj.get(v, ())) != 2:
                    continue
                u, w = sorted(adj[v], key=sort_key)
                # mergeable iff v is never a boundary vertex of a subtree
                blocked = any(v in sub and not (u in sub and w in sub)
                              for sub in subs.values())
                if blocked:
                    continue
                luw = lengths.pop((u, v)) + lengths.pop((v, w))
                lwu = lengths.pop((w, v)) + lengths.pop((v, u))
                lengths[(u, w)] = luw
                lengths[(w, u)] = lwu
                new_map = {}
                for a, m in record.arc_map.items():
                    if m == (u, v) or m == (v, w):
                        new_map[a] = (u, w)
                    elif m == (w, v) or m == (v, u):
                        new_map[a] = (w, u)
                    else:
                        new_map[a] = m
                record.arc_map = new_map
                tverts.remove(v)
                for sub in subs.values():
                    sub.discard(v)
                merged = True
                changed = True
                break
            if not merged:
                break

        real = RealizationTree(frozenset(tverts), lengths,
                               {t: frozenset(s) for t, s in subs.items()})
        if not changed:
            return net, real, record
    raise ContractViolation("normalization did not reach a fixed point")


def _rename_arc(arc: TreeArc, v, v2, moved) -> TreeArc:
    """The arc with v renamed to v2 where v's other end is in moved."""
    a, b = arc
    if a == v and b in moved:
        return (v2, b)
    if b == v and a in moved:
        return (a, v2)
    return arc
