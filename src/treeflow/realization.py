"""Tree realizations of directed distances between terminals.

A realization is an undirected tree in which every edge uv carries two
directed lengths (one per traversal direction) together with one
connected subtree per terminal.  The distance from terminal s to
terminal t is the smallest directed path length from a vertex of s's
subtree to a vertex of t's subtree.  Every tree query reads one rooted
index (TreeIndex) of the tree on numbers, built once per tree: sides
are preorder intervals, and distances differences of prefix sums.

The module also hosts the reductions, which preserve the induced
distance and map input tree arcs to surviving ones: splitting linear
terminals into simple pairs (C1), pruning bare leaves (C2), moving
simple terminals to pendants (C3), bounding inner degrees by three (C4)
and merging chains (C5).  They run once in that order, then C1, C3 and
C4 again, on numbers (Reduction), leaving the IntTree the solver recurses
on; normalize and split_linear_terminal wrap them in ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import accumulate
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Tuple

from .errors import InputError, ContractViolation
from .graphs import Network, Digraph, VertexId, unbalanced
from .indexed import IdTable, IntGraph, IntNetwork, intern

TreeVertex = Hashable
TreeArc = Tuple[TreeVertex, TreeVertex]


class TreeIndex:
    """A tree on vertex numbers, rooted at its lowest number by one walk.

    adj lists each vertex's neighbours in number order.  The walk lists
    the vertices in preorder (order), so those below v, v included, are
    order[start[v]:start[v] + size[v]].  parent is -1 at the root; leaves
    counts the degree-one vertices below each vertex.  If adj is no tree,
    order is short.  length, if given, holds the arc lengths by pair of
    numbers.
    """

    def __init__(self, adj: Dict[int, Tuple[int, ...]],
                 length: Optional[Dict[Tuple[int, int], Fraction]] = None):
        self.adj, self.length = adj, length
        root = min(adj)
        parent, order, stack = {root: -1}, [], [root]
        while stack:  # each vertex is pushed once, by its parent: a preorder
            v = stack.pop()
            order.append(v)
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    stack.append(w)
        self.parent, self.order = parent, order
        self.start = {v: i for i, v in enumerate(order)}
        self.size = size = dict.fromkeys(order, 1)
        self.leaves = leaves = {v: int(len(adj[v]) == 1) for v in order}
        for v in reversed(order[1:]):
            size[parent[v]] += size[v]
            leaves[parent[v]] += leaves[v]

    @cached_property
    def sums(self) -> Tuple[Dict[int, Fraction], Dict[int, Fraction]]:
        """down and up: the lengths of the paths root -> v and v -> root."""
        root, parent, length = self.order[0], self.parent, self.length
        down, up = {root: Fraction(0)}, {root: Fraction(0)}
        for v in self.order[1:]:
            p = parent[v]
            down[v] = down[p] + length[(p, v)]
            up[v] = up[p] + length[(v, p)]
        return down, up

    def below(self, v: int, x: int) -> bool:
        return self.start[v] <= self.start[x] < self.start[v] + self.size[v]

    def lower(self, u: int, v: int) -> int:
        """The end of tree edge uv farther from the root."""
        return v if self.parent[v] == u else u

    def top(self, sub: FrozenSet[int]) -> Optional[int]:
        """The vertex of a vertex set nearest the root; None if the set is
        not connected, as then more than one has its parent outside it."""
        tops = [x for x in sub if self.parent[x] not in sub]
        return tops[0] if len(tops) == 1 else None

    def gap(self, s: int, sub_s: FrozenSet[int], t: int, sub_t: FrozenSet[int]) -> Fraction:
        """Length of the shortest path from a connected vertex set with top
        s to one with top t: the path joining them, lengths being
        nonnegative.  Where one set hangs below the other's top, it joins
        the lower top and the first vertex of the other set on the walk up
        from it; otherwise the two tops, through their lowest common
        ancestor."""
        parent, (down, up) = self.parent, self.sums
        if self.below(s, t):
            x = s if len(sub_s) == 1 else t  # a one-vertex set is its own first vertex
            while x not in sub_s:
                x = parent[x]
            return down[t] - down[x]
        if self.below(t, s):
            x = t if len(sub_t) == 1 else s
            while x not in sub_t:
                x = parent[x]
            return up[s] - up[x]
        x = s
        while not self.below(x, t):
            x = parent[x]
        return up[s] - up[x] + down[t] - down[x]


def parse_rational(text) -> Fraction:
    """A rational from an int or from a decimal or fraction literal such as
    "-1.5" or "7/3"; anything else, an exponent literal among them, is an
    InputError (bad-rational)."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    # exponents are rejected unread: "1e999999999" would build a 415 MB integer
    if isinstance(text, str) and "e" not in text.lower():
        # Decimal reads digit strings of any length, where int(str) and
        # Fraction(str) stop at the int-string limit
        num, slash, den = text.partition("/")
        try:
            value = Fraction(Decimal(num))
            return value / Fraction(Decimal(den)) if slash else value
        except (ArithmeticError, ValueError):  # a bad literal, a zero denominator, inf or nan
            pass
    raise InputError(f"bad rational literal {text!r}", code="bad-rational")


@dataclass(frozen=True)
class RealizationTree:
    """Undirected tree with per-direction arc lengths and terminal subtrees.

    Its vertices are numbered in id order and rooted once, by build or on
    first use: _int, the tree on numbers with subtrees keyed by terminal
    id, answers every query.
    """

    vertices: frozenset
    arc_length: Dict[TreeArc, Fraction]
    subtrees: Dict[Hashable, frozenset]
    _sides: Dict[TreeArc, FrozenSet] = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def build(vertices, edges, subtrees) -> "RealizationTree":
        """edges: iterable of (u, v, len_uv, len_vu)."""
        vset = frozenset(vertices)
        lengths: Dict[TreeArc, Fraction] = {}
        for u, v, luv, lvu in edges:
            if u not in vset or v not in vset:
                raise InputError(f"tree edge {u!r}-{v!r} references unknown vertex", code="dangling-reference")
            if u == v:
                raise InputError("tree edge endpoints must differ", code="invalid-tree")
            if (u, v) in lengths:
                raise InputError(f"duplicate tree edge {u!r}-{v!r}", code="invalid-tree")
            try:
                luv, lvu = [parse_rational(x) if isinstance(x, str) else Fraction(x) for x in (luv, lvu)]
            except (ArithmeticError, TypeError, ValueError):  # not a number, inf, nan, 1/0
                raise InputError(f"tree edge {u!r}-{v!r}: a length is no rational", code="bad-rational") from None
            if luv < 0 or lvu < 0:
                raise InputError("tree arc lengths must be nonnegative", code="negative-length")
            lengths[(u, v)] = luv
            lengths[(v, u)] = lvu
        subs: Dict[Hashable, frozenset] = {}
        real = RealizationTree(vset, lengths, subs)  # subs and its numbered copy fill below, once checked
        # n - 1 edges that the walk from the root joins: a tree (the count
        # first, so that an empty vertex set is never rooted)
        if len(lengths) != 2 * len(vset) - 2 or len(real._int.index.order) < len(vset):
            raise InputError("the realization graph is not a tree", code="invalid-tree")
        num, tree = real._ids.number, real._int
        for term, verts in subtrees.items():
            sub = frozenset(verts)
            if not sub:
                raise InputError(f"subtree of terminal {term!r} is empty", code="empty-subtree")
            if not sub <= vset:
                raise InputError(f"subtree of {term!r} references unknown tree vertex", code="dangling-reference")
            numbers = frozenset([num[x] for x in sub])
            if tree.index.top(numbers) is None:
                raise InputError(f"subtree of terminal {term!r} is not connected", code="disconnected-subtree")
            subs[term], tree.subtrees[term] = sub, numbers
        return real

    @cached_property
    def _ids(self) -> IdTable:
        return IdTable.of(self.vertices)

    @cached_property
    def _int(self) -> "IntTree":
        num = self._ids.number
        adj: Dict[int, List[int]] = {v: [] for v in range(len(num))}
        for (u, v) in self.arc_length:
            adj[num[u]].append(num[v])
        index = TreeIndex({v: tuple(sorted(ns)) for v, ns in adj.items()},
                          {(num[u], num[v]): ell for (u, v), ell in self.arc_length.items()})
        return IntTree(index, {t: frozenset([num[x] for x in sub]) for t, sub in self.subtrees.items()})

    def _arc(self, a: TreeArc) -> Tuple[int, int]:
        """Tree arc a on vertex numbers; an InputError if it is no tree arc."""
        u, v = a
        if (u, v) not in self.arc_length:
            raise InputError(f"unknown tree arc {a!r}", code="dangling-reference")
        return self._ids.number[u], self._ids.number[v]

    def component_without_edge(self, u: TreeVertex, v: TreeVertex) -> FrozenSet:
        """Vertices on u's side after removing edge uv, read from the index
        on first use; the tree keeps one copy per arc."""
        side = self._sides.get((u, v))
        if side is None:
            vid = self._ids.vertex_ids
            side = frozenset([vid[x] for x in self._int.component_without_edge(*self._arc((u, v)))])
            self._sides[(u, v)] = side
        return side

    @cached_property
    def _adjacency(self) -> Mapping[TreeVertex, Tuple[TreeVertex, ...]]:
        vid = self._ids.vertex_ids
        return {vid[v]: tuple([vid[w] for w in ns]) for v, ns in self._int.index.adj.items()}

    def adjacency(self) -> Mapping[TreeVertex, Tuple[TreeVertex, ...]]:
        """Neighbours of every tree vertex, sorted by sort_key; the tree's
        own copy, not to be modified."""
        return self._adjacency

    def edges(self) -> List[Tuple[TreeVertex, TreeVertex]]:
        num = self._ids.number
        return [(u, v) for u, v in self.quasi_arcs() if num[u] < num[v]]

    def quasi_arcs(self) -> List[TreeArc]:
        """Both arcs of every edge by sort_key of (tail, head)."""
        return [(u, v) for u, ns in self.adjacency().items() for v in ns]

    def leaves(self) -> List[TreeVertex]:
        return [v for v, ns in self.adjacency().items() if len(ns) == 1]


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
    num = real._ids.number
    if x not in num or y not in num:
        raise InputError("unknown tree vertex", code="dangling-reference")
    x, y = num[x], num[y]
    return real._int.index.gap(x, {x}, y, {y})


def mu(real: RealizationTree, s, t) -> Fraction:
    """Distance from s's subtree to t's subtree (zero when s == t)."""
    if s not in real.subtrees or t not in real.subtrees:
        raise InputError("unknown terminal", code="dangling-reference")
    if s == t:
        return Fraction(0)
    tree = real._int
    return tree.index.gap(tree.tops[s], tree.subtrees[s], tree.tops[t], tree.subtrees[t])


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
    tree = real._int
    linear = _linear_ends(tree.subtrees[s], tree.index.adj, tree.index.length) is not None
    return "linear" if linear else "complex"


def _linear_ends(sub, adj, length) -> Optional[Tuple[int, int]]:
    """The ends (t1, t2) of a subtree that is a path of two or more
    vertices with length zero from t2 to t1, the lower number first where
    both directions have length zero; None for any other subtree.  adj
    and length are a tree's neighbours and arc lengths on numbers; the
    walk stays inside the subtree."""
    ends = []
    for v in sub:
        inside = sum(1 for w in adj[v] if w in sub)
        if inside > 2:
            return None
        if inside == 1:
            ends.append(v)
    if len(ends) != 2:
        return None
    t1, t2 = sorted(ends)
    path = [t1]
    while path[-1] != t2:
        path.append(next(w for w in adj[path[-1]] if w in sub and w not in path[-2:]))
    arcs = list(zip(path, path[1:]))
    if not any(length[(w, u)] for u, w in arcs):
        return t1, t2
    return (t2, t1) if not any(length[a] for a in arcs) else None


def pi_set(real, terminals, a: TreeArc) -> PiSet:
    """Terminals whose subtrees lie entirely on the tail/head side of a,
    in a RealizationTree or, with a on numbers, in an IntTree.

    Let c be the end of a below the other.  A connected subtree lies below
    c iff its top does, and on the other side iff its top does not and c
    is not in it: one interval test per terminal.
    """
    tree, (u, v) = (real, a) if isinstance(real, IntTree) else (real._int, real._arc(a))
    c = tree.index.lower(u, v)
    start, tops, subs = tree.index.start, tree.tops, tree.subtrees
    lo, hi = start[c], start[c] + tree.index.size[c]
    below, above = [], []
    for s in terminals:
        top = tops.get(s)
        if top is None:
            raise InputError(f"unknown terminal {s!r}", code="dangling-reference")
        if lo <= start[top] < hi:
            below.append(s)
        elif c not in subs[s]:
            above.append(s)
    tail, head = (below, above) if c == u else (above, below)
    return PiSet(a, frozenset(tail), frozenset(head))


def choose_balanced_edge(real):
    """An edge with non-leaf endpoints splitting the leaves near-evenly.

    Returns (u, v) with leaf counts of both sides (counting the new leaf
    a contraction would create) at most 2k/3 + 1, or None when every edge
    touches a leaf.  Such an edge exists when inner degrees are at most
    three, as normalize leaves them; a tree with a vertex of degree four or
    more and no such edge is an InputError.  Edges are read in tie order
    and leaf counts from the index of a RealizationTree or, as the solver
    passes, of an IntTree.
    """
    if not isinstance(real, IntTree):
        edge = choose_balanced_edge(real._int)
        vid = real._ids.vertex_ids
        return None if edge is None else (vid[edge[0]], vid[edge[1]])
    adj, leaves = real.index.adj, real.index.leaves
    k = leaves[real.index.order[0]]
    eligible = [(u, v) for u in sorted(adj) for v in adj[u] if u < v and len(adj[u]) > 1 and len(adj[v]) > 1]
    if not eligible:
        return None
    for (u, v) in eligible:
        below = leaves[real.index.lower(u, v)]
        if 3 * (below + 1) <= 2 * k + 3 and 3 * (k - below + 1) <= 2 * k + 3:
            return u, v
    if any(len(ns) >= 4 for ns in adj.values()):
        raise InputError("no balanced partition edge: the tree has a vertex of degree four or more",
                         code="invalid-tree")
    raise ContractViolation("no balanced partition edge in a degree-3 tree")


@dataclass(frozen=True)
class ValidationIssue:
    vertex: VertexId
    reason: str


def _require_subtrees(net: Network, real: RealizationTree) -> None:
    for t in net.terminals:
        if t not in real.subtrees:
            raise InputError(f"terminal {t!r} has no subtree", code="missing-subtree")


def validate_instance(net: Network, real: RealizationTree) -> Optional[ValidationIssue]:
    """Check the solvability conditions; None when the instance is fine.

    Structural problems (missing subtrees, dangling references) raise
    InputError.  A capacity imbalance at an inner vertex or at a complex
    terminal is reported as a ValidationIssue instead, for the first such
    vertex in id order.
    """
    _require_subtrees(net, real)
    terms = set(net.terminals)
    for v in unbalanced(net):
        if v not in terms:
            return ValidationIssue(v, "inner vertex is not Eulerian")
        if classify_terminal(real, v) == "complex":
            return ValidationIssue(v, "complex terminal is not Eulerian")
    return None


# -- the instance on numbers and its reductions -----------------------------


@dataclass(frozen=True)
class IntTree:
    """A realization tree on numbers: the tree rooted at its lowest number
    (index) and each terminal's subtree of tree vertex numbers; tops maps
    a terminal to its subtree's vertex nearest the root.  A solve keys
    terminals by vertex number, and only its input tree's index holds
    lengths, as a solve computes its value on the input tree; a
    RealizationTree keeps one keyed by terminal id.
    """

    index: TreeIndex
    subtrees: Dict[Hashable, FrozenSet[int]]

    @cached_property
    def tops(self) -> Dict[Hashable, int]:
        return {t: self.index.top(sub) for t, sub in self.subtrees.items()}

    @cached_property
    def vertices(self) -> FrozenSet[int]:
        return frozenset(self.index.adj)

    @cached_property
    def separating(self) -> FrozenSet[int]:
        """The lower ends c of the tree edges (parent of c, c) whose pair
        sets are nonempty, counted on first use.  A connected subtree lies
        below c iff its top does, and wholly above c iff its top does not
        and it does not hold the edge, that is, c is in it but is not its
        top.  So the edge separates a pair iff some top lies in c's
        preorder interval, counted from prefix sums of the tops per
        preorder position, and some terminal is neither counted there nor
        holds the edge: one pass over the subtrees, none per edge."""
        index, tops = self.index, self.tops
        start, size, order = index.start, index.size, index.order
        at = [0] * len(order)  # tops per preorder position
        held = dict.fromkeys(order, 0)  # terminals holding the edge above each vertex
        for t, sub in self.subtrees.items():
            top = tops[t]
            at[start[top]] += 1
            for x in sub:
                held[x] += 1
            held[top] -= 1
        before = list(accumulate(at, initial=0))
        k = len(self.subtrees)
        return frozenset([c for c in order[1:]
                          if 0 < (below := before[start[c] + size[c]] - before[start[c]]) < k - held[c]])

    def component_without_edge(self, u: int, v: int) -> FrozenSet[int]:
        """Vertices on u's side after removing edge uv: the preorder
        interval below the lower end, or the rest of the preorder."""
        index = self.index
        c = index.lower(u, v)
        lo, hi = index.start[c], index.start[c] + index.size[c]
        return frozenset(index.order[lo:hi] if c == u else index.order[:lo] + index.order[hi:])


def intern_instance(net: Network, real: RealizationTree):
    """The instance on numbers: the interned network, a copy of the tree's
    IdTable (tree vertices in id order, numbered once per tree), the
    IntTree of the network's terminals on the tree's own index, and its
    arc lengths by pair of numbers.  Checks nothing."""
    inet, tree = intern(net), real._int
    num = inet.graph.ids.number
    tree_ids = IdTable(real._ids.vertex_ids[:], real._ids.number, [], {})  # its own list, which the solve grows
    int_tree = IntTree(tree.index, {num[t]: tree.subtrees[t] for t in net.terminals})
    return inet, tree_ids, int_tree, tree.index.length


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
    """Provenance of a normalization run, enough to undo its effects.

    Inside a solve it holds vertex, arc and tree vertex numbers; the
    public normalize and split_linear_terminal return it in ids.
    """

    splits: List[SplitRecord]
    arc_map: Dict[TreeArc, Optional[TreeArc]]


class Reduction:
    """The five reductions on a numbered instance, in the fixed order of run.

    The tree is held as neighbour sets, and each tree arc's length and the
    input tree arcs it stands for (origin) by its pair of numbers; subs
    maps each terminal to its subtree, so its keys, in order, are the
    terminals.  Made tree vertices, split vertices and split arcs take the
    next numbers of their IdTables; home maps each made tree vertex to the
    input vertex it came from, which lies on the same side of every input
    edge.  The network is rebuilt once, at the end (network), with arcs
    and capacities only.
    """

    def __init__(self, net: IntNetwork, tree_ids: IdTable, tree: IntTree,
                 length: Dict[Tuple[int, int], Fraction]):
        self.net = net
        self.ids = net.graph.ids
        self.tree_ids = tree_ids
        self.adj = {v: set(ns) for v, ns in tree.index.adj.items()}
        self.length = dict(length)
        self.input_arcs = sorted(length)
        self.origin = {a: [a] for a in self.input_arcs}
        self.subs = {t: set(sub) for t, sub in tree.subtrees.items()}
        self.splits: List[SplitRecord] = []
        self.home: Dict[int, int] = {}

    def run(self) -> None:
        """C1 to C5, then C1, C3 and C4 again, after which none finds work:
        only C2 makes work for an earlier step.  C1 changes no tree edge (the
        subtree it removes occupies no leaf, and its halves sit at its ends,
        its only boundary vertices); C3 adds pendants that host simple
        terminals and only raises degrees; C4 subdivides with zero-length
        edges, making no leaf or degree-2 vertex and keeping each subtree's
        shape and zero directions; C5 removes degree-2 vertices inside
        subtrees or outside all of them, adding lengths.  C2 can leave a
        subtree linear: C1 splits it, C3 moves the halves off inner ends, and
        C4 splits an end raised to degree four.  All else C2 does (such as
        shrinking a subtree to one vertex) C3 to C5 handle the first time."""
        for s in sorted(self.subs):
            self.split(s)  # C1
        self._drop_bare_leaves()  # C2
        self._move_simple_terminals()  # C3
        self._bound_degrees()  # C4
        self._merge_chains()  # C5
        for s in sorted(self.subs):
            self.split(s)
        self._move_simple_terminals()
        self._bound_degrees()

    def tree(self) -> IntTree:
        return IntTree(TreeIndex({v: tuple(sorted(ns)) for v, ns in self.adj.items()}),
                       {t: frozenset(sub) for t, sub in self.subs.items()})

    def network(self) -> IntNetwork:
        """The network with each split's arcs s -> s1, carrying the
        capacity into s, and s2 -> s, carrying the capacity out of s."""
        if not self.splits:
            return self.net
        g, caps = self.net.graph, self.net.cap
        arcs, tail, head, cap = list(g.arcs), list(g.tail), list(g.head), list(caps)
        for r in self.splits:
            s = r.terminal
            arcs += [r.in_arc, r.out_arc]
            tail += [s, r.source_half]
            head += [r.target_half, s]
            cap += [sum(caps[e >> 1] for e in g.adj[s] if e & 1),
                    sum(caps[e >> 1] for e in g.adj[s] if not e & 1)]
        halves = [h for r in self.splits for h in (r.target_half, r.source_half)]
        return IntNetwork(IntGraph(self.ids, g.vertices.union(halves), arcs, tail, head), cap)

    def record(self) -> NormalizeRecord:
        """The splits, and each input tree arc mapped to the arc it became
        or to None where its edge was dropped."""
        arc_map = dict.fromkeys(self.input_arcs)
        for a, origin in self.origin.items():
            arc_map.update(dict.fromkeys(origin, a))
        return NormalizeRecord(self.splits, arc_map)

    def split(self, s: int) -> bool:
        """C1 where s is linear: new simple terminals s1 at t1 and s2 at t2
        (length zero from t2 to t1) take its roles, arriving along a new
        arc s -> s1 and departing along s2 -> s (see split_linear_terminal)."""
        ends = _linear_ends(self.subs[s], self.adj, self.length)
        if ends is None:
            return False
        s1, s2 = self.ids.new_vertex(), self.ids.new_vertex()
        a_in, a_out = self.ids.new_arc(), self.ids.new_arc()
        self.splits.append(SplitRecord(s, s2, s1, a_in, a_out))
        del self.subs[s]
        self.subs[s1], self.subs[s2] = {ends[0]}, {ends[1]}
        return True

    def _drop_bare_leaves(self) -> None:
        """C2: drop leaves hosting no simple terminal, one at a time, smallest
        first: a subtree shrunk to one vertex keeps it, so the order decides
        which.  Degrees only fall, and an occupied vertex (one hosting a
        simple terminal) stays occupied, since subtrees only shrink and never
        below one vertex.  So a drop makes at most its neighbour a new leaf,
        the candidates wait in a heap, checked as they come up, and only the
        subtrees holding the victim change."""
        adj, subs = self.adj, self.subs
        occupied = {x for sub in subs.values() if len(sub) == 1 for x in sub}
        holders: Dict[int, List[set]] = {}
        for sub in subs.values():
            for x in sub:
                holders.setdefault(x, []).append(sub)
        heap = [v for v, ns in adj.items() if len(ns) == 1]
        heapify(heap)
        while heap:
            victim = heappop(heap)
            if victim in occupied or len(adj.get(victim, ())) != 1:
                continue
            (nb,) = adj.pop(victim)
            adj[nb].remove(victim)
            for a in ((victim, nb), (nb, victim)):
                del self.length[a], self.origin[a]
            for sub in holders.pop(victim, ()):
                sub.discard(victim)
                if len(sub) == 1:
                    occupied.update(sub)
            if len(adj[nb]) == 1:
                heappush(heap, nb)

    def _move_simple_terminals(self) -> None:
        """C3: move simple terminals off inner vertices to zero-length pendants."""
        at: Dict[int, List[int]] = {}  # the simple terminals at each tree vertex, in terminal order
        for t, sub in self.subs.items():
            if len(sub) == 1:
                at.setdefault(next(iter(sub)), []).append(t)
        for v in sorted(at):
            if len(self.adj[v]) >= 2:
                v2 = self._new_neighbour(v)
                for t in at[v]:
                    self.subs[t] = {v2}

    def _bound_degrees(self) -> None:
        """C4: split vertices of degree four or more, two neighbours staying."""
        adj = self.adj
        queue = [v for v in sorted(adj) if len(adj[v]) >= 4]
        for v in queue:  # a split changes no other degree, and its new vertex numbers last
            moved = sorted(adj[v])[2:]
            v2 = self._new_neighbour(v)
            for w in moved:
                adj[v].remove(w)
                adj[w].remove(v)
                adj[w].add(v2)
                adj[v2].add(w)
                self._join([(v, w)], (v2, w))
                self._join([(w, v)], (w, v2))
            for sub in self.subs.values():
                if v in sub and not sub.isdisjoint(moved):
                    sub.add(v2)
            if len(adj[v2]) >= 4:
                queue.append(v2)

    def _merge_chains(self) -> None:
        """C5: merge chains at degree-2 vertices with no subtree boundary."""
        adj = self.adj
        for v in sorted(adj):  # a merge changes no other vertex's degree or boundary status
            if len(adj[v]) != 2:
                continue
            u, w = sorted(adj[v])
            # mergeable iff v is never a boundary vertex of a subtree
            if any(v in sub and not (u in sub and w in sub) for sub in self.subs.values()):
                continue
            del adj[v]
            adj[u].remove(v)
            adj[u].add(w)
            adj[w].remove(v)
            adj[w].add(u)
            self._join([(u, v), (v, w)], (u, w))
            self._join([(w, v), (v, u)], (w, u))
            for sub in self.subs.values():
                sub.discard(v)

    def _new_neighbour(self, v: int) -> int:
        """A new tree vertex hanging off v by an edge of length zero."""
        v2 = self.tree_ids.new_vertex()
        self.home[v2] = self.home.get(v, v)
        self.adj[v].add(v2)
        self.adj[v2] = {v}
        for a in ((v, v2), (v2, v)):
            self.length[a], self.origin[a] = Fraction(0), []
        return v2

    def _join(self, arcs: List[Tuple[int, int]], a: Tuple[int, int]) -> None:
        """Replace the arcs of a directed path by the arc a between its
        ends, with their total length and all their origins.  The longest
        origin list takes in the others, in no order that anything reads,
        so a chain that C5 merges one vertex at a time moves each origin
        O(log n) times, not once per merge."""
        self.length[a] = sum(self.length.pop(b) for b in arcs)
        lists = sorted((self.origin.pop(b) for b in arcs), key=len)
        merged = lists.pop()
        for rest in lists:
            merged += rest
        self.origin[a] = merged


def _in_ids(red: Reduction):
    """The reduced instance and its record, back in ids."""
    net, record = red.network(), red.record()
    g = net.graph
    vid, aid, tid = g.ids.vertex_ids, g.ids.arc_ids, red.tree_ids.vertex_ids
    out_net = Network(Digraph.build([vid[v] for v in g.vertices],
                                    [(aid[a], vid[t], vid[h]) for a, t, h in zip(g.arcs, g.tail, g.head)]),
                      tuple(vid[t] for t in red.subs), {aid[a]: c for a, c in zip(g.arcs, net.cap)})
    out_real = RealizationTree(frozenset(tid[x] for x in red.adj),
                               {(tid[u], tid[v]): ell for (u, v), ell in red.length.items()},
                               {vid[t]: frozenset(tid[x] for x in sub) for t, sub in red.subs.items()})

    def arc(a):
        return None if a is None else (tid[a[0]], tid[a[1]])

    splits = [SplitRecord(vid[r.terminal], vid[r.source_half], vid[r.target_half], aid[r.in_arc], aid[r.out_arc])
              for r in record.splits]
    return out_net, out_real, NormalizeRecord(splits, {arc(a): arc(m) for a, m in record.arc_map.items()})


def split_linear_terminal(net: Network, real: RealizationTree, s):
    """Replace a linear terminal by two simple ones at its path ends.

    New vertices s1 and s2 hang off s with arcs (s, s1) of capacity
    c(in(s)) and (s2, s) of capacity c(out(s)); afterwards s is an inner
    Eulerian vertex.  Distances are preserved: mu(x, s1) equals the old
    mu(x, s) and mu(s2, x) equals the old mu(s, x).  The new vertices and
    arcs have ids that equal no input id.  An s that is no terminal, or
    one that is not linear, is an InputError, as is a network terminal
    without a subtree.
    """
    _require_subtrees(net, real)
    red = Reduction(*intern_instance(net, real))
    num = red.ids.number.get(s)
    if num not in red.subs:
        raise InputError(f"unknown terminal {s!r}", code="dangling-reference")
    if not red.split(num):
        raise InputError(f"terminal {s!r} is not linear", code="invalid-input")
    new_net, new_real, rec = _in_ids(red)
    return new_net, new_real, rec.splits[0]


def normalize(net: Network, real: RealizationTree):
    """Apply the five reductions in the fixed order of Reduction.run.

    Afterwards: no linear terminals, every leaf hosts a simple terminal,
    no simple terminal at an inner vertex, inner degrees at most three,
    and no mergeable degree-two chains.  Returns the reduced instance and
    a NormalizeRecord mapping original tree arcs to surviving ones.  The
    reductions run on numbers (Reduction); every vertex, arc and tree
    vertex they make has an id that equals no input id.
    """
    issue = validate_instance(net, real)
    if issue is not None:
        raise InputError(f"instance invalid at {issue.vertex!r}: {issue.reason}", code="not-eulerian")
    red = Reduction(*intern_instance(net, real))
    red.run()
    return _in_ids(red)
