"""Exact solver for maximum tree-distance-weighted integer multiflows.

The algorithm normalizes the realization, then recurses.  Each level
first returns every positive arc between two simple terminals as its own
one-arc path (_solve_rec).  Then, while the tree has an edge with two
non-leaf endpoints, it splits the instance at a minimum cut between the
two terminal groups, solves both contractions, and glues the results.
Otherwise the tree is a single edge or a small star, handled by direct
flow constructions.  Every level returns its flow as weighted (source,
target, arcs, weight) tuples of numbers, glued on the cut's boundary
arcs, and a tree position for each of its network vertices, as the sets
of vertices it places at each tree vertex.  The cut of a tree arc is the
set of vertices placed on its tail side: each level's cuts are saturated
and separate its pair sets, and they certify optimality (certify.py).

solve and free_imf validate their input and intern it once (indexed.py);
the tree keeps its numbering, in id order, and its rooted index
(realization.TreeIndex).  Normalization (realization.Reduction), the
recursion, which contracts by relabelling, and the undo of the
normalization then run on numbers and build no Network, Digraph,
RealizationTree or TerminalPath; paths and positions return to ids once,
at the end.  Their networks are arcs and capacities only: every level reads
its terminals, and the groups a tree arc separates (pi_set), from its
tree's subtree map.  Ties break by number throughout: vertices by vertex number (input
vertices are numbered in id order), arcs by arc number (arc order), and
each vertex or arc made takes the next.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .certify import Certificate, mu_value
from .errors import InputError, ContractViolation
from .graphs import Cut, Network, unbalanced
from .flows import lex_max_flow  # noqa: F401 - bench/pipeline.py LAYERS wraps solver.lex_max_flow
from .indexed import (IdTable, IntGraph, IntNetwork, Path, boundary, contract, decompose, intern,
                      max_flow, min_cut_source_side, sparse, split_off)
from .multiflow import Multiflow
from .realization import (
    IntTree,
    RealizationTree,
    Reduction,
    SplitRecord,
    TreeIndex,
    choose_balanced_edge,
    intern_instance,
    normalize,  # noqa: F401 - bench/pipeline.py LAYERS wraps solver.normalize
    pi_set,
    validate_instance,
)

# tree vertex number -> the sets of network vertex numbers placed there
Placement = Dict[int, List[frozenset]]


@dataclass
class SolveStats:
    maxflow_calls: int = 0
    recursion_depth: int = 0
    wall_ms: float = 0.0


@dataclass(frozen=True)
class SolveOutput:
    multiflow: Multiflow
    certificate: Certificate
    value: Fraction
    stats: SolveStats


def _external(ids: IdTable, tree_ids: IdTable, paths: List[Path], positions: List[int]):
    """Paths and positions of a solve, in ids: the positions of the input
    vertices, numbered 0 to n - 1, in vertex id order."""
    vertex_ids, tree_vertex_ids = ids.vertex_ids, tree_ids.vertex_ids
    return ([ids.path_ids(p) for p in paths],
            dict(zip(vertex_ids, map(tree_vertex_ids.__getitem__, positions))))


# -- small helpers ---------------------------------------------------------


def _add_arcfunc(target: Dict[int, int], src: Dict[int, int]) -> None:
    for a, w in src.items():
        if w:
            target[a] = target.get(a, 0) + w


def _numbered(g: IntGraph, paths: List[Path]) -> List[Path]:
    """Peeled paths on g with arc numbers in place of arc positions."""
    arcs = g.arcs
    return [(s, t, tuple([arcs[k] for k in positions]), w) for s, t, positions, w in paths]


def _join_on_arc(left: List[Path], right: List[Path]) -> List[Path]:
    """Concatenate weighted paths: each left path ends with the arc the
    matching right path starts with; weights are split greedily and must
    all be used.  Glues regions to the core in _free_imf_paths and the
    two partition children in aggregate."""
    queues: Dict[int, deque] = {}
    for p in right:
        queues.setdefault(p[2][0], deque()).append([p, p[3]])
    out: List[Path] = []
    for source, _target, arcs, need in left:
        q = queues.get(arcs[-1])
        while need > 0:
            if not q:
                raise ContractViolation("boundary stitching ran out of partner paths")
            rp, avail = q[0]
            take = min(need, avail)
            out.append((source, rp[1], arcs + rp[2][1:], take))
            need -= take
            q[0][1] -= take
            if q[0][1] == 0:
                q.popleft()
    for q in queues.values():
        if any(item[1] for item in q):
            raise ContractViolation("boundary stitching left unmatched partner paths")
    return out


def _cut(net: IntNetwork, sources: Iterable[int], sinks: Iterable[int], stats: SolveStats, start=None):
    """A counted max flow (from start, if given) and the source side of
    its inclusion-minimal minimum cut: (side, flow)."""
    stats.maxflow_calls += 1
    f, _value = max_flow(net, sources, sinks, start=start)
    return min_cut_source_side(net, f, sources, sinks), f


# -- free multiflow (unit weights) -----------------------------------------


class _AugmentationStall(ContractViolation):
    """The walk search found no augmentation; the slow exact path takes over."""


class _FreeCore:
    """Maximum free multiflow on a network whose per-terminal trivial cuts
    are minimum in both directions, so every terminal-incident capacity
    unit must be carried by some path between distinct terminals.

    Flow is grown per source terminal and repaired by augmenting walks
    that may re-source existing units: traversing an arc backwards hands
    the cancelled unit's remainder to the walk and re-routes the donor.
    Each augmentation applies one plan from the lacking terminal.  A
    stale width-one plan ends the run, and the caller starts the core
    over in the next rotation of its terminal order; a search that runs
    dry stalls, and the caller falls back to capacity splitting.
    Arcs are arc positions of the core network; the flow maps each pair
    of terminal indices (i, j) to the arc function it carries, positive entries only.
    """

    def __init__(self, net: IntNetwork, terminals: Sequence[int], stats: SolveStats):
        self.graph = net.graph
        self.terms = list(terminals)
        self.index = {t: i for i, t in enumerate(self.terms)}
        self.stats = stats
        self.cap = net.cap
        self.flow: Dict[Tuple[int, int], Dict[int, int]] = {}
        self.used = [0] * len(net.cap)
        self.sigma = [sum(self.cap[e >> 1] for e in self.graph.adj[t] if not e & 1) for t in self.terms]
        self.out_total = [0] * len(self.terms)

    def run(self) -> Optional[Dict[Tuple[int, int], Dict[int, int]]]:
        """The core flow; None when a width-one plan went stale and left the
        flow half re-routed; _AugmentationStall when a search runs dry or
        past a budget free of capacities: at most n·k augmentations on n
        vertices and k terminals, each one walk search labelling at most
        2·n·k states.  Over at most k orders, and in splitting after them,
        the work still does not depend on capacities."""
        self._bulk()
        guard = len(self.graph.vertices) * len(self.terms)
        while True:
            lacking = next((i for i in range(len(self.terms)) if self.out_total[i] < self.sigma[i]), None)
            if lacking is None:
                return self.flow
            guard -= 1
            if guard < 0:
                raise _AugmentationStall("free multiflow augmentation did not converge")
            walk = self._find_walk(lacking)
            if walk is None:
                raise _AugmentationStall("free multiflow augmentation stalled")
            if not self._apply_walk(lacking, walk, self._walk_width(walk)):
                return None

    # bulk phase: one truncated max flow per terminal on leftover capacity
    def _bulk(self) -> None:
        g, used = self.graph, self.used
        # leftover capacity cap - used, unmasked: no rising arc enters a source and
        # a path ends at the first sink, so arcs into t and out of the others carry 0
        left = list(self.cap)
        for i, t in enumerate(self.terms):
            others = [u for u in self.terms if u != t]
            self.stats.maxflow_calls += 1
            f, value = max_flow(IntNetwork(g, left), [t], others)
            if not value:
                continue
            for _s, target, positions, w in decompose(g, sparse(f), [t], others):
                comp = self.flow.setdefault((i, self.index[target]), {})
                for a in positions:
                    comp[a] = comp.get(a, 0) + w
                    used[a] += w
                    left[a] -= w
                self.out_total[i] += w

    # augmenting walk search over states (vertex, carried commodity)
    def _find_walk(self, kappa: int):
        """Plan a walk completing one unit for commodity kappa, from its
        terminal.

        The search runs over states (vertex, carried commodity) on two
        relations, each edge a state pair with its moves: _succ lists
        the edges out of a state and _pred, its exact converse, the
        edges into one.  Moves: forward along spare capacity; reverse
        along a carried unit (re-sourcing it), also as one edge together
        with re-adding the same arc when the donor's home is the arc's
        tail; displacing a full arrival arc into a terminal.  A walk
        ends with a spare-capacity arrival at a terminal other than the
        one carried; the goals (_goals) are the states one such arrival
        away, read from the arcs into the terminals.

        A forward search from the start and a backward search from every
        goal each grow by one whole layer at a time, the smaller
        frontier first, and stop at the first state one side labels that
        the other has labelled.  With every earlier layer complete and
        no state labelled by both, a shortest walk has length at least
        the two depths plus one, so every state met in the layer lies on
        a shortest walk, with the same forward plus backward distance;
        the first one met is taken.  The walk is the forward moves up to
        it, then the backward moves from it to the goal; being shortest,
        it repeats no state.
        """
        seed = (self.terms[kappa], kappa)
        after = {}  # backward labels: state -> (next state, moves to it)
        for state, moves in self._goals():
            after.setdefault(state, (None, moves))
        if not after:
            return None  # no spare arc into a terminal: no walk can end
        before = {seed: (None, ())}  # forward labels: state -> (previous state, moves from it)
        fronts, steps, labels = [[seed], list(after)], [self._succ, self._pred], [before, after]
        meet = seed if seed in after else None
        while meet is None and fronts[0] and fronts[1]:
            side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
            mine, other, layer = labels[side], labels[1 - side], []
            for state in fronts[side]:
                for nxt, moves in steps[side](state):
                    if nxt not in mine:
                        mine[nxt] = (state, moves)
                        layer.append(nxt)
                        if nxt in other:
                            meet = nxt
                            break
                if meet is not None:
                    break
            fronts[side] = layer
        if meet is None:
            return None
        parts, state = [], meet
        while state is not None:
            state, moves = before[state]
            parts.append(moves)
        walk = [mv for moves in reversed(parts) for mv in moves]
        state = meet
        while state is not None:
            state, moves = after[state]
            walk.extend(moves)
        return walk

    def _goals(self):
        """States (v, kap) one spare arrival away from the end of a walk:
        an arc from v into a terminal other than kap's home.  Yields
        (state, moves)."""
        g, used, cap, terms = self.graph, self.used, self.cap, self.terms
        for t in terms:
            for e in g.adj[t]:
                a = e >> 1
                if e & 1 and used[a] < cap[a]:
                    moves = (("fwd", a, None),)
                    for kap, home in enumerate(terms):
                        if home != t:
                            yield (g.tail[a], kap), moves

    def _succ(self, state):
        """Edges of the walk search out of state: (next state, moves)."""
        v, kap = state
        g, used, cap, index = self.graph, self.used, self.cap, self.index
        home = self.terms[kap]
        for e in g.adj[v]:
            if e & 1:
                continue
            a = e >> 1
            h = g.head[a]
            if used[a] < cap[a]:  # forward; an arrival at a terminal is a goal's move
                if h not in index:
                    yield (h, kap), (("fwd", a, None),)
            elif h in index and h != home:
                # displace a unit arriving on this full arc
                for donor in self._donors_for(a):
                    yield (v, donor[0]), (("disp", a, donor),)
        if v in index:
            return  # departures of other terminals stay untouched
        for e in g.adj[v]:  # reverse, re-sourcing a unit
            a = e >> 1
            if not e & 1 or used[a] <= 0:
                continue
            t = g.tail[a]
            for donor in self._donors_for(a):
                k, l = donor
                if l == kap:
                    continue  # splicing would close a path onto its source
                rev = ("rev", a, donor)
                yield (t, k), (rev,)
                if t == self.terms[k]:
                    # the same arc may be re-added at once (net zero)
                    yield (v, k), (rev, ("fwd", a, None))

    def _pred(self, state):
        """Edges of the walk search into state, the converse of _succ:
        (previous state, moves)."""
        w, lam = state
        g, used, cap, index, terms = self.graph, self.used, self.cap, self.index, self.terms
        for e in g.adj[w]:
            a = e >> 1
            if e & 1:  # a into w: a forward move, or a reversal re-added at once
                if w in index:
                    continue
                t = g.tail[a]
                if used[a] < cap[a]:
                    yield (t, lam), (("fwd", a, None),)
                if used[a] > 0 and t == terms[lam]:
                    for donor in self._donors_for(a):
                        if donor[0] == lam:
                            moves = (("rev", a, donor), ("fwd", a, None))
                            for kap in range(len(terms)):
                                if kap != donor[1]:
                                    yield (w, kap), moves
                continue
            h = g.head[a]  # a out of w
            if h in index:
                if used[a] >= cap[a]:  # displacing at w a unit lam carries into h
                    for donor in self._donors_for(a):
                        if donor[0] == lam:
                            for kap, home in enumerate(terms):
                                if home != h:
                                    yield (w, kap), (("disp", a, donor),)
            elif used[a] > 0:  # reversing at h a unit lam carries from w
                for donor in self._donors_for(a):
                    if donor[0] == lam:
                        for kap in range(len(terms)):
                            if kap != donor[1]:
                                yield (h, kap), (("rev", a, donor),)

    def _donors_for(self, a: int):
        out = [kl for kl, comp in self.flow.items() if comp.get(a, 0) > 0]
        out.sort()
        return out

    def _walk_width(self, moves) -> int:
        """Largest unit count the whole plan supports in one pass.

        Bundling is only sound when no arc and no donor appears twice,
        since earlier splices may shuffle exactly the flow a later move
        counts on; repetitive plans run at width one.  The one benign
        repetition is a reversal immediately re-added on the same arc,
        which is net zero and bounded by the donor flow alone.
        """
        arcs_seen = set()
        donors_seen = set()
        width = None
        idx = 0
        while idx < len(moves):
            kind, a, donor_key = moves[idx]
            composite = (kind == "rev" and idx + 1 < len(moves)
                         and moves[idx + 1] == ("fwd", a, None))
            if a in arcs_seen or (donor_key is not None and donor_key in donors_seen):
                return 1
            arcs_seen.add(a)
            if kind == "fwd":
                room = self.cap[a] - self.used[a]
            else:
                donors_seen.add(donor_key)
                room = self.flow.get(donor_key, {}).get(a, 0)
            width = room if width is None else min(width, room)
            idx += 2 if composite else 1
        return max(1, width if width is not None else 1)

    def _apply_walk(self, kappa: int, moves, width: int) -> bool:
        """Execute a plan from kappa's terminal, width units at a time.

        Returns True after its completing arrival, or False when a move's
        precondition no longer holds: the plan went stale and left the
        flow half re-routed.  Only width-one plans can go stale; bundled
        plans are pre-validated by _walk_width, and a stale move there
        means a broken invariant.
        """
        g = self.graph
        prefix: Dict[int, int] = {}
        for kind, a, donor_key in moves:
            if kind == "fwd":
                stale = self.used[a] + width > self.cap[a]
            else:
                k, l = donor_key
                donor = self.flow.get(donor_key, {})
                stale = l == kappa or donor.get(a, 0) < width
            if stale:
                if width > 1:
                    raise ContractViolation("bundled walk went stale")
                return False
            if kind == "fwd":
                prefix[a] = prefix.get(a, 0) + width
                self.used[a] += width
                j = self.index.get(g.head[a])
                if j is not None:  # completing arrival
                    if j == kappa:
                        raise ContractViolation("augmenting walk arrived at its own source")
                    _add_arcfunc(self.flow.setdefault((kappa, j), {}), prefix)
                    self.out_total[kappa] += width
                    return True
                continue
            donor[a] -= width
            if not donor[a]:
                del donor[a]
            if kind == "rev":
                self.used[a] -= width
            else:  # displacing a full arrival arc: the walk takes it over
                prefix[a] = prefix.get(a, 0) + width
            # the carried half joins the donor's abandoned tail, which is
            # empty after a displacement: its arc ends at l's terminal
            target = self.flow.setdefault((kappa, l), {})
            _add_arcfunc(target, prefix)
            _add_arcfunc(target, _extract(donor, g, g.head[a], self.terms[l], width))
            self.out_total[kappa] += width
            # pick up the donor's head half and keep walking for it
            prefix = _extract(donor, g, self.terms[k], g.tail[a], width)
            self.out_total[k] -= width
            kappa = k
        # a plan ends in a forward arrival at a terminal, which returns above
        raise ContractViolation("augmenting walk ended away from a terminal")


def _core_by_splitting(net: IntNetwork, terms: Sequence[int], stats: SolveStats):
    """Exact core solver: split capacity off pairs at inner vertices.

    Splitting g units off a pair (u->v, v->w) at an inner vertex v takes g
    from both arcs and adds a bypass u->w of g units.  A split is
    admissible when every terminal t keeps its targets: the max flow from
    t to the other terminals stays d+({t}) and the one into t stays
    d-({t}).  The core's trivial cuts are minimum, so the targets are the
    smallest d+(X) and d-(X) over the sets X that hold t and no other
    terminal.  Vertices are emptied in number order; at each, the first
    pair (in arcs before out arcs, each in arc order) with a positive
    admissible amount gets all of it.  A split makes no arc at an emptied
    vertex, so one pass empties them all; then every arc joins two
    terminals and stands for its walk of core arcs.

    The split lowers d+(X) and d-(X) by exactly g when X separates v from
    u and w, and moves no other cut.  Two facts follow.

    Free splits.  Say all of v's in arcs come from u, or all its out arcs
    go to w, and X separates v from both.  Moving v across (X + v or
    X - v) keeps every terminal on its side, and lowers d+ and d- by at
    least c(vw) or c(uv) respectively, using that v is Eulerian.  The moved
    set meets its targets, so X exceeds them by at least
    min(c(uv), c(vw)): every pair at such a vertex is admissible at full
    width, with no max flow, and the vertex stays so until it is empty.

    Exact amount from one trial.  Elsewhere the pair is tried once at
    full width hi = min(c(uv), c(vw)).  For each terminal and direction
    the trial value is min(A, B - hi), where A >= target bounds the sets
    the split leaves alone and B bounds the ones it lowers; the largest
    admissible g is B - target.  A trial value short of its target is B -
    hi, so the amount is hi minus the largest shortfall, and the trial
    stops once the shortfall reaches hi.  This is the amount a binary
    search over g would find.  Two more facts cut the trial to at most
    one max flow per terminal:
    - The flow into t is never needed.  Inner vertices are balanced, so
      every set X has d+(X) - d-(X) = sum of exc(x) over x in X, where
      exc(x) = d+({x}) - d-({x}); for X holding t and no other terminal
      that is exc(t), and d-(X) = d+(X) - exc(t).  The trial keeps every
      excess: v loses hi both in and out, and the bypass u->w gives back
      what arcs uv and vw took from u and w (if u = w, u loses hi both
      ways).  The targets obey d-({t}) = d+({t}) - exc(t) too, so the
      shortfall into t equals the shortfall out of t.
    - A terminal no lowered set can hold needs no flow.  If t is u or w
      and the other endpoint is another terminal, every set separating v
      from {u, w} holds that other terminal or misses t, so every set
      holding t and no other terminal keeps its value: the shortfall is
      0.

    Arcs are keyed by their position in the core, bypasses by the next
    keys, so key order is arc order: core arcs in the core's order, then
    each bypass in the order it was made.  The fallback works on one
    private copy of the core network, whose arrays and adjacency lists
    grow by each bypass in key order, so a split reads only the arcs at
    its vertex; the core's own lists, some shared with the networks it
    was contracted from, stay as they are.  A trial is the split at full
    width on that copy, its max flows, and the split undone: both
    capacities restored and the bypass, the last key, popped again.  Each
    bypass records its walk of core arcs when it is made.
    """
    g = net.graph
    tset = set(terms)
    tail, head, cap = list(g.tail), list(g.head), list(net.cap)
    adj = [list(x) for x in g.adj]
    core = IntNetwork(IntGraph(g.ids, g.vertices, g.arcs, tail, head, adj, g.live), cap)
    walk: List[Dict[int, int]] = [{i: 1} for i in range(len(cap))]  # the core arcs behind each key
    out_target = {t: sum(cap[e >> 1] for e in adj[t] if not e & 1) for t in terms}

    def split(a_id: int, b_id: int, amount: int) -> None:
        """Take amount off the pair and, unless it closes a loop, add its
        bypass as the next key."""
        cap[a_id] -= amount
        cap[b_id] -= amount
        u, w = tail[a_id], head[b_id]
        if u != w:
            k = len(cap)
            tail.append(u)
            head.append(w)
            cap.append(amount)
            adj[u].append(2 * k)
            adj[w].append(2 * k + 1)

    def admissible(a_id: int, b_id: int) -> int:
        """The largest amount the pair can split, from one trial at full width."""
        hi = min(cap[a_id], cap[b_id])
        split(a_id, b_id, hi)
        u, w = tail[a_id], head[b_id]
        # u and w both terminals: no set holding only one of them is lowered
        untouched = {u, w} if u != w and u in tset and w in tset else ()
        short = 0
        for t in terms:
            if t in untouched:
                continue
            stats.maxflow_calls += 1
            short = max(short, out_target[t] - max_flow(core, [t], [x for x in terms if x != t])[1])
            if short >= hi:
                break
        cap[a_id] += hi
        cap[b_id] += hi
        if u != w:
            for lst in (tail, head, cap, adj[u], adj[w]):
                lst.pop()
        return max(hi - short, 0)

    for v in sorted(g.vertices):
        if v in tset:
            continue
        while True:
            ins = [e >> 1 for e in adj[v] if e & 1 and cap[e >> 1] > 0]
            outs = [e >> 1 for e in adj[v] if not e & 1 and cap[e >> 1] > 0]
            if not ins and not outs:
                break
            if not ins or not outs:
                raise ContractViolation("unbalanced inner vertex during splitting")
            if len({tail[i] for i in ins}) == 1 or len({head[i] for i in outs}) == 1:
                # a free split: the first pair is admissible at full width
                pair = (ins[0], outs[0], min(cap[ins[0]], cap[outs[0]]))
            else:
                pair = next(((a_id, b_id, amount) for a_id in ins for b_id in outs
                             if (amount := admissible(a_id, b_id))), None)
                if pair is None:
                    raise ContractViolation("no admissible capacity split at an inner vertex")
            a_id, b_id, amount = pair
            split(a_id, b_id, amount)
            if tail[a_id] != head[b_id]:  # a bypass: it walks both arcs
                walk.append(dict(walk[a_id]))
                _add_arcfunc(walk[-1], walk[b_id])

    index = {t: i for i, t in enumerate(terms)}
    flow: Dict[Tuple[int, int], Dict[int, int]] = {}
    for u, w, c, arcs in zip(tail, head, cap, walk):
        if c <= 0:
            continue
        if u not in tset or w not in tset or u == w:
            raise ContractViolation("splitting left capacity off the terminals")
        comp = flow.setdefault((index[u], index[w]), {})
        for orig, mult in arcs.items():
            comp[orig] = comp.get(orig, 0) + mult * c
    return flow


def _extract(f: Dict[int, int], graph: IntGraph, src: int, dst: int, amount: int) -> Dict[int, int]:
    """Remove `amount` units of src->dst path mass from f and return it."""
    taken: Dict[int, int] = {}
    if src == dst or amount <= 0:
        return taken
    head, tail, adj = graph.head, graph.tail, graph.adj
    left = amount
    while left > 0:
        prev = {src: None}
        q = deque([src])
        found = src == dst
        while q and not found:
            u = q.popleft()
            for e in adj[u]:
                a = e >> 1
                if not e & 1 and f.get(a, 0) > 0 and head[a] not in prev:
                    prev[head[a]] = a
                    if head[a] == dst:
                        found = True
                        break
                    q.append(head[a])
        if dst not in prev:
            raise ContractViolation("component surgery found no connecting path")
        path = []
        v = dst
        while prev[v] is not None:
            path.append(prev[v])
            v = tail[prev[v]]
        theta = min(min(f[a] for a in path), left)
        for a in path:
            f[a] -= theta
            if not f[a]:
                del f[a]
            taken[a] = taken.get(a, 0) + theta
        left -= theta
    return taken


def _minimal_terminal_cuts(net: IntNetwork, groups: Sequence[Sequence[int]],
                           stats: SolveStats) -> List[Tuple[frozenset, List[int]]]:
    """Each terminal group's inclusion-minimal minimum cut side against the
    other groups, disjoint for inner-Eulerian nets, with the max flow from
    the whole group that found it."""
    cuts = [_cut(net, group, [u for j, other in enumerate(groups) if j != i for u in other], stats)
            for i, group in enumerate(groups)]
    for i, (a, _f) in enumerate(cuts):
        for b, _g in cuts[i + 1:]:
            if a & b:
                raise ContractViolation("minimal terminal cuts overlap")
    return cuts


def free_imf(net: Network, stats: Optional[SolveStats] = None):
    """Integer maximum free multiflow with saturated per-terminal min cuts.

    Returns (multiflow, cuts) where cuts maps each terminal to the source
    side of its inclusion-minimal minimum cut; the multiflow saturates
    every such cut in both directions and its total value equals the sum
    of the cut capacities.
    """
    if stats is None:
        stats = SolveStats()
    if len(net.terminals) < 2:
        raise InputError("free multiflow needs at least two terminals", code="invalid-input")
    ts = set(net.terminals)
    for v in unbalanced(net):
        if v not in ts:
            raise InputError(f"inner vertex {v!r} is not Eulerian", code="not-eulerian")
    inet = intern(net)
    ids = inet.graph.ids
    groups = [[t] for t in sorted(ids.number[t] for t in net.terminals)]
    paths, sides = _free_imf_paths(inet, groups, _minimal_terminal_cuts(inet, groups, stats), {}, stats)
    return (Multiflow(tuple(map(ids.path_ids, paths))),
            {ids.vertex_ids[t]: Cut(frozenset([ids.vertex_ids[v] for v in side]))
             for (t,), side in zip(groups, sides)})


def _free_imf_paths(net: IntNetwork, groups: Sequence[Sequence[int]],
                    cuts: List[Tuple[frozenset, List[int]]],
                    misplaced: Dict[int, Sequence[int]], stats: SolveStats):
    """Path-form free multiflow, via cut contraction and region expansion.

    groups lists the terminals of the free multiflow, each a group of
    vertices at distance zero from each other, in the core's terminal
    order.  cuts holds every group's minimal cut side and the max flow
    that found it, misplaced maps a group's index to the vertices its
    region must expel (usually none); each region expands from its cut
    flow, continued to what it expels.  The core flow between the
    contracted sides is stitched to each region's flow through its
    boundary, so every path runs between members of two groups; a region's
    flow to and from its expelled vertices is emitted as it is.  Returns
    the paths and every group's side, which shrinks only where it expels.
    """
    ids = net.graph.ids

    # contract every cut side; the remaining network needs all terminal
    # capacity saturated, which the augmentation core guarantees
    core_terms = [ids.new_vertex() for _group in groups]
    core_net = contract(net, {z: side for z, (side, _f) in zip(core_terms, cuts)})

    # a stale plan leaves the flow half re-routed: start over in the next order
    k, core_flow = len(core_terms), None
    for r in range(k):
        core = _FreeCore(core_net, core_terms[r:] + core_terms[:r], stats)
        try:
            flow = core.run()
        except _AugmentationStall:
            break
        if flow is not None:
            core_flow = {((i + r) % k, (j + r) % k): comp for (i, j), comp in flow.items()}
            break
    if core_flow is None:
        core_flow = _core_by_splitting(core_net, core_terms, stats)
    core_g = core_net.graph
    core_paths: List[Path] = []
    for (i, j) in sorted(core_flow):
        comp = core_flow[(i, j)]
        if any(comp.values()):
            core_paths += _numbered(core_g, decompose(core_g, comp, [core_terms[i]], [core_terms[j]]))

    # expand every side on net: a path ending or starting outside it crosses its boundary
    lead_in: List[Path] = []   # terminal -> cut boundary
    lead_out: List[Path] = []  # cut boundary -> terminal
    expelled: List[Path] = []  # terminal <-> misplaced vertex
    sides: List[frozenset] = []
    for i, (group, (side, f)) in enumerate(zip(groups, cuts)):
        new_side, forward, backward = repair_three_leaves(net, group, side, f, misplaced.get(i, ()), stats)
        sides.append(new_side)
        for p in forward:
            (expelled if p[1] in side else lead_in).append(p)
        for p in backward:
            (expelled if p[0] in side else lead_out).append(p)

    full = _join_on_arc(_join_on_arc(lead_in, core_paths), lead_out)
    if any(s == t for s, t, _arcs, _w in full):
        raise ContractViolation("free multiflow produced a closed path")
    # a core terminal's out-capacity is the capacity of its cut
    if sum(w for _s, _t, _arcs, w in full) != sum(core.sigma):
        raise ContractViolation("free multiflow value does not meet the cut bound")
    return full + expelled, sides


# -- base cases -------------------------------------------------------------


def base_two_vertices(net: IntNetwork, tree: IntTree, stats: SolveStats):
    """Single tree edge: one max flow forward, its capacity complement back.
    The cut side is placed at the edge's first end, the rest at the other.

    Terminals realized by the whole edge have distance zero to everything
    and act as balanced through-vertices; no path starts or ends at one.
    """
    v1, v2 = sorted(tree.vertices)
    pi = pi_set(tree, tree.subtrees, (v1, v2))
    if pi.empty:
        raise ContractViolation("two-vertex base without terminals at both ends")
    src, dst = pi.tail_side_terminals, pi.head_side_terminals
    x, f = _cut(net, src, dst, stats)
    g = net.graph
    back = sparse([c - w for c, w in zip(net.cap, f)])
    paths = decompose(g, sparse(f), src, dst) + decompose(g, back, src | dst, src | dst)
    return _numbered(g, paths), {v1: [x], v2: [g.vertices - x]}


def repair_three_leaves(net: IntNetwork, group: Sequence[int], side: frozenset, f: List[int],
                        q_terms: Sequence[int], stats: SolveStats):
    """Expand one terminal group's cut region on net, expelling the misplaced q_terms.

    f, the max flow out of the group that found the side, fills every arc
    leaving it and no arc entering it or a member: its part on arcs out of
    side vertices runs from the group to the arcs leaving the side, and the
    capacity complement on arcs into side vertices runs from the arcs
    entering it back to the group.  With q_terms, one max flow continues
    that part toward q_terms too; no augmenting path leaves the side,
    whose leaving arcs are full and entering arcs empty, and the side
    shrinks to the continued flow's minimal cut, which leaves q_terms
    outside.  Returns (side, forward, backward), the paths out of and
    into the group.
    """
    g = net.graph
    tail, adj, cap = g.tail, g.adj, net.cap
    leaving, entering = boundary(g, side)
    ends = [*{g.head[k] for k in leaving}, *q_terms]
    new_side = side
    if q_terms:  # f counts only on arcs out of side vertices
        new_side, f = _cut(net, group, ends, stats, start=[w if t in side else 0 for t, w in zip(tail, f)])
    for k in leaving:
        if f[k] != cap[k]:
            raise ContractViolation("region flow does not saturate the cut boundary")
    # the region's two flows, read from the arcs at side vertices: f on those out
    # of them, its capacity complement on those into them (f counts only on arcs
    # from the side).  Members have distance zero: the complement drops paths from one
    # member to another; an arc between two members left the network in _solve_rec
    members = set(group)
    out_flow: Dict[int, int] = {}
    in_flow: Dict[int, int] = {}
    for v in side:
        for e in adj[v]:
            k = e >> 1
            if not e & 1:
                if f[k]:
                    out_flow[k] = f[k]
            else:
                w = cap[k] - f[k] if tail[k] in side else cap[k]
                if w:
                    in_flow[k] = w
    forward = decompose(g, out_flow, group, ends)
    backward = [p for p in decompose(g, in_flow, [*{tail[k] for k in entering}, *q_terms, *group], group)
                if p[0] not in members]
    return new_side, _numbered(g, forward), _numbered(g, backward)


def base_three_leaves(net: IntNetwork, tree: IntTree, stats: SolveStats):
    """Star tree (two or three leaves): a free multiflow on the leaf terminals.

    The simple terminals on one leaf have distance zero to each other, so
    they form one terminal group of the free multiflow.  A complex
    terminal that lies in a leaf's minimal cut but whose subtree misses
    that leaf is misplaced there: the free multiflow continues that leaf's
    cut flow until it expels it, so its cut already separates correctly;
    the other regions run no max flow.  Each leaf's side is placed at the
    leaf and every other vertex at the center; the sides are disjoint, as
    _minimal_terminal_cuts checks and a repair only shrinks a side.
    """
    adj = tree.index.adj
    leaves = [v for v in sorted(adj) if len(adj[v]) == 1]
    if len(leaves) < 2 or len(leaves) + 1 != len(adj):
        raise ContractViolation("star base called on a non-star tree")
    (center,) = set(adj).difference(leaves)

    groups: List[List[int]] = [[] for _leaf in leaves]
    complexes: List[int] = []
    for t, sub in tree.subtrees.items():
        hit = [i for i, v in enumerate(leaves) if v in sub]
        if len(sub) == 1:
            if sub == {center}:
                raise ContractViolation("simple terminal at the star center")
            groups[hit[0]].append(t)
        elif len(hit) < len(leaves):
            complexes.append(t)
        # subtrees touching every leaf have distance zero to everything
    if not all(groups):
        raise ContractViolation("star leaf without a simple terminal")
    # the core's terminal order: lone terminals by number, then larger
    # groups in leaf order; the order decides which walks the core finds
    order = sorted(range(len(leaves)), key=lambda i: (0, groups[i][0]) if len(groups[i]) == 1 else (1, i))
    leaves = [leaves[i] for i in order]
    groups = [groups[i] for i in order]

    cuts = _minimal_terminal_cuts(net, groups, stats)
    # complex terminals trapped in a leaf's cut whose subtree misses that leaf
    misplaced = {}
    for i, leaf in enumerate(leaves):
        q = [t for t in complexes if t in cuts[i][0] and leaf not in tree.subtrees[t]]
        if q:
            misplaced[i] = sorted(q)
    paths, sides = _free_imf_paths(net, groups, cuts, misplaced, stats)
    placed: Placement = {leaf: [side] for leaf, side in zip(leaves, sides)}
    placed[center] = [net.graph.vertices.difference(*sides)]
    return paths, placed


# -- partition step ----------------------------------------------------------


def aggregate(net: IntNetwork, paths1: List[Path], paths2: List[Path],
              x1: frozenset, z2: int, z1: int) -> List[Path]:
    """Glue two child solutions across a saturated partition cut.

    Child 1 lives on x1 plus z2 (the rest contracted), child 2 on the
    rest plus z1.  Paths inside one side carry over.  A child-1 path into
    z2 ends with an arc from x1 to the rest that child-2 paths out of z1
    start with, and _join_on_arc joins them on it; backward, child-2
    paths into z1 join child-1 paths out of z2.  The two halves of a
    joined path lie on disjoint sides, so it is simple and crosses every
    lifted child cut as often as its half did.  Each boundary arc must
    carry its capacity.
    """
    g = net.graph
    leaving, entering = boundary(g, x1)
    crossing = {g.arcs[k] for k in leaving} | {g.arcs[k] for k in entering}
    internal, into, out_of = [], {z1: [], z2: []}, {z1: [], z2: []}
    for paths, z in ((paths1, z2), (paths2, z1)):
        for p in paths:
            source, target, arcs, _w = p
            if target == z:
                into[z].append(p)
            elif source == z:
                out_of[z].append(p)
            elif crossing.isdisjoint(arcs):
                internal.append(p)
            else:
                raise ContractViolation("side-internal path touches the partition boundary")

    for z, positions, direction in ((z2, leaving, "forward"), (z1, entering, "backward")):
        load = {g.arcs[k]: 0 for k in positions}
        for _s, _t, arcs, w in into[z]:
            load[arcs[-1]] += w
        if any(load[g.arcs[k]] != net.cap[k] for k in positions):
            raise ContractViolation(f"partition boundary not saturated {direction}")

    return (internal + _join_on_arc(into[z2], out_of[z1])
            + _join_on_arc(into[z1], out_of[z2]))


def partition_step(net: IntNetwork, tree: IntTree, edge, stats: SolveStats, depth: int):
    """Split at a balanced tree edge along a minimum terminal-group cut.

    Each child places its vertices in its tree, which is one side of the
    edge v1v2 plus the edge's far end, its anchor, where its contraction
    vertex sits.  A vertex a child places at its anchor moves to the near
    end: the two ends are adjacent, so they lie on the same side of every
    other edge, and the edge's own cut becomes x1.  Each lifted child cut
    stays as it was, since the contraction vertex of child 1, a simple
    terminal at v2, lies on v2's side of every child-1 cut, and every
    vertex of x2 now lies there too (and the same for child 2).
    """
    v1, v2 = edge
    side1 = tree.component_without_edge(v1, v2)
    side2 = tree.vertices - side1
    pi = pi_set(tree, tree.subtrees, edge)
    if pi.empty:
        raise ContractViolation("partition with an empty terminal group")

    x1, _f = _cut(net, pi.tail_side_terminals, pi.head_side_terminals, stats)
    x2 = net.graph.vertices - x1

    ids = net.graph.ids
    z2 = ids.new_vertex()
    z1 = ids.new_vertex()

    tree1 = _contract_tree(tree, side1, v2, x1, z2)
    tree2 = _contract_tree(tree, side2, v1, x2, z1)

    # each child network lives only while its own recursion runs
    paths1, placed1 = _solve_rec(contract(net, {z2: x2}), tree1, stats, depth + 1)
    paths2, placed2 = _solve_rec(contract(net, {z1: x1}), tree2, stats, depth + 1)

    paths = aggregate(net, paths1, paths2, x1, z2, z1)

    # the children's trees share only the edge's two ends; contraction
    # vertices stay in the sets and are dropped once, at the top
    placed: Placement = {}
    for child, near, anchor in ((placed1, v1, v2), (placed2, v2, v1)):
        moved = child.pop(anchor, [])
        placed.update(child)
        placed[near] = placed.get(near, []) + moved
    return paths, placed


def _contract_tree(tree: IntTree, keep_side: frozenset, anchor: int,
                   kept: frozenset, z: int) -> IntTree:
    """The tree on one side of a partition edge plus its far endpoint
    anchor, which realizes z; its terminals are those in kept, then z."""
    verts = keep_side | {anchor}
    adj = {u: tuple(w for w in tree.index.adj[u] if w in verts) for u in verts}
    subs = {}
    for t, sub in tree.subtrees.items():
        if t in kept:
            rest = sub & keep_side
            subs[t] = rest | {anchor} if sub - keep_side else rest
    subs[z] = frozenset({anchor})
    return IntTree(TreeIndex(adj), subs)


# -- recursion and public entry ---------------------------------------------


def _solve_rec(net: IntNetwork, tree: IntTree, stats: SolveStats, depth: int):
    """Paths and vertex placement of one level.  First every positive arc
    a, of capacity c, from a simple terminal x to a simple terminal y (one
    tree vertex each) leaves the network as its own one-arc path.  This
    is exact: lengths are nonnegative and a tree walk from S to T runs
    along the S-T path, so mu(S, T) <= mu(S, x) + mu(x, y) + mu(y, T) and
    OPT(N) = OPT(N - a) + c * mu(x, y); only the terminals x and y change
    balance, so N - a meets the Eulerian conditions; a tree arc's cut puts
    x and y on the sides of their subtrees, so it crosses a only when it
    separates them, and then the one-arc path fills a: every certificate
    cut of N - a stays valid in N.  Contraction vertices are simple
    terminals, so arcs that jump over a child network leave it here.
    """
    stats.recursion_depth = max(stats.recursion_depth, depth)
    if len(tree.vertices) == 1:
        (v,) = tree.vertices
        return [], {v: [net.graph.vertices]}
    net, direct = split_off(net, {t for t, sub in tree.subtrees.items() if len(sub) == 1})
    edge = choose_balanced_edge(tree)
    if edge is not None:
        paths, placed = partition_step(net, tree, edge, stats, depth)
    elif len(tree.vertices) == 2:
        paths, placed = base_two_vertices(net, tree, stats)
    else:
        paths, placed = base_three_leaves(net, tree, stats)
    return direct + paths, placed


def solve(net: Network, real: RealizationTree) -> SolveOutput:
    """Solve the weighted multiflow problem with an optimality certificate.

    The returned multiflow is integer and feasible; its value equals the
    distance-weighted optimum, witnessed by one saturated separating cut
    per tree arc with a nonempty pair set.
    """
    t0 = time.perf_counter()
    stats = SolveStats()

    issue = validate_instance(net, real)
    if issue is not None:
        raise InputError(f"instance invalid at {issue.vertex!r}: {issue.reason}", code="not-eulerian")
    inet, tree_ids, tree, length = intern_instance(net, real)
    reduction = Reduction(inet, tree_ids, tree, length)
    reduction.run()
    paths, placed = _solve_rec(reduction.network(), reduction.tree(), stats, 0)
    paths, positions = _undo_normalization(tree, reduction.splits, reduction.home, paths, placed,
                                           len(inet.graph.vertices))
    paths, positions = _external(inet.graph.ids, tree_ids, paths, positions)

    flow = Multiflow(tuple(paths))
    value = mu_value(real, flow)
    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return SolveOutput(flow, Certificate(positions=positions, real=real, terminals=net.terminals), value, stats)


def _undo_normalization(tree0: IntTree, splits: List[SplitRecord], home: Dict[int, int],
                        paths: List[Path], placed: Placement, n: int):
    """Map paths and placement of the normalized instance back to the
    input, in numbers: the tree position of each input vertex 0 to n - 1.

    A split terminal s lies between its halves on the arcs out_arc
    (source_half -> s) and in_arc (s -> target_half); paths from or to a
    half lose that arc and end at s instead.

    A vertex placed at a tree vertex that normalization made (a pendant or
    a degree split) goes to the input vertex it came from (home): the two
    lie on the same side of every input edge that survives, and the edges
    of a merged chain share the merged edge's cut.  A split terminal s goes
    to the vertex of its input subtree, a path, nearest its placement.  On
    an edge of that path this keeps its side; off the path, the whole
    subtree, and so both halves' vertices, lie on one side, where s goes.
    That is where the halves' cuts put s.
    """
    src_of = {rec.source_half: rec for rec in splits}
    dst_of = {rec.target_half: rec for rec in splits}
    out_paths: List[Path] = []
    for s, t, arcs, w in paths:
        if s in src_of:
            if arcs[0] != src_of[s].out_arc:
                raise ContractViolation("path from a split half misses its synthetic arc")
            s, arcs = src_of[s].terminal, arcs[1:]
        if t in dst_of:
            if not arcs or arcs[-1] != dst_of[t].in_arc:
                raise ContractViolation("path into a split half misses its synthetic arc")
            t, arcs = dst_of[t].terminal, arcs[:-1]
        if s == t:
            if arcs:
                raise ContractViolation("split round trip left a same-endpoint path")
            continue
        out_paths.append((s, t, arcs, w))

    positions: List[Optional[int]] = [None] * n
    for v, sides in placed.items():
        p = home.get(v, v)
        for side in sides:
            for x in side:
                if x < n:  # made vertices come after the input's
                    positions[x] = p
    if None in positions:
        raise ContractViolation(f"no placement for input vertex {positions.index(None)}")
    index = tree0.index
    for rec in splits:
        s = rec.terminal
        x, top, sub = positions[s], tree0.tops[s], tree0.subtrees[s]
        if index.below(top, x):
            while x not in sub:
                x = index.parent[x]
        else:
            x = top
        positions[s] = x
    return out_paths, positions
