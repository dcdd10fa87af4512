"""Exact solver for maximum tree-distance-weighted integer multiflows.

The algorithm normalizes the realization, then recurses: while the tree
has an edge with two non-leaf endpoints it splits the instance at a
minimum cut between the two terminal groups, solves both contractions,
and glues the results.  Otherwise the tree is a single edge or a small
star, handled by direct flow constructions.  Every level returns its
flow as weighted TerminalPaths, glued on the cut's boundary arcs, and
one saturated separating cut per tree arc; the lifted family certifies
optimality of the final answer.

solve and free_imf validate their input and intern it once (indexed.py):
the recursion runs on vertex and arc numbers, contracts by relabelling,
and builds no Network, Digraph or RealizationTree.  The tree is numbered
too, in id order.  Paths and cuts return to ids once, before
normalization is undone.  Ties break by number throughout: input
vertices are numbered in id order, and each vertex the solver makes
takes the next number.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from .certify import Certificate, mu_value
from .errors import InputError, ContractViolation
from .graphs import Cut, Network, TerminalPath, is_eulerian_at, sort_key
from .indexed import (IdTable, IntGraph, IntNetwork, boundary, contract, decompose, intern,
                      lex_max_flow, max_flow, min_cut_source_side)
from .multiflow import Multiflow
from .realization import (
    NormalizeRecord,
    RealizationTree,
    choose_balanced_edge,
    normalize,
    pi_set,
    validate_instance,  # noqa: F401 - bench/pipeline.py LAYERS wraps solver.validate_instance
)

# tree arc (u, v) of tree vertex numbers -> cut side of vertex numbers
CutMap = Dict[Tuple[int, int], frozenset]


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


@dataclass(frozen=True)
class _Tree:
    """The realization tree inside the recursion.

    Tree vertices are numbers in id order, so sorting numbers sorts ids;
    adj holds each vertex's neighbours in that order.  subtrees maps
    terminal vertex numbers to sets of tree vertex numbers.  Arc lengths
    matter only to the value, which solve computes on the input tree.
    choose_balanced_edge reads this tree as it reads a RealizationTree.
    """

    vertices: FrozenSet[int]
    adj: Dict[int, Tuple[int, ...]]
    subtrees: Dict[int, FrozenSet[int]]

    def adjacency(self) -> Dict[int, Tuple[int, ...]]:
        return self.adj

    def edges(self) -> List[Tuple[int, int]]:
        return [(u, v) for u in sorted(self.adj) for v in self.adj[u] if u < v]

    def component_without_edge(self, u: int, v: int) -> FrozenSet[int]:
        """Vertices on u's side after removing edge uv."""
        seen = {u, v}
        queue = [u]
        for w in queue:  # the list grows while it is walked
            for x in self.adj[w]:
                if x not in seen:
                    seen.add(x)
                    queue.append(x)
        seen.discard(v)
        return frozenset(seen)


def _internal(net: Network, real: RealizationTree):
    """The validated instance as the recursion sees it: the interned
    network, the numbered tree, and the tree vertex ids by number."""
    inet = intern(net)
    ids = inet.graph.ids
    ids.rank_arcs()  # here at the boundary, not at the first peeling inside the recursion
    tree_ids = sorted(real.vertices, key=sort_key)
    tnum = {x: i for i, x in enumerate(tree_ids)}
    adj = real.adjacency()
    tree = _Tree(frozenset(range(len(tree_ids))),
                 {tnum[x]: tuple(tnum[y] for y in adj[x]) for x in tree_ids},
                 {ids.number[t]: frozenset(tnum[x] for x in real.subtrees[t]) for t in net.terminals})
    return inet, tree, tree_ids


def _external(ids: IdTable, tree_ids: List[Hashable], paths: List[TerminalPath], cuts: CutMap):
    """Paths and cuts of the recursion, in ids.

    cuts is emptied on the way, so the two forms of the large cut sides
    are not all held at once.  A frozenset filled one id at a time keeps
    the table it grew into, up to twice the one a copy sizes for its
    contents, so each side is copied from a set.
    """
    vertex_ids = ids.vertex_ids
    id_cuts = {}
    while cuts:
        (u, v), side = cuts.popitem()
        id_cuts[(tree_ids[u], tree_ids[v])] = frozenset(set(map(vertex_ids.__getitem__, side)))
    return [ids.path_ids(p) for p in paths], id_cuts


# -- small helpers ---------------------------------------------------------


def _add_arcfunc(target: Dict[int, int], src: Dict[int, int]) -> None:
    for a, w in src.items():
        if w:
            target[a] = target.get(a, 0) + w


def _join_on_arc(left: List[TerminalPath], right: List[TerminalPath]) -> List[TerminalPath]:
    """Concatenate weighted paths: each left path ends with the arc the
    matching right path starts with; weights are split greedily and must
    all be used.  Glues regions to the core in _free_imf_paths and the
    two partition children in aggregate."""
    queues: Dict[int, deque] = {}
    for p in right:
        queues.setdefault(p.arcs[0], deque()).append([p, p.weight])
    out: List[TerminalPath] = []
    for lp in left:
        need = lp.weight
        q = queues.get(lp.arcs[-1])
        while need > 0:
            if not q:
                raise ContractViolation("boundary stitching ran out of partner paths")
            rp, avail = q[0]
            take = min(need, avail)
            out.append(TerminalPath(lp.source, rp.target, lp.arcs + rp.arcs[1:], take))
            need -= take
            q[0][1] -= take
            if q[0][1] == 0:
                q.popleft()
    for q in queues.values():
        if any(item[1] for item in q):
            raise ContractViolation("boundary stitching left unmatched partner paths")
    return out


def _by_position(net: IntNetwork, f: Dict[int, int]) -> List[int]:
    """A sparse flow on arc positions as one entry per position."""
    dense = [0] * len(net.cap)
    for k, w in f.items():
        dense[k] = w
    return dense


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
    Rare configurations that need a simultaneous rotation of several
    units stall the search; callers fall back to capacity splitting.
    Arcs are arc positions of the core network; the flow maps each pair
    of terminal indices (i, j) to the arc function it carries.
    """

    def __init__(self, net: IntNetwork, terminals: Sequence[int], stats: SolveStats):
        self.graph = net.graph
        self.terms = list(terminals)
        self.index = {t: i for i, t in enumerate(self.terms)}
        self.stats = stats
        self.cap = net.cap
        self.flow: Dict[Tuple[int, int], Dict[int, int]] = {}
        self.used = [0] * len(net.cap)
        self.sigma = [sum(self.cap[a] for a in self.graph.arcs_out(t)) for t in self.terms]
        self.out_total = [0] * len(self.terms)

    def run(self) -> Dict[Tuple[int, int], Dict[int, int]]:
        self._bulk()
        guard = sum(self.sigma) + 1
        while True:
            lacking = next((i for i in range(len(self.terms)) if self.out_total[i] < self.sigma[i]), None)
            if lacking is None:
                break
            guard -= 1
            if guard < 0:
                raise _AugmentationStall("free multiflow augmentation did not converge")
            if not self._augment(lacking):
                raise _AugmentationStall("free multiflow augmentation stalled")
        return self.flow

    def _augment(self, i: int) -> bool:
        """Raise the outflow of terminal i, re-planning after any splice
        whose donor moved under the walk's feet.

        Plans without repeated arcs or donors are applied at full bundle
        width in one pass; repetitive plans run unit by unit and may go
        stale, leaving a width-one dangle to continue from.  A False
        return may leave the flow half re-routed: the caller then
        discards the whole core.
        """
        kappa, vertex = i, None
        prefix: Dict[int, int] = {}
        for _segment in range(8 * (len(self.graph.vertices) * len(self.terms) + 8)):
            walk = self._find_walk(kappa, vertex)
            if walk is None:
                return False
            width = self._walk_width(walk) if not prefix else 1
            status, kappa, vertex, prefix = self._apply_walk(kappa, vertex, prefix, walk, width)
            if status == "done":
                return True
        return False

    # bulk phase: one truncated max flow per terminal on leftover capacity
    def _bulk(self) -> None:
        g = self.graph
        position = g.position
        for i, t in enumerate(self.terms):
            others = [u for u in self.terms if u != t]
            # no arrivals at the source, no departures from sinks: capacity
            # 0 forbids an arc, so the k flows share the core's own graph
            caps = [0 if head == t or (tail in self.index and tail != t) else c - used
                    for tail, head, c, used in zip(g.tail, g.head, self.cap, self.used)]
            sub = IntNetwork(g, tuple(self.terms), caps)
            self.stats.maxflow_calls += 1
            f, value = max_flow(sub, [t], others)
            if not value:
                continue
            for p in decompose(g, f, [t], others):
                comp = self.flow.setdefault((i, self.index[p.target]), {})
                for arc in p.arcs:
                    a = position[arc]
                    comp[a] = comp.get(a, 0) + p.weight
                    self.used[a] += p.weight
                self.out_total[i] += p.weight

    # augmenting walk search over states (vertex, carried commodity)
    def _find_walk(self, kappa: int, vertex):
        """Plan a walk completing one unit for commodity kappa.

        vertex None means the walk starts fresh at the commodity's
        terminal; otherwise a half-built unit dangles at that vertex.
        Moves: forward along spare capacity; reverse along a carried unit
        (re-sourcing it); displacing a full arrival arc into a terminal.
        The walk ends at the first spare-capacity arrival at a terminal
        other than the one currently carried.
        """
        g = self.graph
        tail, head, used, cap, index = g.tail, g.head, self.used, self.cap, self.index
        parents = {}
        q = deque()
        if vertex is None:
            start = self.terms[kappa]
            for a in g.arcs_out(start):
                if used[a] < cap[a]:
                    st = (head[a], kappa)
                    if st not in parents:
                        parents[st] = (None, ("fwd", a, None))
                        if head[a] in index and head[a] != start:
                            return self._rebuild(parents, st)
                        if head[a] not in index:
                            q.append(st)
        else:
            seed = (vertex, kappa)
            parents[seed] = (None, None)
            q.append(seed)
        while q:
            state = q.popleft()
            v, kap = state
            home = self.terms[kap]
            for a in g.arcs_out(v):
                h = head[a]
                if used[a] < cap[a]:  # forward
                    if h in index:
                        if h != home:
                            end = (h, kap)
                            if end not in parents:
                                parents[end] = (state, ("fwd", a, None))
                                return self._rebuild(parents, end)
                        continue
                    nxt = (h, kap)
                    if nxt not in parents:
                        parents[nxt] = (state, ("fwd", a, None))
                        q.append(nxt)
                elif h in index and h != home:
                    # displace a unit arriving on this full arc
                    for donor in self._donors_for(a):
                        nxt = (v, donor[0])
                        if nxt not in parents:
                            parents[nxt] = (state, ("disp", a, donor))
                            q.append(nxt)
            if v in index:
                continue  # departures of other terminals stay untouched
            for a in g.arcs_into(v):  # reverse, re-sourcing a unit
                if used[a] <= 0:
                    continue
                t = tail[a]
                for donor in self._donors_for(a):
                    k, l = donor
                    if l == kap:
                        continue  # splicing would close a path onto its source
                    if t == self.terms[k]:
                        resumed = (t, k)
                        if resumed not in parents:
                            parents[resumed] = (state, ("rev", a, donor))
                            q.append(resumed)
                            # the same arc may be re-added at once (net zero)
                            readd = (v, k)
                            if readd not in parents:
                                parents[readd] = (resumed, ("fwd", a, None))
                                q.append(readd)
                    else:
                        nxt = (t, k)
                        if nxt not in parents:
                            parents[nxt] = (state, ("rev", a, donor))
                            q.append(nxt)
        return None

    def _rebuild(self, parents, end):
        moves = []
        st = end
        while st is not None:
            prev, mv = parents[st]
            if mv is not None:
                moves.append(mv)
            st = prev
        moves.reverse()
        return moves

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

    def _apply_walk(self, kappa: int, position, prefix: Dict[int, int], moves, width: int):
        """Execute planned moves until done or until the plan goes stale.

        Returns ("done", ...) after a completing arrival, or
        ("dangling", kappa, vertex, prefix) when a move's precondition no
        longer holds and the caller should re-plan from the dangle.
        Bundled plans are pre-validated by _walk_width and cannot go
        stale; a stale move there means a broken invariant.
        """
        g = self.graph
        for kind, a, donor_key in moves:
            if kind == "fwd":
                if self.used[a] + width > self.cap[a]:
                    if width > 1:
                        raise ContractViolation("bundled walk went stale")
                    return "dangling", kappa, position, prefix
                prefix[a] = prefix.get(a, 0) + width
                self.used[a] += width
                position = g.head[a]
                j = self.index.get(position)
                if j is not None:  # completing arrival
                    if j == kappa:
                        raise ContractViolation("augmenting walk arrived at its own source")
                    _add_arcfunc(self.flow.setdefault((kappa, j), {}), prefix)
                    self.out_total[kappa] += width
                    return "done", kappa, None, {}
            elif kind == "rev":
                k, l = donor_key
                donor = self.flow.get((k, l), {})
                if l == kappa or donor.get(a, 0) < width:
                    if width > 1:
                        raise ContractViolation("bundled walk went stale")
                    return "dangling", kappa, position, prefix
                donor[a] -= width
                self.used[a] -= width
                # the carried half joins the donor's abandoned tail
                tail_piece = _extract(donor, g, g.head[a], self.terms[l], width)
                target = self.flow.setdefault((kappa, l), {})
                _add_arcfunc(target, prefix)
                _add_arcfunc(target, tail_piece)
                self.out_total[kappa] += width
                # pick up the donor's head half and keep walking for it
                prefix = _extract(donor, g, self.terms[k], g.tail[a], width)
                self.out_total[k] -= width
                kappa = k
                position = g.tail[a]
            else:  # displace a full arrival arc
                k, j = donor_key
                donor = self.flow.get((k, j), {})
                if j == kappa or donor.get(a, 0) < width:
                    if width > 1:
                        raise ContractViolation("bundled walk went stale")
                    return "dangling", kappa, position, prefix
                donor[a] -= width
                prefix[a] = prefix.get(a, 0) + width
                _add_arcfunc(self.flow.setdefault((kappa, j), {}), prefix)
                self.out_total[kappa] += width
                prefix = _extract(donor, g, self.terms[k], g.tail[a], width)
                self.out_total[k] -= width
                kappa = k
                position = g.tail[a]
        if prefix:
            raise ContractViolation("augmenting walk ended with a dangling unit")
        return "done", kappa, None, {}


def _core_by_splitting(net: IntNetwork, terms: Sequence[int], stats: SolveStats):
    """Exact core solver: split capacity off pairs at inner vertices.

    Splitting g units off a pair (u->v, v->w) at an inner vertex v takes g
    from both arcs and adds a bypass u->w of g units.  A split is
    admissible when every terminal t keeps its targets: the max flow from
    t to the other terminals stays d+({t}) and the one into t stays
    d-({t}).  The core's trivial cuts are minimum, so the targets are the
    smallest d+(X) and d-(X) over the sets X that hold t and no other
    terminal.  Vertices are emptied in id order; at each, the first pair
    (in arcs before out arcs, each in id order) with a positive admissible
    amount gets all of it.  A split makes no arc at an emptied vertex, so
    one pass empties them all; then every arc joins two terminals and
    expands back into a walk of original arcs.

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
    search over g would find.

    Arcs are keyed by their position in the core, bypasses by the next
    keys.  Core arcs are tried in id order and each bypass after all of
    them, in the order it was made; the trial networks list their arcs
    in that order, and each vertex keeps its in and out arcs in it, so a
    split reads only the arcs at its vertex.
    """
    g = net.graph
    ids = g.ids
    tset = set(terms)
    m = len(net.cap)
    tails = list(g.tail)
    heads = list(g.head)
    cap = list(net.cap)
    arc_rank = ids.rank_arcs()
    prov: Dict[int, Tuple[int, int]] = {}
    order = sorted(range(m), key=lambda i: arc_rank[g.arcs[i]])  # core arcs, then bypasses
    ins_of: Dict[int, List[int]] = {}  # per vertex, the arcs into it and out of it in order
    outs_of: Dict[int, List[int]] = {}
    for i in order:
        ins_of.setdefault(heads[i], []).append(i)
        outs_of.setdefault(tails[i], []).append(i)
    out_target = {t: sum(cap[i] for i in range(m) if tails[i] == t) for t in terms}
    in_target = {t: sum(cap[i] for i in range(m) if heads[i] == t) for t in terms}

    def admissible(a_id: int, b_id: int) -> int:
        """The largest amount the pair can split, from one trial at full width."""
        hi = min(cap[a_id], cap[b_id])
        cap[a_id] -= hi
        cap[b_id] -= hi
        arcs = [i for i in order if cap[i] > 0]
        tail = [tails[i] for i in arcs]
        head = [heads[i] for i in arcs]
        caps = [cap[i] for i in arcs]
        cap[a_id] += hi
        cap[b_id] += hi
        u, w = tails[a_id], heads[b_id]
        if u != w:
            arcs.append(len(tails))  # the trial bypass: a key no arc has yet
            tail.append(u)
            head.append(w)
            caps.append(hi)
        trial = IntNetwork(IntGraph(ids, g.vertices, arcs, tail, head), tuple(terms), caps)
        short = 0
        for t in terms:
            others = [x for x in terms if x != t]
            for src, dst, target in (([t], others, out_target[t]), (others, [t], in_target[t])):
                stats.maxflow_calls += 1
                short = max(short, target - max_flow(trial, src, dst)[1])
                if short >= hi:
                    return 0
        return hi - short

    for v in sorted(g.vertices):
        if v in tset:
            continue
        while True:
            ins = [i for i in ins_of.get(v, ()) if cap[i] > 0]
            outs = [i for i in outs_of.get(v, ()) if cap[i] > 0]
            if not ins and not outs:
                break
            if not ins or not outs:
                raise ContractViolation("unbalanced inner vertex during splitting")
            if len({tails[i] for i in ins}) == 1 or len({heads[i] for i in outs}) == 1:
                # a free split: the first pair is admissible at full width
                split = (ins[0], outs[0], min(cap[ins[0]], cap[outs[0]]))
            else:
                split = next(((a_id, b_id, amount) for a_id in ins for b_id in outs
                              if (amount := admissible(a_id, b_id))), None)
                if split is None:
                    raise ContractViolation("no admissible capacity split at an inner vertex")
            a_id, b_id, amount = split
            cap[a_id] -= amount
            cap[b_id] -= amount
            u, w = tails[a_id], heads[b_id]
            if u != w:
                nid = len(tails)
                tails.append(u)
                heads.append(w)
                cap.append(amount)
                prov[nid] = (a_id, b_id)
                order.append(nid)
                outs_of.setdefault(u, []).append(nid)
                ins_of.setdefault(w, []).append(nid)

    index = {t: i for i, t in enumerate(terms)}
    flow: Dict[Tuple[int, int], Dict[int, int]] = {}
    memo: Dict[int, Dict[int, int]] = {}
    for aid in order:
        if cap[aid] <= 0:
            continue
        u, w = tails[aid], heads[aid]
        if u not in tset or w not in tset or u == w:
            raise ContractViolation("splitting left capacity off the terminals")
        comp = flow.setdefault((index[u], index[w]), {})
        for orig, mult in _expand_arc(aid, prov, memo).items():
            comp[orig] = comp.get(orig, 0) + mult * cap[aid]
    return flow


def _expand_arc(aid, prov, memo) -> Dict[int, int]:
    """Arc multiset of original arcs behind a (possibly split) arc key."""
    stack = [aid]
    while stack:
        cur = stack[-1]
        if cur in memo:
            stack.pop()
            continue
        if cur not in prov:
            memo[cur] = {cur: 1}
            stack.pop()
            continue
        left, right = prov[cur]
        missing = [x for x in (left, right) if x not in memo]
        if missing:
            stack.extend(missing)
        else:
            merged = dict(memo[left])
            for k, x in memo[right].items():
                merged[k] = merged.get(k, 0) + x
            memo[cur] = merged
            stack.pop()
    return memo[aid]


def _extract(f: Dict[int, int], graph: IntGraph, src: int, dst: int, amount: int) -> Dict[int, int]:
    """Remove `amount` units of src->dst path mass from f and return it."""
    taken: Dict[int, int] = {}
    if src == dst or amount <= 0:
        return taken
    head, tail = graph.head, graph.tail
    left = amount
    while left > 0:
        prev = {src: None}
        q = deque([src])
        found = src == dst
        while q and not found:
            u = q.popleft()
            for a in graph.arcs_out(u):
                if f.get(a, 0) > 0 and head[a] not in prev:
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
            taken[a] = taken.get(a, 0) + theta
        left -= theta
    return taken


def _minimal_terminal_cuts(net: IntNetwork, stats: SolveStats) -> Dict[int, frozenset]:
    """Inclusion-minimal minimum (t, S-t)-cuts; disjoint for inner-Eulerian nets."""
    cuts = {}
    terms = sorted(net.terminals)
    for t in terms:
        others = [u for u in terms if u != t]
        stats.maxflow_calls += 1
        f, _v = max_flow(net, [t], others)
        cuts[t] = min_cut_source_side(net, f, [t], sinks=others)
    for i, a in enumerate(terms):
        for b in terms[i + 1:]:
            if cuts[a] & cuts[b]:
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
    for v in net.inner_vertices():
        if not is_eulerian_at(net, v):
            raise InputError(f"inner vertex {v!r} is not Eulerian", code="not-eulerian")
    inet = intern(net)
    ids = inet.graph.ids
    paths, sides = _free_imf_paths(inet, _minimal_terminal_cuts(inet, stats), {}, stats)
    return (Multiflow(tuple(map(ids.path_ids, paths))),
            {ids.vertex_ids[t]: Cut(frozenset([ids.vertex_ids[v] for v in side]))
             for t, side in sides.items()})


def _free_imf_paths(net: IntNetwork, cuts: Dict[int, frozenset],
                    misplaced: Dict[int, Sequence[int]], stats: SolveStats):
    """Path-form free multiflow, via cut contraction and region expansion.

    cuts maps every terminal to its minimal cut side, misplaced maps a
    terminal to the vertices its region must expel (usually none).  The
    core flow between the contracted sides is stitched to each region's
    flow through its boundary; a region's flow to and from its expelled
    vertices is emitted as it is.  Returns the paths and every region's
    cut side, which shrinks only where vertices were expelled.
    """
    ids = net.graph.ids
    terms = sorted(net.terminals)

    # contract every cut side; the remaining network needs all terminal
    # capacity saturated, which the augmentation core guarantees
    core_term = {t: ids.new_vertex() for t in terms}
    core_net = contract(net, {core_term[t]: cuts[t] for t in terms})

    core = _FreeCore(core_net, [core_term[t] for t in terms], stats)
    try:
        core_flow = core.run()
    except _AugmentationStall:
        core_flow = _core_by_splitting(core_net, core.terms, stats)
    core_paths: List[TerminalPath] = []
    for (i, j) in sorted(core_flow):
        comp = core_flow[(i, j)]
        if any(comp.values()):
            core_paths += decompose(core_net.graph, _by_position(core_net, comp),
                                    [core.terms[i]], [core.terms[j]])

    # expand every contracted side: each region's outside is one vertex z
    lead_in: List[TerminalPath] = []   # terminal -> cut boundary
    lead_out: List[TerminalPath] = []  # cut boundary -> terminal
    expelled: List[TerminalPath] = []  # terminal <-> misplaced vertex
    sides: Dict[int, frozenset] = {}
    bound = 0
    for t in terms:
        sides[t], z, region, forward, backward = repair_three_leaves(
            net, t, cuts[t], misplaced.get(t, ()), stats)
        bound += sum(region.cap[a] for a in region.graph.arcs_into(z))
        for p in forward:
            (lead_in if p.target == z else expelled).append(p)
        for p in backward:
            (lead_out if p.source == z else expelled).append(p)

    full = _join_on_arc(_join_on_arc(lead_in, core_paths), lead_out)
    for p in full:
        if p.source == p.target:
            raise ContractViolation("free multiflow produced a closed path")
    if sum(p.weight for p in full) != bound:
        raise ContractViolation("free multiflow value does not meet the cut bound")
    return full + expelled, sides


# -- base cases -------------------------------------------------------------


def base_two_vertices(net: IntNetwork, tree: _Tree, stats: SolveStats):
    """Single tree edge: one max flow forward, its capacity complement back.

    Terminals realized by the whole edge have distance zero to everything
    and act as balanced through-vertices; no path starts or ends at one.
    """
    v1, v2 = sorted(tree.vertices)
    src = [t for t in net.terminals if tree.subtrees[t] == {v1}]
    dst = [t for t in net.terminals if tree.subtrees[t] == {v2}]
    if not src or not dst:
        raise ContractViolation("two-vertex base without terminals at both ends")
    stats.maxflow_calls += 1
    f, _val = max_flow(net, src, dst)
    x = min_cut_source_side(net, f, src, sinks=dst)
    g = [c - used for c, used in zip(net.cap, f)]
    ends = set(src) | set(dst)
    paths = decompose(net.graph, f, src, dst) + decompose(net.graph, g, ends, ends)
    cuts: CutMap = {(v1, v2): x, (v2, v1): net.graph.vertices - x}
    return paths, cuts


def repair_three_leaves(net: IntNetwork, s_i: int, side: frozenset,
                        q_terms: Sequence[int], stats: SolveStats):
    """Expand one terminal's cut region, expelling the misplaced q_terms.

    Contracts everything outside the cut side into z and takes the
    two-phase flow out of s_i that saturates the arcs into z first and
    then reaches q_terms as far as it can; its capacity complement runs
    from z and q_terms back to s_i.  With q_terms empty this is one max
    flow and the side stays as it is; otherwise the side shrinks to the
    minimal cut of the two-phase flow, which leaves q_terms outside.
    Returns (side, z, region, forward, backward), the paths on the region.
    """
    q = list(q_terms)
    z = net.graph.ids.new_vertex()
    region = contract(net, {z: net.graph.vertices - side})
    rg = region.graph
    # capacity 0 forbids z's out-arcs: they belong to the backward flow
    doctored = IntNetwork(rg, region.terminals,
                          [0 if tail == z else c for tail, c in zip(rg.tail, region.cap)])
    stats.maxflow_calls += 2 if q else 1
    g = lex_max_flow(doctored, s_i, z, q)
    new_side = min_cut_source_side(doctored, g, [s_i], sinks=[z] + q)
    for a in rg.arcs_into(z):
        if g[a] != region.cap[a]:
            raise ContractViolation("region flow does not saturate the cut boundary")
    forward = decompose(rg, g, [s_i], [z] + q)
    h = [c - used for c, used in zip(region.cap, g)]
    backward = decompose(rg, h, [z] + q, [s_i])
    return new_side, z, region, forward, backward


def base_three_leaves(net: IntNetwork, tree: _Tree, stats: SolveStats):
    """Star tree (two or three leaves): a free multiflow on the leaf terminals.

    Simple terminals on the same leaf merge into one representative.  A
    complex terminal that lies in a leaf's minimal cut but whose subtree
    misses that leaf is misplaced there: the free multiflow expands that
    leaf's region with the two-phase flow that expels it, so each region
    is solved once and its cut already separates correctly.
    """
    adj = tree.adjacency()
    leaves = [v for v in sorted(tree.vertices) if len(adj[v]) == 1]
    centers = [v for v in sorted(tree.vertices) if len(adj[v]) > 1]
    if len(centers) != 1 or len(leaves) + 1 != len(tree.vertices):
        raise ContractViolation("star base called on a non-star tree")
    center = centers[0]
    nleaf = len(leaves)
    ids = net.graph.ids

    simples: Dict[int, List[int]] = {i: [] for i in range(nleaf)}
    complexes: List[int] = []
    for t in net.terminals:
        sub = tree.subtrees[t]
        hit = [i for i, v in enumerate(leaves) if v in sub]
        if len(sub) == 1:
            if sub == {center}:
                raise ContractViolation("simple terminal at the star center")
            simples[hit[0]].append(t)
        elif len(hit) < nleaf:
            complexes.append(t)
        # subtrees touching every leaf have distance zero to everything

    # merge similar simple terminals into one representative per leaf
    merged = net
    groups: Dict[int, List[int]] = {}
    reps: List[int] = []
    for i in range(nleaf):
        if not simples[i]:
            raise ContractViolation("star leaf without a simple terminal")
        bunch = sorted(simples[i])
        if len(bunch) == 1:
            reps.append(bunch[0])
            continue
        m = ids.new_vertex()
        merged = contract(merged, {m: bunch})
        groups[m] = bunch
        reps.append(m)

    free_net = IntNetwork(merged.graph, tuple(reps), merged.cap)
    cuts = _minimal_terminal_cuts(free_net, stats)
    # complex terminals trapped in a leaf's cut whose subtree misses that leaf
    misplaced = {}
    for i in range(nleaf):
        q = [t for t in complexes if t in cuts[reps[i]] and leaves[i] not in tree.subtrees[t]]
        if q:
            misplaced[reps[i]] = sorted(q)
    paths, sides = _free_imf_paths(free_net, cuts, misplaced, stats)

    def widen(side: frozenset) -> frozenset:
        out = set()
        for v in side:
            out.update(groups.get(v, [v]))
        return frozenset(out)

    if groups:
        # undo the merge: endpoints are read off the original arc endpoints
        g = net.graph
        position = g.position
        paths = [TerminalPath(g.tail[position[p.arcs[0]]], g.head[position[p.arcs[-1]]],
                              p.arcs, p.weight)
                 for p in paths]
    cuts_out: CutMap = {}
    for i in range(nleaf):
        side = widen(sides[reps[i]])
        cuts_out[(leaves[i], center)] = side
        cuts_out[(center, leaves[i])] = net.graph.vertices - side
    return paths, cuts_out


# -- partition step ----------------------------------------------------------


def aggregate(net: IntNetwork, paths1: List[TerminalPath], paths2: List[TerminalPath],
              x1: frozenset, z2: int, z1: int) -> List[TerminalPath]:
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
            if p.target == z:
                into[z].append(p)
            elif p.source == z:
                out_of[z].append(p)
            elif crossing.isdisjoint(p.arcs):
                internal.append(p)
            else:
                raise ContractViolation("side-internal path touches the partition boundary")

    for z, positions, direction in ((z2, leaving, "forward"), (z1, entering, "backward")):
        load = {g.arcs[k]: 0 for k in positions}
        for p in into[z]:
            load[p.arcs[-1]] += p.weight
        if any(load[g.arcs[k]] != net.cap[k] for k in positions):
            raise ContractViolation(f"partition boundary not saturated {direction}")

    return (internal + _join_on_arc(into[z2], out_of[z1])
            + _join_on_arc(into[z1], out_of[z2]))


def partition_step(net: IntNetwork, tree: _Tree, edge, stats: SolveStats, depth: int):
    """Split at a balanced tree edge along a minimum terminal-group cut."""
    v1, v2 = edge
    side1 = tree.component_without_edge(v1, v2)
    side2 = tree.vertices - side1
    s1_group = [t for t in net.terminals if tree.subtrees[t] <= side1]
    s2_group = [t for t in net.terminals if tree.subtrees[t] <= side2]
    if not s1_group or not s2_group:
        raise ContractViolation("partition with an empty terminal group")

    stats.maxflow_calls += 1
    f, _val = max_flow(net, s1_group, s2_group)
    x1 = min_cut_source_side(net, f, s1_group, sinks=s2_group)
    x2 = net.graph.vertices - x1

    ids = net.graph.ids
    z2 = ids.new_vertex()
    z1 = ids.new_vertex()

    tree1 = _contract_tree(tree, side1, v2, [t for t in net.terminals if t in x1], z2)
    tree2 = _contract_tree(tree, side2, v1, [t for t in net.terminals if t in x2], z1)

    # each child network lives only while its own recursion runs
    paths1, cuts1 = _solve_rec(contract(net, {z2: x2}), tree1, stats, depth + 1)
    paths2, cuts2 = _solve_rec(contract(net, {z1: x1}), tree2, stats, depth + 1)

    paths = aggregate(net, paths1, paths2, x1, z2, z1)

    cuts: CutMap = {(v1, v2): x1, (v2, v1): x2}
    for arc, side in cuts1.items():
        if arc in ((v1, v2), (v2, v1)):
            continue
        cuts[arc] = frozenset((side - {z2}) | (x2 if z2 in side else frozenset()))
    for arc, side in cuts2.items():
        if arc in ((v1, v2), (v2, v1)):
            continue
        cuts[arc] = frozenset((side - {z1}) | (x1 if z1 in side else frozenset()))
    return paths, cuts


def _contract_tree(tree: _Tree, keep_side: frozenset, anchor: int,
                   kept_terminals: Sequence[int], z: int) -> _Tree:
    """The tree on one side of a partition edge plus its far endpoint
    anchor, which realizes the contraction vertex z."""
    verts = keep_side | {anchor}
    adj = {u: tuple(w for w in tree.adj[u] if w in verts) for u in verts}
    subs = {}
    for t in kept_terminals:
        sub = tree.subtrees[t]
        rest = sub & keep_side
        subs[t] = rest | {anchor} if sub - keep_side else rest
    subs[z] = frozenset({anchor})
    return _Tree(verts, adj, subs)


# -- recursion and public entry ---------------------------------------------


def _solve_rec(net: IntNetwork, tree: _Tree, stats: SolveStats, depth: int):
    stats.recursion_depth = max(stats.recursion_depth, depth)
    if len(tree.vertices) == 1:
        return [], {}
    edge = choose_balanced_edge(tree)
    if edge is not None:
        return partition_step(net, tree, edge, stats, depth)
    if len(tree.vertices) == 2:
        return base_two_vertices(net, tree, stats)
    return base_three_leaves(net, tree, stats)


def solve(net: Network, real: RealizationTree) -> SolveOutput:
    """Solve the weighted multiflow problem with an optimality certificate.

    The returned multiflow is integer and feasible; its value equals the
    distance-weighted optimum, witnessed by one saturated separating cut
    per tree arc with a nonempty pair set.
    """
    t0 = time.perf_counter()
    stats = SolveStats()

    norm_net, norm_real, record = normalize(net, real)  # validates the instance first
    inet, tree, tree_ids = _internal(norm_net, norm_real)
    paths, cuts = _solve_rec(inet, tree, stats, 0)
    paths, cuts = _external(inet.graph.ids, tree_ids, paths, cuts)
    paths, cert = _undo_normalization(net, real, norm_real, record, paths, cuts)

    flow = Multiflow(tuple(paths))
    value = mu_value(real, flow)
    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return SolveOutput(flow, Certificate(cert), value, stats)


def _undo_normalization(net0: Network, real0: RealizationTree, norm_real: RealizationTree,
                        record: NormalizeRecord, paths: List[TerminalPath], cuts):
    """Map paths and cuts of the normalized instance back to the input.

    A split terminal s lies between its halves on the arcs out_arc
    (source_half -> s) and in_arc (s -> target_half); paths from or to a
    half lose that arc and end at s instead.
    """
    src_of = {rec.source_half: rec for rec in record.splits}
    dst_of = {rec.target_half: rec for rec in record.splits}
    out_paths: List[TerminalPath] = []
    for p in paths:
        s, t, arcs = p.source, p.target, p.arcs
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
        out_paths.append(TerminalPath(s, t, arcs, p.weight))

    # side membership of the split halves, read in the normalized tree:
    # later reductions may have moved them from where they were split
    half_spot = {}
    for rec in record.splits:
        (t1,) = norm_real.subtrees[rec.target_half]
        (t2,) = norm_real.subtrees[rec.source_half]
        half_spot[rec.terminal] = (t1, t2)

    cert: Dict = {}
    for arc in real0.quasi_arcs():
        pi = pi_set(real0, net0.terminals, arc)
        if pi.empty:
            continue
        mapped = record.arc_map.get(arc)
        if mapped is None:
            raise ContractViolation(f"no surviving tree arc for {arc!r}")
        side = cuts.get(mapped)
        if side is None:
            raise ContractViolation(f"missing certificate cut for {mapped!r}")
        if not record.splits:
            cert[arc] = side
            continue
        side = set(side)
        tail_side = norm_real.component_without_edge(*mapped)
        for rec in reversed(record.splits):
            t1, t2 = half_spot[rec.terminal]
            side.discard(rec.target_half)
            side.discard(rec.source_half)
            if t1 in tail_side and t2 in tail_side:
                side.add(rec.terminal)
            elif t1 not in tail_side and t2 not in tail_side:
                side.discard(rec.terminal)
        cert[arc] = frozenset(side)
    return out_paths, cert
