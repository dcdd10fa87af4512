"""Exact solver for maximum tree-distance-weighted integer multiflows.

The algorithm normalizes the realization, then recurses: while the tree
has an edge with two non-leaf endpoints it splits the instance at a
minimum cut between the two terminal groups, solves both contractions,
and glues the results.  Otherwise the tree is a single edge or a small
star, handled by direct flow constructions.  Every level returns its
flow as weighted TerminalPaths, glued on the cut's boundary arcs, and
one saturated separating cut per tree arc; the lifted family certifies
optimality of the final answer.

solve and free_imf validate their input and intern it once (indexed.py),
the tree numbered too, in id order.  Normalization (realization.Reduction),
the recursion, which contracts by relabelling, and the undo of the
normalization then run on numbers and build no Network, Digraph or
RealizationTree; paths and cuts return to ids once, at the end.  Ties
break by number throughout: vertices by vertex number (input vertices are
numbered in id order), arcs by arc number (arc order), and each vertex or
arc made takes the next.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .certify import Certificate, mu_value
from .errors import InputError, ContractViolation
from .graphs import Cut, Network, TerminalPath, is_eulerian_at
from .indexed import (IdTable, IntGraph, IntNetwork, boundary, contract, decompose, intern,
                      max_flow, min_cut_source_side)
from .indexed import lex_max_flow  # noqa: F401 - bench/pipeline.py LAYERS wraps solver.lex_max_flow
from .multiflow import Multiflow
from .realization import (
    IntTree,
    NormalizeRecord,
    RealizationTree,
    Reduction,
    choose_balanced_edge,
    intern_instance,
    normalize,  # noqa: F401 - bench/pipeline.py LAYERS wraps solver.normalize
    pi_set,
    validate_instance,
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


def _external(ids: IdTable, tree_ids: IdTable, paths: List[TerminalPath], cert: CutMap):
    """Paths and certificate cuts of a solve, in ids.

    cert is emptied on the way, so the two forms of the large cut sides
    are not all held at once.  A frozenset filled one id at a time keeps
    the table it grew into, up to twice the one a copy sizes for its
    contents, so each side is copied from a set.
    """
    vertex_ids, tree_vertex_ids = ids.vertex_ids, tree_ids.vertex_ids
    id_cert = {}
    for u, v in list(cert):
        side = cert.pop((u, v))
        id_cert[(tree_vertex_ids[u], tree_vertex_ids[v])] = frozenset(set(map(vertex_ids.__getitem__, side)))
    return [ids.path_ids(p) for p in paths], id_cert


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
        """The core flow, or _AugmentationStall past a budget free of
        capacities: at most n·k augmentations on n vertices and k terminals,
        each of at most 8(n·k+8) walk searches (_augment), each a BFS over
        at most n·k states.  Splitting, which takes over, is capacity-free too."""
        self._bulk()
        guard = len(self.graph.vertices) * len(self.terms)
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
        seed = (self.terms[kappa] if vertex is None else vertex, kappa)
        parents = {seed: (None, None)}
        q = deque([seed])
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
                stale = self.used[a] + width > self.cap[a]
            else:
                k, l = donor_key
                donor = self.flow.get(donor_key, {})
                stale = l == kappa or donor.get(a, 0) < width
            if stale:
                if width > 1:
                    raise ContractViolation("bundled walk went stale")
                return "dangling", kappa, position, prefix
            if kind == "fwd":
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
                continue
            donor[a] -= width
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
            position = g.tail[a]
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
    each bypass in the order it was made.  The trial networks list their
    arcs in that order, and each vertex keeps its in and out arcs in it,
    so a split reads only the arcs at its vertex.  Each bypass records its
    walk of core arcs when it is made.
    """
    g = net.graph
    ids = g.ids
    tset = set(terms)
    m = len(net.cap)
    tails = list(g.tail)
    heads = list(g.head)
    cap = list(net.cap)
    walk: List[Dict[int, int]] = [{i: 1} for i in range(m)]  # the core arcs behind each key
    ins_of: Dict[int, List[int]] = {}  # per vertex, the arcs into it and out of it in order
    outs_of: Dict[int, List[int]] = {}
    for i in range(m):
        ins_of.setdefault(heads[i], []).append(i)
        outs_of.setdefault(tails[i], []).append(i)
    out_target = {t: sum(cap[i] for i in outs_of.get(t, ())) for t in terms}

    def admissible(a_id: int, b_id: int) -> int:
        """The largest amount the pair can split, from one trial at full width."""
        hi = min(cap[a_id], cap[b_id])
        cap[a_id] -= hi
        cap[b_id] -= hi
        arcs = [i for i, c in enumerate(cap) if c > 0]
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
        # u and w both terminals: no set holding only one of them is lowered
        untouched = {u, w} if u != w and u in tset and w in tset else ()
        short = 0
        for t in terms:
            if t in untouched:
                continue
            stats.maxflow_calls += 1
            short = max(short, out_target[t] - max_flow(trial, [t], [x for x in terms if x != t])[1])
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
                walk.append(dict(walk[a_id]))
                _add_arcfunc(walk[nid], walk[b_id])
                outs_of.setdefault(u, []).append(nid)
                ins_of.setdefault(w, []).append(nid)

    index = {t: i for i, t in enumerate(terms)}
    flow: Dict[Tuple[int, int], Dict[int, int]] = {}
    for u, w, c, arcs in zip(tails, heads, cap, walk):
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


def _minimal_terminal_cuts(net: IntNetwork, groups: Sequence[Sequence[int]],
                           stats: SolveStats) -> List[Tuple[frozenset, List[int]]]:
    """Each terminal group's inclusion-minimal minimum cut side against the
    other groups, disjoint for inner-Eulerian nets, with the max flow from
    the whole group that found it."""
    cuts = []
    for i, group in enumerate(groups):
        others = [u for j, other in enumerate(groups) if j != i for u in other]
        stats.maxflow_calls += 1
        f, _v = max_flow(net, group, others)
        cuts.append((min_cut_source_side(net, f, group, sinks=others), f))
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
    for v in net.inner_vertices():
        if not is_eulerian_at(net, v):
            raise InputError(f"inner vertex {v!r} is not Eulerian", code="not-eulerian")
    inet = intern(net)
    ids = inet.graph.ids
    groups = [[t] for t in sorted(inet.terminals)]
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

    core = _FreeCore(core_net, core_terms, stats)
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

    # expand every side on net: a path ending or starting outside it crosses its boundary
    lead_in: List[TerminalPath] = []   # terminal -> cut boundary
    lead_out: List[TerminalPath] = []  # cut boundary -> terminal
    expelled: List[TerminalPath] = []  # terminal <-> misplaced vertex
    sides: List[frozenset] = []
    for i, (group, (side, f)) in enumerate(zip(groups, cuts)):
        new_side, forward, backward = repair_three_leaves(net, group, side, f, misplaced.get(i, ()), stats)
        sides.append(new_side)
        for p in forward:
            (expelled if p.target in side else lead_in).append(p)
        for p in backward:
            (expelled if p.source in side else lead_out).append(p)

    full = _join_on_arc(_join_on_arc(lead_in, core_paths), lead_out)
    for p in full:
        if p.source == p.target:
            raise ContractViolation("free multiflow produced a closed path")
    # a core terminal's out-capacity is the capacity of its cut
    if sum(p.weight for p in full) != sum(core.sigma):
        raise ContractViolation("free multiflow value does not meet the cut bound")
    return full + expelled, sides


# -- base cases -------------------------------------------------------------


def base_two_vertices(net: IntNetwork, tree: IntTree, stats: SolveStats):
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
    leaving, entering = boundary(g, side)
    ends = [*{g.head[k] for k in leaving}, *q_terms]
    f = [w if t in side else 0 for t, w in zip(g.tail, f)]
    new_side = side
    if q_terms:
        stats.maxflow_calls += 1
        f, _value = max_flow(net, group, ends, start=f)
        new_side = min_cut_source_side(net, f, group, sinks=ends)
    for k in leaving:
        if f[k] != net.cap[k]:
            raise ContractViolation("region flow does not saturate the cut boundary")
    forward = decompose(g, f, group, ends)
    # members have distance zero: the complement skips arcs between them and
    # drops paths from one member to another, circulations through the group
    members = set(group)
    h = [c - w if v in side and not (t in members and v in members) else 0
         for t, v, c, w in zip(g.tail, g.head, net.cap, f)]
    backward = [p for p in decompose(g, h, [*{g.tail[k] for k in entering}, *q_terms, *group], group)
                if p.source not in members]
    return new_side, forward, backward


def base_three_leaves(net: IntNetwork, tree: IntTree, stats: SolveStats):
    """Star tree (two or three leaves): a free multiflow on the leaf terminals.

    The simple terminals on one leaf have distance zero to each other, so
    they form one terminal group of the free multiflow.  A complex
    terminal that lies in a leaf's minimal cut but whose subtree misses
    that leaf is misplaced there: the free multiflow continues that leaf's
    cut flow until it expels it, so its cut already separates correctly;
    the other regions run no max flow.
    """
    adj = tree.adjacency()
    leaves = [v for v in sorted(tree.vertices) if len(adj[v]) == 1]
    centers = [v for v in sorted(tree.vertices) if len(adj[v]) > 1]
    if len(centers) != 1 or len(leaves) + 1 != len(tree.vertices):
        raise ContractViolation("star base called on a non-star tree")
    center = centers[0]

    groups: List[List[int]] = [[] for _leaf in leaves]
    complexes: List[int] = []
    for t in net.terminals:
        sub = tree.subtrees[t]
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
    cuts_out: CutMap = {}
    for leaf, side in zip(leaves, sides):
        cuts_out[(leaf, center)] = side
        cuts_out[(center, leaf)] = net.graph.vertices - side
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


def partition_step(net: IntNetwork, tree: IntTree, edge, stats: SolveStats, depth: int):
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


def _contract_tree(tree: IntTree, keep_side: frozenset, anchor: int,
                   kept_terminals: Sequence[int], z: int) -> IntTree:
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
    return IntTree(verts, adj, subs)


# -- recursion and public entry ---------------------------------------------


def _solve_rec(net: IntNetwork, tree: IntTree, stats: SolveStats, depth: int):
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

    issue = validate_instance(net, real)
    if issue is not None:
        raise InputError(f"instance invalid at {issue.vertex!r}: {issue.reason}", code="not-eulerian")
    inet, tree_ids, tree, length = intern_instance(net, real)
    reduction = Reduction(inet, tree_ids, tree, length)
    reduction.run()
    norm_tree = reduction.tree()
    paths, cuts = _solve_rec(reduction.network(), norm_tree, stats, 0)
    paths, cert = _undo_normalization(inet, tree, norm_tree, reduction.record(), paths, cuts)
    paths, cert = _external(inet.graph.ids, tree_ids, paths, cert)

    flow = Multiflow(tuple(paths))
    value = mu_value(real, flow)
    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return SolveOutput(flow, Certificate(cert), value, stats)


def _undo_normalization(net0: IntNetwork, tree0: IntTree, norm_tree: IntTree,
                        record: NormalizeRecord, paths: List[TerminalPath], cuts: CutMap):
    """Map paths and cuts of the normalized instance back to the input, in
    numbers: one certificate cut per input tree arc with a nonempty pair set.

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

    cert: CutMap = {}
    for arc, mapped in record.arc_map.items():
        if pi_set(tree0, net0.terminals, arc).empty:
            continue
        if mapped is None:
            raise ContractViolation(f"no surviving tree arc for {arc!r}")
        side = cuts.get(mapped)
        if side is None:
            raise ContractViolation(f"missing certificate cut for {mapped!r}")
        if not record.splits:
            cert[arc] = side
            continue
        side = set(side)
        tail_side = norm_tree.component_without_edge(*mapped)
        for rec in reversed(record.splits):
            # the halves' tree vertices, read in the normalized tree: later
            # reductions may have moved them from where they were split
            (t1,), (t2,) = norm_tree.subtrees[rec.target_half], norm_tree.subtrees[rec.source_half]
            side.discard(rec.target_half)
            side.discard(rec.source_half)
            if t1 in tail_side and t2 in tail_side:
                side.add(rec.terminal)
            elif t1 not in tail_side and t2 not in tail_side:
                side.discard(rec.terminal)
        cert[arc] = frozenset(side)
    return out_paths, cert
