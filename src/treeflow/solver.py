"""Exact solver for maximum tree-distance-weighted integer multiflows.

The algorithm normalizes the realization, then recurses: while the tree
has an edge with two non-leaf endpoints it splits the instance at a
minimum cut between the two terminal groups, solves both contractions,
and glues the results.  Otherwise the tree is a single edge or a small
star, handled by direct flow constructions.  Every level returns its
flow as weighted TerminalPaths, glued on the cut's boundary arcs, and
one saturated separating cut per tree arc; the lifted family certifies
optimality of the final answer.
"""

from __future__ import annotations

import time
from bisect import insort
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .certify import Certificate, mu_value
from .errors import InputError, ContractViolation
from .flows import TerminalPath, decompose, max_flow, min_cut_source_side, lex_max_flow
from .graphs import (ArcId, Cut, Digraph, Network, VertexId, boundary, contract, fresh_id,
                     is_eulerian_at, sort_key)
from .multiflow import Multiflow
from .realization import (
    NormalizeRecord,
    RealizationTree,
    choose_balanced_edge,
    normalize,
    pi_set,
    validate_instance,
)

CutMap = Dict[Tuple[Hashable, Hashable], frozenset]


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


# -- small helpers ---------------------------------------------------------


def _add_arcfunc(target: Dict[ArcId, int], src: Dict[ArcId, int]) -> None:
    for aid, w in src.items():
        if w:
            target[aid] = target.get(aid, 0) + w


def _join_on_arc(left: List[TerminalPath], right: List[TerminalPath]) -> List[TerminalPath]:
    """Concatenate weighted paths: each left path ends with the arc the
    matching right path starts with; weights are split greedily and must
    all be used.  Glues regions to the core in _free_imf_paths and the
    two partition children in aggregate."""
    queues: Dict[ArcId, deque] = {}
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
    """

    def __init__(self, net: Network, terminals: Sequence[VertexId], stats: SolveStats):
        self.net = net
        self.terms = list(terminals)
        self.tset = set(terminals)
        self.stats = stats
        self.graph = net.graph
        self.cap = net.capacity
        self.flow: Dict[Tuple[int, int], Dict[ArcId, int]] = {}
        self.used: Dict[ArcId, int] = {}
        self.sigma = [sum(self.cap[a.id] for a in self.graph.out_arcs(t)) for t in self.terms]
        self.out_total = [0] * len(self.terms)

    def run(self) -> Dict[Tuple[int, int], Dict[ArcId, int]]:
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
        prefix: Dict[ArcId, int] = {}
        for _segment in range(8 * (len(self.net.vertices) * len(self.terms) + 8)):
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
        for i, t in enumerate(self.terms):
            others = [u for u in self.terms if u != t]
            # no arrivals at the source, no departures from sinks: capacity
            # 0 forbids an arc, so the k flows share the core's own graph
            caps = {a.id: 0 if a.head == t or (a.tail in self.tset and a.tail != t)
                    else self.cap[a.id] - self.used.get(a.id, 0)
                    for a in self.graph.arcs}
            sub = Network(self.graph, tuple(self.terms), caps)
            self.stats.maxflow_calls += 1
            f, _v = max_flow(sub, [t], others)
            if not f:
                continue
            for p in decompose(sub, f, [t], others):
                j = self.terms.index(p.target)
                comp = self.flow.setdefault((i, j), {})
                for aid in p.arcs:
                    comp[aid] = comp.get(aid, 0) + p.weight
                    self.used[aid] = self.used.get(aid, 0) + p.weight
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
        parents = {}
        q = deque()
        if vertex is None:
            start = self.terms[kappa]
            for a in self.graph.out_arcs(start):
                if self.used.get(a.id, 0) < self.cap[a.id]:
                    st = (a.head, kappa)
                    if st not in parents:
                        parents[st] = (None, ("fwd", a.id, None))
                        if a.head in self.tset and a.head != start:
                            return self._rebuild(parents, st)
                        if a.head not in self.tset:
                            q.append(st)
        else:
            seed = (vertex, kappa)
            parents[seed] = (None, None)
            q.append(seed)
        while q:
            state = q.popleft()
            v, kap = state
            for a in self.graph.out_arcs(v):
                if self.used.get(a.id, 0) < self.cap[a.id]:  # forward
                    if a.head in self.tset:
                        if a.head != self.terms[kap]:
                            end = (a.head, kap)
                            if end not in parents:
                                parents[end] = (state, ("fwd", a.id, None))
                                return self._rebuild(parents, end)
                        continue
                    nxt = (a.head, kap)
                    if nxt not in parents:
                        parents[nxt] = (state, ("fwd", a.id, None))
                        q.append(nxt)
                elif a.head in self.tset and a.head != self.terms[kap]:
                    # displace a unit arriving on this full arc
                    j = self.terms.index(a.head)
                    for donor in self._donors_for(a.id):
                        nxt = (v, donor[0])
                        if nxt not in parents:
                            parents[nxt] = (state, ("disp", a.id, donor))
                            q.append(nxt)
            if v in self.tset:
                continue  # departures of other terminals stay untouched
            for a in self.graph.in_arcs(v):  # reverse, re-sourcing a unit
                if self.used.get(a.id, 0) <= 0:
                    continue
                for donor in self._donors_for(a.id):
                    k, l = donor
                    if l == kap:
                        continue  # splicing would close a path onto its source
                    if a.tail == self.terms[k]:
                        resumed = (a.tail, k)
                        if resumed not in parents:
                            parents[resumed] = (state, ("rev", a.id, donor))
                            q.append(resumed)
                            # the same arc may be re-added at once (net zero)
                            readd = (a.head, k)
                            if readd not in parents:
                                parents[readd] = (resumed, ("fwd", a.id, None))
                                q.append(readd)
                    else:
                        nxt = (a.tail, k)
                        if nxt not in parents:
                            parents[nxt] = (state, ("rev", a.id, donor))
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

    def _donors_for(self, aid: ArcId):
        out = [kl for kl, comp in self.flow.items() if comp.get(aid, 0) > 0]
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
            kind, aid, donor_key = moves[idx]
            composite = (kind == "rev" and idx + 1 < len(moves)
                         and moves[idx + 1] == ("fwd", aid, None))
            if aid in arcs_seen or (donor_key is not None and donor_key in donors_seen):
                return 1
            arcs_seen.add(aid)
            if kind == "fwd":
                room = self.cap[aid] - self.used.get(aid, 0)
            else:
                donors_seen.add(donor_key)
                room = self.flow.get(donor_key, {}).get(aid, 0)
            width = room if width is None else min(width, room)
            idx += 2 if composite else 1
        return max(1, width if width is not None else 1)

    def _apply_walk(self, kappa: int, position, prefix: Dict[ArcId, int], moves, width: int):
        """Execute planned moves until done or until the plan goes stale.

        Returns ("done", ...) after a completing arrival, or
        ("dangling", kappa, vertex, prefix) when a move's precondition no
        longer holds and the caller should re-plan from the dangle.
        Bundled plans are pre-validated by _walk_width and cannot go
        stale; a stale move there means a broken invariant.
        """
        by_id = self.graph.arcs_by_id()
        for kind, aid, donor_key in moves:
            a = by_id[aid]
            if kind == "fwd":
                if self.used.get(aid, 0) + width > self.cap[aid]:
                    if width > 1:
                        raise ContractViolation("bundled walk went stale")
                    return "dangling", kappa, position, prefix
                prefix[aid] = prefix.get(aid, 0) + width
                self.used[aid] = self.used.get(aid, 0) + width
                position = a.head
                if a.head in self.tset:  # completing arrival
                    j = self.terms.index(a.head)
                    if j == kappa:
                        raise ContractViolation("augmenting walk arrived at its own source")
                    _add_arcfunc(self.flow.setdefault((kappa, j), {}), prefix)
                    self.out_total[kappa] += width
                    return "done", kappa, None, {}
            elif kind == "rev":
                k, l = donor_key
                donor = self.flow.get((k, l), {})
                if l == kappa or donor.get(aid, 0) < width:
                    if width > 1:
                        raise ContractViolation("bundled walk went stale")
                    return "dangling", kappa, position, prefix
                donor[aid] -= width
                self.used[aid] -= width
                # the carried half joins the donor's abandoned tail
                tail_piece = _extract(donor, self.graph, a.head, self.terms[l], width)
                target = self.flow.setdefault((kappa, l), {})
                _add_arcfunc(target, prefix)
                _add_arcfunc(target, tail_piece)
                self.out_total[kappa] += width
                # pick up the donor's head half and keep walking for it
                prefix = _extract(donor, self.graph, self.terms[k], a.tail, width)
                self.out_total[k] -= width
                kappa = k
                position = a.tail
            else:  # displace a full arrival arc
                k, j = donor_key
                donor = self.flow.get((k, j), {})
                if j == kappa or donor.get(aid, 0) < width:
                    if width > 1:
                        raise ContractViolation("bundled walk went stale")
                    return "dangling", kappa, position, prefix
                donor[aid] -= width
                prefix[aid] = prefix.get(aid, 0) + width
                _add_arcfunc(self.flow.setdefault((kappa, j), {}), prefix)
                self.out_total[kappa] += width
                prefix = _extract(donor, self.graph, self.terms[k], a.tail, width)
                self.out_total[k] -= width
                kappa = k
                position = a.tail
        if prefix:
            raise ContractViolation("augmenting walk ended with a dangling unit")
        return "done", kappa, None, {}


def _core_by_splitting(net: Network, terms: Sequence[VertexId], stats: SolveStats):
    """Exact but slow core solver: split capacity through inner vertices.

    Repeatedly replaces an in/out capacity pair at an inner vertex by a
    direct bypass arc, committing the largest amount that keeps every
    per-terminal minimum cut at its target in both directions.  Once no
    inner vertex carries capacity, every arc runs between two terminals
    and expands back into a walk of original arcs.
    """
    tset = set(terms)
    tails: Dict[ArcId, VertexId] = {}
    heads: Dict[ArcId, VertexId] = {}
    cap: Dict[ArcId, int] = {}
    prov: Dict[ArcId, Tuple[ArcId, ArcId]] = {}
    for a in net.graph.arcs:
        tails[a.id], heads[a.id], cap[a.id] = a.tail, a.head, net.capacity[a.id]
    order = sorted(cap, key=sort_key)  # every arc id, bypasses included, in id order
    out_target = {t: sum(cap[i] for i in cap if tails[i] == t) for t in terms}
    in_target = {t: sum(cap[i] for i in cap if heads[i] == t) for t in terms}
    counter = [0]

    def snapshot_net(extra=None):
        arcs = [(i, tails[i], heads[i]) for i in order if cap[i] > 0]
        caps = {i: cap[i] for i, _t, _h in arcs}
        if extra is not None:
            aid, u, w, g = extra
            if u != w and g > 0:
                arcs.append((aid, u, w))
                caps[aid] = g
        return Network(Digraph.build(net.vertices, arcs), tuple(terms), caps)

    def feasible(a_id, b_id, gamma) -> bool:
        if gamma == 0:
            return True
        u, w = tails[a_id], heads[b_id]
        cap[a_id] -= gamma
        cap[b_id] -= gamma
        trial = snapshot_net(("?split", u, w, gamma))
        cap[a_id] += gamma
        cap[b_id] += gamma
        for t in terms:
            others = [x for x in terms if x != t]
            stats.maxflow_calls += 2
            if max_flow(trial, [t], others)[1] != out_target[t]:
                return False
            if max_flow(trial, others, [t])[1] != in_target[t]:
                return False
        return True

    progress = True
    while progress:
        progress = False
        for v in sorted(net.vertices, key=sort_key):
            if v in tset:
                continue
            while True:
                ins = [i for i in order if heads[i] == v and cap[i] > 0]
                outs = [i for i in order if tails[i] == v and cap[i] > 0]
                if not ins and not outs:
                    break
                if not ins or not outs:
                    raise ContractViolation("unbalanced inner vertex during splitting")
                committed = False
                for a_id in ins:
                    for b_id in outs:
                        hi = min(cap[a_id], cap[b_id])
                        if feasible(a_id, b_id, hi):
                            best = hi
                        else:
                            lo, best = 0, 0
                            while lo + 1 < hi:
                                mid = (lo + hi) // 2
                                if feasible(a_id, b_id, mid):
                                    lo, best = mid, mid
                                else:
                                    hi = mid
                        if best > 0:
                            u, w = tails[a_id], heads[b_id]
                            cap[a_id] -= best
                            cap[b_id] -= best
                            if u != w:
                                counter[0] += 1
                                nid = ("~", counter[0])
                                tails[nid], heads[nid], cap[nid] = u, w, best
                                prov[nid] = (a_id, b_id)
                                insort(order, nid, key=sort_key)
                            committed = True
                            progress = True
                            break
                    if committed:
                        break
                if not committed:
                    raise ContractViolation("no admissible capacity split at an inner vertex")

    index = {t: i for i, t in enumerate(terms)}
    flow: Dict[Tuple[int, int], Dict[ArcId, int]] = {}
    memo: Dict[ArcId, Dict[ArcId, int]] = {}
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


def _expand_arc(aid, prov, memo) -> Dict[ArcId, int]:
    """Arc multiset of original arcs behind a (possibly split) arc id."""
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


def _extract(f: Dict[ArcId, int], graph: Digraph, src: VertexId, dst: VertexId,
             amount: int) -> Dict[ArcId, int]:
    """Remove `amount` units of src->dst path mass from f and return it."""
    taken: Dict[ArcId, int] = {}
    if src == dst or amount <= 0:
        return taken
    left = amount
    while left > 0:
        prev = {src: None}
        q = deque([src])
        found = src == dst
        while q and not found:
            u = q.popleft()
            for a in graph.out_arcs(u):
                if f.get(a.id, 0) > 0 and a.head not in prev:
                    prev[a.head] = a
                    if a.head == dst:
                        found = True
                        break
                    q.append(a.head)
        if dst not in prev:
            raise ContractViolation("component surgery found no connecting path")
        path = []
        v = dst
        while prev[v] is not None:
            path.append(prev[v])
            v = prev[v].tail
        theta = min(min(f[a.id] for a in path), left)
        for a in path:
            f[a.id] -= theta
            taken[a.id] = taken.get(a.id, 0) + theta
        left -= theta
    return taken


def _minimal_terminal_cuts(net: Network, stats: SolveStats) -> Dict[VertexId, frozenset]:
    """Inclusion-minimal minimum (t, S-t)-cuts; disjoint for inner-Eulerian nets."""
    cuts = {}
    terms = sorted(net.terminals, key=sort_key)
    for t in terms:
        others = [u for u in terms if u != t]
        stats.maxflow_calls += 1
        f, _v = max_flow(net, [t], others)
        cuts[t] = min_cut_source_side(net, f, [t], sinks=others).source_side
    for a in terms:
        for b in terms:
            if sort_key(a) < sort_key(b) and cuts[a] & cuts[b]:
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
    paths, sides = _free_imf_paths(net, _minimal_terminal_cuts(net, stats), {}, stats)
    return Multiflow.from_paths(net, paths), {t: Cut(side) for t, side in sides.items()}


def _free_imf_paths(net: Network, cuts: Dict[VertexId, frozenset],
                    misplaced: Dict[VertexId, Sequence[VertexId]], stats: SolveStats):
    """Path-form free multiflow, via cut contraction and region expansion.

    cuts maps every terminal to its minimal cut side, misplaced maps a
    terminal to the vertices its region must expel (usually none).  The
    core flow between the contracted sides is stitched to each region's
    flow through its boundary; a region's flow to and from its expelled
    vertices is emitted as it is.  Returns the paths and every region's
    cut side, which shrinks only where vertices were expelled.
    """
    terms = sorted(net.terminals, key=sort_key)

    # contract every cut side; the remaining network needs all terminal
    # capacity saturated, which the augmentation core guarantees
    taken = set(net.vertices)
    core_term: Dict[VertexId, VertexId] = {}
    for t in terms:
        core_term[t] = fresh_id(taken, "@", "w")
        taken.add(core_term[t])
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
            core_paths += decompose(core_net, comp, [core.terms[i]], [core.terms[j]])

    # expand every contracted side: each region's outside is one vertex z
    lead_in: List[TerminalPath] = []   # terminal -> cut boundary
    lead_out: List[TerminalPath] = []  # cut boundary -> terminal
    expelled: List[TerminalPath] = []  # terminal <-> misplaced vertex
    sides: Dict[VertexId, frozenset] = {}
    bound = 0
    for t in terms:
        sides[t], z, region, forward, backward = repair_three_leaves(
            net, t, cuts[t], misplaced.get(t, ()), stats)
        bound += sum(region.capacity[a.id] for a in region.graph.in_arcs(z))
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


def base_two_vertices(net: Network, real: RealizationTree, stats: SolveStats):
    """Single tree edge: one max flow forward, its capacity complement back.

    Terminals realized by the whole edge have distance zero to everything
    and act as balanced through-vertices; they never carry components.
    """
    v1, v2 = sorted(real.vertices, key=sort_key)
    src = [t for t in net.terminals if real.subtrees[t] == {v1}]
    dst = [t for t in net.terminals if real.subtrees[t] == {v2}]
    if not src or not dst:
        raise ContractViolation("two-vertex base without terminals at both ends")
    stats.maxflow_calls += 1
    f, _val = max_flow(net, src, dst)
    x = min_cut_source_side(net, f, src, sinks=dst).source_side
    g = {a.id: net.capacity[a.id] - f.get(a.id, 0) for a in net.graph.arcs}
    ends = sorted(set(src) | set(dst), key=sort_key)
    paths = decompose(net, f, src, dst) + decompose(net, g, ends, ends)
    cuts: CutMap = {(v1, v2): x, (v2, v1): net.vertices - x}
    return paths, cuts


def repair_three_leaves(net: Network, s_i: VertexId, side: frozenset,
                        q_terms: Sequence[VertexId], stats: SolveStats):
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
    z = fresh_id(net.vertices, "@", "rz")
    region = contract(net, {z: net.vertices - side})
    # capacity 0 forbids z's out-arcs: they belong to the backward flow
    doctored = Network(region.graph, region.terminals,
                       {a.id: 0 if a.tail == z else region.capacity[a.id]
                        for a in region.graph.arcs})
    stats.maxflow_calls += 2 if q else 1
    g = lex_max_flow(doctored, s_i, z, q)
    new_side = min_cut_source_side(doctored, g, [s_i], sinks=[z] + q).source_side
    for a in region.graph.in_arcs(z):
        if g.get(a.id, 0) != region.capacity[a.id]:
            raise ContractViolation("region flow does not saturate the cut boundary")
    forward = decompose(doctored, g, [s_i], [z] + q)
    h = {a.id: region.capacity[a.id] - g.get(a.id, 0) for a in region.graph.arcs}
    backward = decompose(region, h, [z] + q, [s_i])
    return new_side, z, region, forward, backward


def base_three_leaves(net: Network, real: RealizationTree, stats: SolveStats):
    """Star tree (two or three leaves): a free multiflow on the leaf terminals.

    Simple terminals on the same leaf merge into one representative.  A
    complex terminal that lies in a leaf's minimal cut but whose subtree
    misses that leaf is misplaced there: the free multiflow expands that
    leaf's region with the two-phase flow that expels it, so each region
    is solved once and its cut already separates correctly.
    """
    adj = real.adjacency()
    leaves = [v for v in sorted(real.vertices, key=sort_key) if len(adj[v]) == 1]
    centers = [v for v in sorted(real.vertices, key=sort_key) if len(adj[v]) > 1]
    if len(centers) != 1 or len(leaves) + 1 != len(real.vertices):
        raise ContractViolation("star base called on a non-star tree")
    center = centers[0]
    nleaf = len(leaves)

    simples: Dict[int, List] = {i: [] for i in range(nleaf)}
    complexes: List = []
    for t in net.terminals:
        sub = real.subtrees[t]
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
    groups: Dict[VertexId, List[VertexId]] = {}
    reps: List[VertexId] = []
    for i in range(nleaf):
        if not simples[i]:
            raise ContractViolation("star leaf without a simple terminal")
        bunch = sorted(simples[i], key=sort_key)
        if len(bunch) == 1:
            reps.append(bunch[0])
            continue
        m = fresh_id(merged.vertices, "@", "m")
        merged = contract(merged, {m: bunch})
        groups[m] = bunch
        reps.append(m)

    free_net = Network(merged.graph, tuple(reps), merged.capacity)
    cuts = _minimal_terminal_cuts(free_net, stats)
    # complex terminals trapped in a leaf's cut whose subtree misses that leaf
    misplaced = {}
    for i in range(nleaf):
        q = [t for t in complexes if t in cuts[reps[i]] and leaves[i] not in real.subtrees[t]]
        if q:
            misplaced[reps[i]] = sorted(q, key=sort_key)
    paths, sides = _free_imf_paths(free_net, cuts, misplaced, stats)

    def widen(side: frozenset) -> frozenset:
        out = set()
        for v in side:
            out.update(groups.get(v, [v]))
        return frozenset(out)

    # undo the merge: endpoints are read off the original arc endpoints
    by_id = net.graph.arcs_by_id()
    paths = [TerminalPath(by_id[p.arcs[0]].tail, by_id[p.arcs[-1]].head, p.arcs, p.weight)
             for p in paths]
    cuts_out: CutMap = {}
    for i in range(nleaf):
        side = widen(sides[reps[i]])
        cuts_out[(leaves[i], center)] = side
        cuts_out[(center, leaves[i])] = net.vertices - side
    return paths, cuts_out


# -- partition step ----------------------------------------------------------


def aggregate(net: Network, paths1: List[TerminalPath], paths2: List[TerminalPath],
              x1: frozenset, x2: frozenset, z2: VertexId, z1: VertexId) -> List[TerminalPath]:
    """Glue two child solutions across a saturated partition cut.

    Child 1 lives on x1 plus z2 (x2 contracted), child 2 on x2 plus z1.
    Paths inside one side carry over.  A child-1 path into z2 ends with
    an arc from x1 to x2 that child-2 paths out of z1 start with, and
    _join_on_arc joins them on it; backward, child-2 paths into z1 join
    child-1 paths out of z2.  The two halves of a joined path lie on
    disjoint sides, so it is simple and crosses every lifted child cut as
    often as its half did.  Each boundary arc must carry its capacity.
    """
    out_ids, in_ids = boundary(net, x1)
    crossing = out_ids | in_ids
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

    for z, ids, direction in ((z2, out_ids, "forward"), (z1, in_ids, "backward")):
        load = dict.fromkeys(ids, 0)
        for p in into[z]:
            load[p.arcs[-1]] += p.weight
        if any(load[aid] != net.capacity[aid] for aid in ids):
            raise ContractViolation(f"partition boundary not saturated {direction}")

    return (internal + _join_on_arc(into[z2], out_of[z1])
            + _join_on_arc(into[z1], out_of[z2]))


def partition_step(net: Network, real: RealizationTree, edge, stats: SolveStats, depth: int):
    """Split at a balanced tree edge along a minimum terminal-group cut."""
    v1, v2 = edge
    side1 = real.component_without_edge(v1, v2)
    side2 = real.vertices - side1
    s1_group = [t for t in net.terminals if real.subtrees[t] <= side1]
    s2_group = [t for t in net.terminals if real.subtrees[t] <= side2]
    if not s1_group or not s2_group:
        raise ContractViolation("partition with an empty terminal group")

    stats.maxflow_calls += 1
    f, _val = max_flow(net, s1_group, s2_group)
    x1 = min_cut_source_side(net, f, s1_group, sinks=s2_group).source_side
    x2 = net.vertices - x1

    z2 = fresh_id(net.vertices, "@", "cut")
    z1 = fresh_id(net.vertices | {z2}, "@", "cut")

    net1 = contract(net, {z2: x2})
    net2 = contract(net, {z1: x1})
    real1 = _contract_real(real, side1, v2, [t for t in net.terminals if t in x1], z2)
    real2 = _contract_real(real, side2, v1, [t for t in net.terminals if t in x2], z1)

    paths1, cuts1 = _solve_rec(net1, real1, stats, depth + 1)
    paths2, cuts2 = _solve_rec(net2, real2, stats, depth + 1)

    paths = aggregate(net, paths1, paths2, x1, x2, z2, z1)

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


def _contract_real(real: RealizationTree, keep_side: frozenset, anchor,
                   kept_terminals, z) -> RealizationTree:
    """The tree on one side of a partition edge plus its far endpoint
    anchor, which realizes the contraction vertex z."""
    verts = set(keep_side) | {anchor}
    lengths = {}
    for (u, v), ell in real.arc_length.items():
        if u in verts and v in verts:
            lengths[(u, v)] = ell
    subs = {}
    for t in kept_terminals:
        sub = real.subtrees[t]
        rest = set(sub & keep_side)
        if sub - keep_side:
            rest.add(anchor)
        subs[t] = frozenset(rest)
    subs[z] = frozenset({anchor})
    return RealizationTree(frozenset(verts), lengths, subs)


# -- recursion and public entry ---------------------------------------------


def _solve_rec(net: Network, real: RealizationTree, stats: SolveStats, depth: int):
    stats.recursion_depth = max(stats.recursion_depth, depth)
    if len(real.vertices) == 1:
        return [], {}
    edge = choose_balanced_edge(real)
    if edge is not None:
        return partition_step(net, real, edge, stats, depth)
    if len(real.vertices) == 2:
        return base_two_vertices(net, real, stats)
    return base_three_leaves(net, real, stats)


def solve(net: Network, real: RealizationTree) -> SolveOutput:
    """Solve the weighted multiflow problem with an optimality certificate.

    The returned multiflow is integer and feasible; its value equals the
    distance-weighted optimum, witnessed by one saturated separating cut
    per tree arc with a nonempty pair set.
    """
    t0 = time.perf_counter()
    issue = validate_instance(net, real)
    if issue is not None:
        raise InputError(f"instance invalid at {issue.vertex!r}: {issue.reason}", code="not-eulerian")
    stats = SolveStats()

    norm_net, norm_real, record = normalize(net, real)
    paths, cuts = _solve_rec(norm_net, norm_real, stats, 0)
    paths, cert = _undo_normalization(net, real, norm_real, record, paths, cuts)

    flow = Multiflow.from_paths(net, paths)
    value = mu_value(real, flow, net)
    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return SolveOutput(flow, Certificate(cert), value, stats)


def _undo_normalization(net0: Network, real0: RealizationTree, norm_real: RealizationTree,
                        record: NormalizeRecord, paths: List[TerminalPath], cuts: CutMap):
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

    # side membership of the split halves, read in the normalized tree
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
