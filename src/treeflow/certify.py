"""Optimality certification and the independent dual-value oracle.

A certificate assigns to every tree arc with a nonempty terminal-pair
set a vertex cut that separates those pairs and is saturated by the
multiflow.  Any multiflow carrying such a family is optimal, for every
choice of arc lengths, so verification never looks at lengths except
through the value computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Union

from .errors import InputError
from .flows import max_flow
from .graphs import ArcId, Network, boundary, sort_key
from .multiflow import Multiflow, TerminalPath
from .realization import RealizationTree, TreeArc, mu, pi_set


@dataclass(frozen=True)
class Certificate:
    """Per tree arc, the source side of a saturated separating cut."""

    cuts: Dict[TreeArc, frozenset]


@dataclass(frozen=True)
class CertificateViolation:
    kind: str  # "infeasible" | "missing-cut" | "separation" | "crossing" | "capacity"
    tree_arc: Optional[TreeArc] = None
    detail: Optional[Hashable] = None

    def __str__(self):
        where = f" at tree arc {self.tree_arc!r}" if self.tree_arc else ""
        extra = f" ({self.detail!r})" if self.detail is not None else ""
        return f"{self.kind}{where}{extra}"


def mu_value(real: RealizationTree, flow: Union[Multiflow, List[TerminalPath]],
             net: Optional[Network] = None) -> Fraction:
    """Total distance-weighted value of a multiflow or path packing."""
    total = Fraction(0)
    if isinstance(flow, Multiflow):
        if net is None:
            raise InputError("component form needs the network for values", code="invalid-input")
        for pair in flow.pairs():
            s, t = pair
            if s not in real.subtrees or t not in real.subtrees:
                raise InputError(f"terminal pair {pair!r} has no subtree", code="dangling-reference")
            v = flow.component_value(net, pair)
            if v:
                total += mu(real, s, t) * v
        return total
    for p in flow:
        if p.source not in real.subtrees or p.target not in real.subtrees:
            raise InputError(f"path endpoint without subtree: {p.source!r}->{p.target!r}",
                             code="dangling-reference")
        total += mu(real, p.source, p.target) * p.weight
    return total


def check_feasible(net: Network, flow: Union[Multiflow, List[TerminalPath]]):
    """None when the flow is feasible, else what violates it.

    A component-form flow must have nonnegative int arc values that
    respect capacities, and each component may have positive divergence
    only at its source and negative only at its target; the violating
    arc id is returned.  A path packing must consist of walks with a
    positive integer weight between two distinct terminals: a path with
    bad endpoints or weight, or whose arcs do not run from its source to
    its target, is returned; otherwise the id of the first arc that is
    unknown, does not continue its walk, or is loaded beyond its capacity.
    """
    by_id = net.graph.arcs_by_id()
    if isinstance(flow, Multiflow):
        for pair in flow.pairs():
            for aid, w in flow.components[pair].items():
                if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                    return aid
        totals = flow.total_arc_flow()
        for aid, w in sorted(totals.items(), key=lambda kv: sort_key(kv[0])):
            if aid not in by_id or w > net.capacity[aid]:
                return aid
        for pair in flow.pairs():
            s, t = pair
            f = flow.components[pair]
            div: Dict[Hashable, int] = {}
            for aid, w in f.items():
                if w:
                    a = by_id[aid]
                    div[a.tail] = div.get(a.tail, 0) + w
                    div[a.head] = div.get(a.head, 0) - w
            for v, d in div.items():
                if d > 0 and v != s:
                    return next(iter(f))
                if d < 0 and v != t:
                    return next(iter(f))
        return None
    terminals = set(net.terminals)
    totals: Dict[ArcId, int] = {}
    for p in flow:
        if (p.source == p.target or p.source not in terminals or p.target not in terminals
                or not p.arcs or not isinstance(p.weight, int) or isinstance(p.weight, bool)
                or p.weight <= 0):
            return p
        prev = None
        for aid in p.arcs:
            a = by_id.get(aid)
            if a is None or (prev is not None and a.tail != prev):
                return aid
            prev = a.head
            totals[aid] = totals.get(aid, 0) + p.weight
        if by_id[p.arcs[0]].tail != p.source or prev != p.target:
            return p
    for aid, w in totals.items():
        if w > net.capacity[aid]:
            return aid
    return None


def verify_certificate(net: Network, real: RealizationTree,
                       flow: Union[Multiflow, List[TerminalPath]],
                       cert: Certificate) -> Optional[CertificateViolation]:
    """None when the certificate proves optimality of the multiflow.

    Checks, in order: feasibility of the flow, then for every tree arc
    with a nonempty pair set: the cut separates the pair set, every
    positive path meets the cut boundary at most once, and the arcs
    leaving the cut are used to exactly their capacity.  Component form
    is converted to paths with the deterministic peeling; a path packing
    is checked as given.
    """
    bad = check_feasible(net, flow)
    if bad is not None:
        return CertificateViolation("infeasible", detail=bad)

    paths = flow.to_paths(net) if isinstance(flow, Multiflow) else flow
    terminals = net.terminals

    for a in real.quasi_arcs():
        pi = pi_set(real, terminals, a)
        if pi.empty:
            continue
        side = cert.cuts.get(a)
        if side is None:
            return CertificateViolation("missing-cut", a)
        if not side or not (side < net.vertices):
            return CertificateViolation("separation", a, "invalid cut")
        for s in sorted(pi.tail_side_terminals, key=sort_key):
            if s not in side:
                return CertificateViolation("separation", a, s)
        for t in sorted(pi.head_side_terminals, key=sort_key):
            if t in side:
                return CertificateViolation("separation", a, t)
        out_arcs, in_arcs = boundary(net, side)
        used = {aid: 0 for aid in out_arcs}
        for p in paths:
            crossings = 0
            for aid in p.arcs:
                if aid in out_arcs:
                    crossings += 1
                    used[aid] += p.weight
                elif aid in in_arcs:
                    crossings += 1
            if crossings > 1:
                return CertificateViolation("crossing", a, (p.source, p.target))
        for aid in sorted(out_arcs, key=sort_key):
            if used[aid] != net.capacity[aid]:
                return CertificateViolation("capacity", a, aid)
    return None


def dual_value(net: Network, real: RealizationTree) -> Fraction:
    """Sum over tree arcs of length times the minimum separating cut.

    Each arc with nonempty pair set A x B contributes its length times
    the minimum capacity of an (A, B)-cut, found by one max-flow run.
    For valid instances this equals the optimal distance-weighted value,
    which makes it the testing oracle for the solver.
    """
    total = Fraction(0)
    for a in real.quasi_arcs():
        ell = real.arc_length[a]
        pi = pi_set(real, net.terminals, a)
        if pi.empty or ell == 0:
            continue
        sources = sorted(pi.tail_side_terminals, key=sort_key)
        sinks = sorted(pi.head_side_terminals, key=sort_key)
        _flow, value = max_flow(net, sources, sinks)
        total += ell * value
    return total
