"""Optimality certification and the independent dual-value oracle.

A certificate assigns to one arc of every tree edge with a nonempty
terminal-pair set a vertex cut that separates those pairs and is
saturated by the multiflow; its complement does the same for the other
arc.  Any multiflow carrying such a family is optimal, for every
choice of arc lengths, so verification never looks at lengths except
through the value computation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from .errors import InputError
from .graphs import Network, TerminalPath, boundary, sort_key
from .indexed import intern, max_flow
from .realization import RealizationTree, TreeArc, mu, pi_set


@dataclass(frozen=True)
class Certificate:
    """Per tree edge, the source side of a saturated separating cut under
    the arc whose tail side it is; the other arc's cut is its complement."""

    cuts: Dict[TreeArc, frozenset]


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
    g = net.graph.index
    number, vertex_number, tail, head = g.ids.arc_number, g.ids.number, g.tail, g.head
    terminals = set(net.terminals)
    totals: Dict[int, int] = {}  # by arc position
    for p in flow:
        if (p.source == p.target or p.source not in terminals or p.target not in terminals
                or not p.arcs or not isinstance(p.weight, int) or isinstance(p.weight, bool)
                or p.weight <= 0):
            return p
        prev = None
        for aid in p.arcs:
            k = number.get(aid)
            if k is None or (prev is not None and tail[k] != prev):
                return aid
            prev = head[k]
            totals[k] = totals.get(k, 0) + p.weight
        if tail[number[p.arcs[0]]] != vertex_number[p.source] or prev != vertex_number[p.target]:
            return p
    cap = net.cap
    return next((g.ids.arc_ids[k] for k, w in totals.items() if w > cap[k]), None)


def verify_certificate(net: Network, real: RealizationTree, flow: Iterable[TerminalPath],
                       cert: Certificate) -> Optional[CertificateViolation]:
    """None when the certificate proves optimality of the multiflow.

    Checks, in order: feasibility of the flow, then for every tree arc
    with a nonempty pair set and a cut of its own: the cut separates the
    pair set, every positive path meets the cut boundary at most once,
    and the arcs leaving the cut are used to exactly their capacity.  An
    arc without a cut takes the complement of its reverse arc's cut, whose
    entering arcs must then be used to exactly their capacity.  The flow
    is a path packing or a Multiflow, checked as given.  A violation names
    the first offending terminal or arc in id order, or the first
    offending path in packing order.  Each cut reads only the paths on
    its boundary arcs: every arc position is indexed once to the paths
    that use it, one entry per use, and to its load, their total weight.
    """
    paths = list(flow)
    bad = check_feasible(net, paths)
    if bad is not None:
        return CertificateViolation("infeasible", detail=bad)

    number, arc_ids, cap = net.graph.index.ids.arc_number, net.graph.index.ids.arc_ids, net.cap
    uses: Dict[int, List[int]] = {}
    load: Dict[int, int] = {}
    for i, p in enumerate(paths):
        for aid in p.arcs:
            k = number[aid]
            uses.setdefault(k, []).append(i)
            load[k] = load.get(k, 0) + p.weight

    for a in real.quasi_arcs():
        pi = pi_set(real, net.terminals, a)
        if pi.empty:
            continue
        side = cert.cuts.get(a)
        reverse = (a[1], a[0])
        if side is None:
            if reverse in cert.cuts:
                continue  # checked as the complement of the reverse arc's cut
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
        checks = [(out_arcs, a)] if reverse in cert.cuts else [(out_arcs, a), (in_arcs, reverse)]
        for arcs, arc in checks:
            unmet = [arc_ids[k] for k in arcs if load.get(k, 0) != cap[k]]
            if unmet:
                return CertificateViolation("capacity", arc, min(unmet, key=sort_key))
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
    the network, numbered once for all of them.  For valid instances
    this equals the optimal distance-weighted value, which makes it the
    testing oracle for the solver.
    """
    inet = intern(net)
    num = inet.graph.ids.number
    total = Fraction(0)
    for a, ell in real.arc_length.items():
        pi = pi_set(real, net.terminals, a)
        if pi.empty or ell == 0:
            continue
        _flow, value = max_flow(inet, [num[s] for s in pi.tail_side_terminals],
                                [num[t] for t in pi.head_side_terminals])
        total += ell * value
    return total
