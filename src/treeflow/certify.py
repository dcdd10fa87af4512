"""Optimality certification and the independent dual-value oracle.

A certificate assigns to every tree arc with a nonempty terminal-pair
set a vertex cut that separates those pairs and is saturated by the
multiflow.  Any multiflow carrying such a family is optimal, for every
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
from .graphs import ArcId, Network, TerminalPath, boundary, sort_key
from .indexed import intern, max_flow
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
    by_id = net.graph.arcs_by_id()
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


def verify_certificate(net: Network, real: RealizationTree, flow: Iterable[TerminalPath],
                       cert: Certificate) -> Optional[CertificateViolation]:
    """None when the certificate proves optimality of the multiflow.

    Checks, in order: feasibility of the flow, then for every tree arc
    with a nonempty pair set: the cut separates the pair set, every
    positive path meets the cut boundary at most once, and the arcs
    leaving the cut are used to exactly their capacity.  The flow is a
    path packing or a Multiflow, checked as given.  A violation names
    the first offending terminal or arc in id order, or the first
    offending path in packing order.  Each cut reads only the paths on
    its boundary arcs: every arc is indexed once to the paths that use
    it, one entry per use.
    """
    paths = list(flow)
    bad = check_feasible(net, paths)
    if bad is not None:
        return CertificateViolation("infeasible", detail=bad)

    terminals = net.terminals
    uses: Dict[ArcId, List[int]] = {}
    for i, p in enumerate(paths):
        for aid in p.arcs:
            uses.setdefault(aid, []).append(i)

    for a in real.quasi_arcs():
        pi = pi_set(real, terminals, a)
        if pi.empty:
            continue
        side = cert.cuts.get(a)
        if side is None:
            return CertificateViolation("missing-cut", a)
        if not side or not (side < net.vertices):
            return CertificateViolation("separation", a, "invalid cut")
        wrong = [s for s in pi.tail_side_terminals if s not in side]
        wrong = wrong or [t for t in pi.head_side_terminals if t in side]
        if wrong:
            return CertificateViolation("separation", a, min(wrong, key=sort_key))
        out_arcs, in_arcs = boundary(net, side)
        crossings = [i for aid in chain(out_arcs, in_arcs) for i in uses.get(aid, ())]
        if len(set(crossings)) < len(crossings):
            p = paths[min(i for i, c in Counter(crossings).items() if c > 1)]
            return CertificateViolation("crossing", a, (p.source, p.target))
        unmet = [aid for aid in out_arcs
                 if sum(paths[i].weight for i in uses.get(aid, ())) != net.capacity[aid]]
        if unmet:
            return CertificateViolation("capacity", a, min(unmet, key=sort_key))
    return None


def dual_value(net: Network, real: RealizationTree) -> Fraction:
    """Sum over tree arcs of length times the minimum separating cut.

    Each arc with nonempty pair set A x B contributes its length times
    the minimum capacity of an (A, B)-cut, found by one max-flow run on
    the network, interned once for all of them.  For valid instances
    this equals the optimal distance-weighted value, which makes it the
    testing oracle for the solver.
    """
    inet = intern(net)
    num = inet.graph.ids.number
    total = Fraction(0)
    for a in real.quasi_arcs():
        ell = real.arc_length[a]
        pi = pi_set(real, net.terminals, a)
        if pi.empty or ell == 0:
            continue
        _flow, value = max_flow(inet, [num[s] for s in pi.tail_side_terminals],
                                [num[t] for t in pi.head_side_terminals])
        total += ell * value
    return total
