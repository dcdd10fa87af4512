"""Integer multiflows kept as per-(source, target) flow components.

The solver works in component form throughout and converts to an
explicit weighted path packing once at the end; both forms live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Tuple

from .flows import PathFlow, decompose
from .graphs import ArcId, Network, divergence, sort_key


@dataclass(frozen=True)
class TerminalPath:
    """A weighted simple directed path between two distinct terminals."""

    source: Hashable
    target: Hashable
    arcs: Tuple[ArcId, ...]
    weight: int


@dataclass(frozen=True)
class Multiflow:
    """Map from ordered terminal pairs to integer flow functions."""

    components: Dict[Tuple[Hashable, Hashable], Dict[ArcId, int]] = field(default_factory=dict)

    @staticmethod
    def from_paths(net: Network, paths: Iterable[PathFlow]) -> "Multiflow":
        """Sum weighted paths (PathFlow or TerminalPath) into components,
        keyed by the tail of each path's first arc and the head of its last."""
        by_id = net.graph.arcs_by_id()
        comps: Dict[Tuple[Hashable, Hashable], Dict[ArcId, int]] = {}
        for p in paths:
            f = comps.setdefault((by_id[p.arcs[0]].tail, by_id[p.arcs[-1]].head), {})
            for aid in p.arcs:
                f[aid] = f.get(aid, 0) + p.weight
        return Multiflow(comps)

    def pairs(self):
        return sorted(self.components, key=lambda st: (sort_key(st[0]), sort_key(st[1])))

    def component_value(self, net: Network, pair) -> int:
        """Net outflow of the pair's component at its source."""
        return divergence(net, self.components[pair], pair[0])

    def total_arc_flow(self) -> Dict[ArcId, int]:
        out: Dict[ArcId, int] = {}
        for f in self.components.values():
            for aid, w in f.items():
                if w:
                    out[aid] = out.get(aid, 0) + w
        return out

    def to_paths(self, net: Network) -> List[TerminalPath]:
        """Deterministic conversion to a weighted path packing."""
        out: List[TerminalPath] = []
        for (s, t) in self.pairs():
            f = self.components[(s, t)]
            if not any(f.values()):
                continue
            for p in decompose(net, f, [s], [t]):
                out.append(TerminalPath(s, t, p.arcs, p.weight))
        return out
