"""Integer multiflows kept as per-(source, target) flow components.

The solver sums its weighted paths into components once, at the end;
to_paths turns them back into an explicit weighted path packing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Tuple

from .flows import decompose
from .graphs import ArcId, Network, TerminalPath, divergence, sort_key


@dataclass(frozen=True)
class Multiflow:
    """Map from ordered terminal pairs to integer flow functions."""

    components: Dict[Tuple[Hashable, Hashable], Dict[ArcId, int]] = field(default_factory=dict)

    @staticmethod
    def from_paths(net: Network, paths: Iterable[TerminalPath]) -> "Multiflow":
        """Sum weighted paths into components, keyed by the tail of each
        path's first arc and the head of its last."""
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
            if any(f.values()):
                out.extend(decompose(net, f, [s], [t]))
        return out
