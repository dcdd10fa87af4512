"""Integer multiflows as weighted path packings.

A multiflow is a packing of weighted TerminalPaths, each from one
terminal to another, as the paper defines it: flows F(P) on paths.  The
solver returns the packing its recursion glued, without summing it into
arc functions, and iterating a Multiflow yields its paths, so every
function that takes a packing takes a Multiflow too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

# kept for bench/pipeline.py LAYERS, which wraps decompose under this module's name
from .flows import decompose  # noqa: F401
from .graphs import Network, TerminalPath, sort_key


@dataclass(frozen=True)
class Multiflow:
    """A weighted packing of paths between distinct terminals."""

    paths: Tuple[TerminalPath, ...] = ()

    def __iter__(self) -> Iterator[TerminalPath]:
        return iter(self.paths)

    def pairs(self):
        """The (source, target) pairs of the paths, in id order."""
        return sorted({(p.source, p.target) for p in self.paths},
                      key=lambda st: (sort_key(st[0]), sort_key(st[1])))

    def component_value(self, net: Network, pair) -> int:
        """Total weight of the paths from pair[0] to pair[1]."""
        return sum(p.weight for p in self.paths if (p.source, p.target) == pair)

    def to_paths(self, net: Network) -> List[TerminalPath]:
        """The packing as a list of paths."""
        return list(self.paths)
