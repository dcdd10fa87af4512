"""Reproducible generator for valid solver instances.

Capacities are a superposition of random directed cycles (balanced at
every vertex) and random open walks whose endpoints are always simple
terminals, so the network is Eulerian at all inner vertices and all
complex terminals by construction.  Everything is deterministic in the
seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .documents import instance_to_document
from .errors import ContractViolation, InputError
from .graphs import Digraph, Network
from .realization import RealizationTree, validate_instance

LENGTH_PALETTE = (0, 0, 1, 1, 2, 3, Fraction(1, 2), Fraction(3, 2), 5)


def random_tree(rng: random.Random, leaf_count: int):
    """A labelled tree with exactly the requested number of leaves."""
    if leaf_count < 2:
        raise InputError("a tree needs at least two leaves", code="invalid-input")
    for _attempt in range(400):
        size = leaf_count + rng.randint(0, leaf_count)
        if size < 2:
            size = 2
        names = [f"t{i}" for i in range(size)]
        edges = []
        degree = {v: 0 for v in names}
        for i in range(1, size):
            j = rng.randrange(i)
            edges.append((names[j], names[i]))
            degree[names[j]] += 1
            degree[names[i]] += 1
        leaves = [v for v in names if degree[v] == 1]
        if len(leaves) == leaf_count:
            return names, edges, leaves
    # fall back to a star, which always has the right leaf count
    names = ["t0"] + [f"t{i + 1}" for i in range(leaf_count)]
    edges = [("t0", v) for v in names[1:]]
    return names, edges, names[1:]


def random_connected_subtree(rng: random.Random, adjacency: Dict, start, size: int) -> List:
    grown = [start]
    frontier = sorted(adjacency[start])
    while len(grown) < size and frontier:
        nxt = frontier.pop(rng.randrange(len(frontier)))
        if nxt in grown:
            continue
        grown.append(nxt)
        frontier.extend(v for v in sorted(adjacency[nxt]) if v not in grown)
    return grown


def superpose_walks(rng: random.Random, vertices: Sequence, cycles: int, pairs: int,
                    simple_terminals: Sequence) -> Tuple[List[Tuple], Dict]:
    """Arc list and capacities from random closed and terminal-to-terminal walks."""
    caps: Dict[Tuple, int] = {}

    def bump(u, v):
        caps[(u, v)] = caps.get((u, v), 0) + 1

    for _ in range(cycles):
        k = rng.randint(2, min(len(vertices), 6))
        loop = rng.sample(list(vertices), k)
        for i in range(k):
            bump(loop[i], loop[(i + 1) % k])
    for _ in range(pairs):
        s, t = rng.sample(list(simple_terminals), 2)
        mid_pool = [v for v in vertices if v != s and v != t]
        hops = rng.sample(mid_pool, min(len(mid_pool), rng.randint(0, 4)))
        walk = [s] + hops + [t]
        for u, v in zip(walk, walk[1:]):
            bump(u, v)
    arcs = [(f"{u}>{v}", u, v) for (u, v) in sorted(caps)]
    capacity = {f"{u}>{v}": c for (u, v), c in caps.items()}
    return arcs, capacity


def generate_instance(seed: int, n: int, cycles: int, pairs: int, tree_leaves: int) -> dict:
    """A valid instance document, deterministic in the seed."""
    net, real = generate_network(seed, n, cycles, pairs, tree_leaves)
    return instance_to_document(net, real)


def generate_network(seed: int, n: int, cycles: int, pairs: int,
                     tree_leaves: int) -> Tuple[Network, RealizationTree]:
    if n < 2 or cycles < 0 or pairs < 0 or tree_leaves < 2:
        raise InputError(f"need n >= 2, cycles >= 0, pairs >= 0 and leaves >= 2, got {n}, {cycles}, "
                         f"{pairs} and {tree_leaves}", code="invalid-input")
    rng = random.Random(seed)

    tnames, tedges, tleaves = random_tree(rng, tree_leaves)
    adjacency: Dict = {v: set() for v in tnames}
    for u, v in tedges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    edges = [(u, v, rng.choice(LENGTH_PALETTE), rng.choice(LENGTH_PALETTE)) for u, v in tedges]

    vertices = [f"x{i}" for i in range(n)]
    n_simple = rng.randint(2, max(2, min(tree_leaves, n - 1)))
    n_complex = rng.randint(0, min(3, n - n_simple))
    terminal_vertices = rng.sample(vertices, n_simple + n_complex)
    simple_terms = terminal_vertices[:n_simple]
    complex_terms = terminal_vertices[n_simple:]

    subtrees = {}
    # simple terminals sit at leaves first, then anywhere
    spots = list(tleaves)
    rng.shuffle(spots)
    for i, s in enumerate(simple_terms):
        subtrees[s] = [spots[i]] if i < len(spots) else [rng.choice(tnames)]
    for c in complex_terms:
        start = rng.choice(tnames)
        size = rng.randint(2, max(2, len(tnames) // 2))
        subtrees[c] = random_connected_subtree(rng, adjacency, start, size)

    arcs, caps = superpose_walks(rng, vertices, cycles, pairs, simple_terms)
    net = Network(Digraph.build(vertices, arcs), tuple(simple_terms + complex_terms), caps)
    real = RealizationTree.build(tnames, edges, subtrees)
    issue = validate_instance(net, real)
    if issue is not None:
        raise ContractViolation(f"generator produced an invalid instance: {issue}")
    return net, real
