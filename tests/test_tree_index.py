"""The rooted tree index against the walks it replaced (reference_tree.py),
over path, caterpillar, spider and random trees of 2 to 40 vertices with
lengths 0, integers and fractions, and subtrees from one vertex up to
the whole tree."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tree as ref
from builders import tree_parents
from treeflow import (ContractViolation, InputError, RealizationTree, choose_balanced_edge, classify_terminal,
                      mu, pi_set, tree_distance)

LENGTHS = [0, 0, 1, 3, Fraction(1, 2), Fraction(7, 3)]


def _subtree(rng, adj, n):
    """A connected vertex set grown from a random vertex, of 1 to n vertices."""
    grown = [rng.randrange(n)]
    size = rng.choice([1, rng.randint(1, n), n])
    while len(grown) < size:
        frontier = sorted({w for v in grown for w in adj[v]} - set(grown))
        grown.append(rng.choice(frontier))
    return grown


@st.composite
def trees(draw):
    """(vertices, edges, subtrees, adj by position) of a valid tree whose
    vertex ids are shuffled, so the root, the lowest id, falls anywhere."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(2, 40))
    parent = tree_parents(rng, draw(st.sampled_from(["path", "caterpillar", "spider", "random"])), n)
    names = [f"v{i}" for i in rng.sample(range(n), n)]
    adj = {i: set() for i in range(n)}
    edges = []
    for i in range(1, n):
        adj[i].add(parent[i])
        adj[parent[i]].add(i)
        u, v = (names[i], names[parent[i]]) if rng.random() < 0.5 else (names[parent[i]], names[i])
        edges.append((u, v, rng.choice(LENGTHS), rng.choice(LENGTHS)))
    subtrees = {f"t{k}": [names[x] for x in _subtree(rng, adj, n)] for k in range(rng.randint(1, 6))}
    return names, edges, subtrees, adj


@settings(max_examples=120, deadline=None)
@given(trees())
def test_tree_queries_match_the_walks(case):
    names, edges, subtrees, _adj = case
    real = RealizationTree.build(names, edges, subtrees)
    terms = sorted(subtrees)
    for s in terms:
        assert classify_terminal(real, s) == ref.classify_terminal(real, s)
        for t in terms:
            assert mu(real, s, t) == ref.mu(real, s, t)
    for x in names[:8]:
        for y in names:
            assert tree_distance(real, x, y) == ref.tree_distance(real, x, y)
    table = ref.sides(real)
    tree = real._int
    num = real._ids.number
    for a in real.arc_length:
        assert real.component_without_edge(*a) == table[a]
        pi = pi_set(real, terms, a)
        tail, head = ref.pi_set(real, terms, a, table)
        assert (pi.tail_side_terminals, pi.head_side_terminals) == (tail, head)
        # the counted cut-edge table, keyed by the edge's end below the other
        assert (tree.index.lower(num[a[0]], num[a[1]]) in tree.separating) == bool(tail and head)
    assert _outcome(choose_balanced_edge, real) == _outcome(ref.choose_balanced_edge, real)


def _outcome(choose, real):
    """The edge chosen, or the InputError code, or the ContractViolation."""
    try:
        return choose(real)
    except InputError as e:
        return e.code
    except ContractViolation:
        return ContractViolation


@settings(max_examples=120, deadline=None)
@given(trees(), st.data())
def test_single_fault_trees_raise_the_reference_code(case, data):
    names, edges, subtrees, adj = case
    rng = data.draw(st.randoms(use_true_random=False))
    fault = data.draw(st.sampled_from(["non-tree", "empty", "dangling", "disconnected"]))
    subtrees = dict(subtrees)
    t = rng.choice(sorted(subtrees))
    n = len(names)
    far = [(x, y) for x in range(n) for y in range(x + 1, n) if y not in adj[x]]
    if fault == "non-tree" and far:
        # n - 1 edges again: a tree only where the new edge rejoins the two
        # parts the dropped one leaves, else a cycle and a part cut off
        x, y = rng.choice(far)
        drop = rng.randrange(len(edges))
        edges = edges[:drop] + edges[drop + 1:] + [(names[x], names[y], 1, 1)]
    elif fault == "empty":
        subtrees[t] = []
    elif fault == "dangling":
        subtrees[t] = subtrees[t] + ["nowhere"]
    elif fault == "disconnected" and far:
        x, y = rng.choice(far)
        subtrees[t] = [names[x], names[y]]
    expected = ref.fault_code(names, edges, subtrees)
    assert ref.error_code(lambda: RealizationTree.build(names, edges, subtrees)) == expected


@pytest.mark.parametrize("vertices, edges, subtrees", [
    ([], [], {}),
    ([], [], {"t": []}),
    (["v"], [], {}),
    (["v"], [], {"t": ["v"]}),
    (["v"], [], {"t": []}),
    (["v"], [], {"t": ["v", "nowhere"]}),
    (["v", "w"], [], {"t": ["v"]}),
])
def test_trees_of_at_most_one_vertex_raise_the_reference_code(vertices, edges, subtrees):
    # the hypothesis strategy draws two vertices or more; an empty tree is
    # no tree and is rejected before any subtree is read
    expected = ref.fault_code(vertices, edges, subtrees)
    assert ref.error_code(lambda: RealizationTree.build(vertices, edges, subtrees)) == expected
