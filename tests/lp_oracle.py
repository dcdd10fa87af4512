"""An optimum oracle that needs neither the min-max theorem nor the flow kernel.

The linear relaxation of the weighted multiflow problem, solved by
HiGHS: one commodity per ordered terminal pair (s, t) with mu(s, t) > 0,
one flow variable per commodity and arc, conservation at every vertex
except the pair's two ends (paths may pass through other terminals),
and shared arc capacities.  The objective is the sum of mu(s, t) times
the net outflow of commodity (s, t) at s.

The problem has an integer optimum, so the solver's value must equal the
LP optimum.  Every value is a multiple of 1/D, D the lcm of the length
denominators, so the float optimum is rounded to the nearest such
multiple; the rounding must move it by less than 1e-6 of its size, and
that band must be narrower than half a step, so a value off by 1/D
cannot pass.

Distances come from this module's own walk of the tree.  Nothing here
imports treeflow.solver, treeflow.indexed, treeflow.flows or
treeflow.certify, and a missing scipy fails the import.
"""

from fractions import Fraction
from math import lcm

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

RELATIVE_TOLERANCE = 1e-6


def tree_distances(real):
    """Directed distance between every two tree vertices, one walk per start."""
    adj = {v: [] for v in real.vertices}
    for (u, v) in real.arc_length:
        adj[u].append(v)
    dist = {}
    for x in real.vertices:
        row = {x: Fraction(0)}
        stack = [x]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in row:
                    row[w] = row[u] + real.arc_length[(u, w)]
                    stack.append(w)
        dist[x] = row
    return dist


def pair_distances(real, terminals):
    """mu(s, t) of every ordered pair of distinct terminals."""
    dist = tree_distances(real)
    return {(s, t): min(dist[x][y] for x in real.subtrees[s] for y in real.subtrees[t])
            for s in terminals for t in terminals if s != t}


def lp_optimum(net, real) -> Fraction:
    """The LP optimum as an exact multiple of 1/D."""
    mu = {pair: d for pair, d in pair_distances(real, net.terminals).items() if d > 0}
    arcs = list(net.graph.arcs)
    m = len(arcs)
    if not mu or not m:
        return Fraction(0)
    rows, cols, vals = [], [], []
    b_eq = []
    objective = np.zeros(len(mu) * m)
    for k, ((s, t), d) in enumerate(mu.items()):
        index = {}
        for j, a in enumerate(arcs):
            col = k * m + j
            if a.tail == s:
                objective[col] -= float(d)  # linprog minimizes
            if a.head == s:
                objective[col] += float(d)
            for v, sign in ((a.tail, -1.0), (a.head, 1.0)):
                if v != s and v != t:
                    row = index.setdefault(v, len(b_eq) + len(index))
                    rows.append(row)
                    cols.append(col)
                    vals.append(sign)
        b_eq += [0.0] * len(index)
    a_eq = coo_matrix((vals, (rows, cols)), shape=(len(b_eq), len(mu) * m)).tocsr()
    a_ub = coo_matrix((np.ones(len(mu) * m),
                       (np.tile(np.arange(m), len(mu)), np.arange(len(mu) * m))),
                      shape=(m, len(mu) * m)).tocsr()
    b_ub = [float(net.capacity[a.id]) for a in arcs]
    res = linprog(objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq if b_eq else None,
                  b_eq=b_eq or None, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    optimum = -res.fun
    denominator = lcm(*(ell.denominator for ell in real.arc_length.values()))
    rounded = Fraction(round(optimum * denominator), denominator)
    band = RELATIVE_TOLERANCE * max(1.0, abs(optimum))
    assert band < 0.5 / denominator, "the tolerance band is wider than half a step of 1/D"
    assert abs(optimum - float(rounded)) < band, (optimum, rounded)
    return rounded


def assert_lp_optimal(net, real, value) -> None:
    """The value equals the LP optimum exactly."""
    optimum = lp_optimum(net, real)
    assert value == optimum, f"value {value} differs from the LP optimum {optimum}"
