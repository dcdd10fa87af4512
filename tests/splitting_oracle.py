"""The splitting fallback as it was before split amounts came from one
trial: each pair's full amount is checked with 2k max flows and, when it
fails, the admissible amount is found by binary search.  Slow, but every
step checks exactly the condition it relies on, so the tests keep it as
an exact oracle for solver._core_by_splitting.
"""

from typing import Dict, Sequence, Tuple

from treeflow.errors import ContractViolation
from treeflow.indexed import IntGraph, IntNetwork, max_flow
from treeflow.solver import SolveStats


def core_by_splitting(net: IntNetwork, terms: Sequence[int], stats: SolveStats):
    """Exact but slow core solver: split capacity through inner vertices.

    Repeatedly replaces an in/out capacity pair at an inner vertex by a
    direct bypass arc, committing the largest amount that keeps every
    per-terminal minimum cut at its target in both directions.  Once no
    inner vertex carries capacity, every arc runs between two terminals
    and expands back into a walk of original arcs.

    Arcs are keyed by their position in the core, bypasses by the next
    keys.  Core arcs are tried in id order and each bypass after all of
    them, in the order it was made; the trial networks list their arcs
    in that order too.
    """
    g = net.graph
    ids = g.ids
    tset = set(terms)
    m = len(net.cap)
    tails = list(g.tail)
    heads = list(g.head)
    cap = list(net.cap)
    arc_rank = ids.rank_arcs()
    prov: Dict[int, Tuple[int, int]] = {}
    order = sorted(range(m), key=lambda i: arc_rank[g.arcs[i]])  # core arcs, then bypasses
    out_target = {t: sum(cap[i] for i in range(m) if tails[i] == t) for t in terms}
    in_target = {t: sum(cap[i] for i in range(m) if heads[i] == t) for t in terms}

    def snapshot_net(extra=None):
        arcs = [i for i in order if cap[i] > 0]
        tail = [tails[i] for i in arcs]
        head = [heads[i] for i in arcs]
        caps = [cap[i] for i in arcs]
        if extra is not None:
            u, w, gamma = extra
            if u != w and gamma > 0:
                arcs.append(len(tails))  # the trial split: a key no arc has yet
                tail.append(u)
                head.append(w)
                caps.append(gamma)
        return IntNetwork(IntGraph(ids, g.vertices, arcs, tail, head), tuple(terms), caps)

    def feasible(a_id, b_id, gamma) -> bool:
        if gamma == 0:
            return True
        u, w = tails[a_id], heads[b_id]
        cap[a_id] -= gamma
        cap[b_id] -= gamma
        trial = snapshot_net((u, w, gamma))
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
        for v in sorted(g.vertices):
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
                                nid = len(tails)
                                tails.append(u)
                                heads.append(w)
                                cap.append(best)
                                prov[nid] = (a_id, b_id)
                                order.append(nid)
                            committed = True
                            progress = True
                            break
                    if committed:
                        break
                if not committed:
                    raise ContractViolation("no admissible capacity split at an inner vertex")

    index = {t: i for i, t in enumerate(terms)}
    flow: Dict[Tuple[int, int], Dict[int, int]] = {}
    memo: Dict[int, Dict[int, int]] = {}
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


def _expand_arc(aid, prov, memo) -> Dict[int, int]:
    """Arc multiset of original arcs behind a (possibly split) arc key."""
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
