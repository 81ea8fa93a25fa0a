"""Independent brute-force reference implementations for the test suite.

Everything here works on raw (n1, n2, edge-set, category-dict) data via
literal triple sums or neighbour sets, so the values are computed along a
different path than the package's evaluators, which count with neighbour
masks; nothing here reads an evaluator.
"""

from __future__ import annotations

import math


def edge_set(net) -> set[tuple[int, int]]:
    return set(net.edges())


def nodematch_alpha(n1, n2, edges, cats, alpha, level=None, keep=None):
    """Half the ordered sum over matching mode-1 pairs of two-path counts
    raised to alpha, with 0**0 = 0."""
    total = 0.0
    for i in range(1, n1 + 1):
        for j in range(1, n1 + 1):
            if j == i or cats[j] != cats[i]:
                continue
            if level is not None and cats[i] != level:
                continue
            if keep is not None and cats[i] not in keep:
                continue
            t = sum(
                1
                for k in range(n1 + 1, n1 + n2 + 1)
                if (i, k) in edges and (j, k) in edges
            )
            if t > 0:
                total += t**alpha
    return total / 2.0


def nodematch_beta(n1, n2, edges, cats, beta, level=None, keep=None):
    """Half the sum over edges of matching-co-edge counts raised to beta,
    with 0**0 = 0."""
    total = 0.0
    for i in range(1, n1 + 1):
        for k in range(n1 + 1, n1 + n2 + 1):
            if (i, k) not in edges:
                continue
            if level is not None and cats[i] != level:
                continue
            if keep is not None and cats[i] not in keep:
                continue
            u = sum(
                1
                for j in range(1, n1 + 1)
                if j != i and cats[j] == cats[i] and (j, k) in edges
            )
            if u > 0:
                total += u**beta
    return total / 2.0


def nodematch_alpha_mode2(n1, n2, edges, cats, alpha, level=None):
    total = 0.0
    for k in range(n1 + 1, n1 + n2 + 1):
        for m in range(n1 + 1, n1 + n2 + 1):
            if m == k or cats[m] != cats[k]:
                continue
            if level is not None and cats[k] != level:
                continue
            t = sum(1 for i in range(1, n1 + 1) if (i, k) in edges and (i, m) in edges)
            if t > 0:
                total += t**alpha
    return total / 2.0


def nodematch_beta_mode2(n1, n2, edges, cats, beta, level=None):
    total = 0.0
    for i in range(1, n1 + 1):
        for k in range(n1 + 1, n1 + n2 + 1):
            if (i, k) not in edges:
                continue
            if level is not None and cats[k] != level:
                continue
            u = sum(
                1
                for m in range(n1 + 1, n1 + n2 + 1)
                if m != k and cats[m] == cats[k] and (i, m) in edges
            )
            if u > 0:
                total += u**beta
    return total / 2.0


def nodematch_change(term, cats, net, i, k):
    """The change statistic of nodematch term `term` at dyad (i, k), as
    {slot of the term: value}, from the attribute data and from neighbour
    sets built from `net.edges()`.  `cats` maps each node of the term's mode
    to its level; the slot is the level's place among the sorted kept
    levels with `diff`, else 0, and a focal node outside the kept levels
    has no slot.  The node-centric sum adds its terms in ascending node
    order, as the package does."""
    focal, shared = (i, k) if term.kind == "b1nodematch" else (k, i)
    kept = sorted(term.keep_levels or set(cats.values()))
    level = cats[focal]
    if level not in kept:
        return {}
    slot = kept.index(level) if term.diff else 0
    e = term.exponent

    def pw(t):
        return float(t) ** e if t > 0 else 0.0

    adj = {node: set() for node in range(1, net.n + 1)}
    for a, b in net.edges():
        adj[a].add(b)
        adj[b].add(a)
    same = sorted(j for j in adj[shared] if j != focal and cats[j] == level)
    if term.alpha is not None:
        total = 0.0
        for j in same:
            # two-paths between focal and j, not through the toggled shared node
            t = len((adj[focal] - {shared}) & adj[j])
            total += pw(t + 1) - pw(t)
        return {slot: total}
    u = len(same)
    return {slot: 0.5 * ((1.0 + u) * pw(u) - u * pw(u - 1))}


def node_level_change(kind, n1, i, k, values=None):
    """The change statistics of a node-level term at dyad (i, k), as
    {slot of the term: value}, read from the attribute values alone: 1 for
    `edges`, the covariate of the term's node for `b1cov` and `b2cov`, the
    indicator of the node's level with the first sorted level dropped for
    `b1factor` and `b2factor`, and the indicator of the mode-2 node for
    `b2sociality`.  `values` maps each node of the term's mode to its
    attribute value; a slot left out has change 0."""
    if kind == "edges":
        return {0: 1.0}
    if kind == "b2sociality":
        return {k - n1 - 1: 1.0}
    node = i if kind.startswith("b1") else k
    if kind in ("b1cov", "b2cov"):
        return {0: float(values[node])}
    levels = sorted(set(values.values()))
    if values[node] == levels[0]:
        return {}
    return {levels.index(values[node]) - 1: 1.0}


def toggle_change(stat, n1, n2, edges, i, k):
    """A whole-network statistic `stat(n1, n2, edges)` with edge (i, k)
    present minus without it."""
    return stat(n1, n2, edges | {(i, k)}) - stat(n1, n2, edges - {(i, k)})


def matching_two_stars(n1, n2, edges, cats):
    """Plain matching two-star count: linear homophily, both views."""
    total = 0
    for i in range(1, n1 + 1):
        for j in range(1, n1 + 1):
            if j == i or cats[j] != cats[i]:
                continue
            for k in range(n1 + 1, n1 + n2 + 1):
                if (i, k) in edges and (j, k) in edges:
                    total += 1
    assert total % 2 == 0
    return total // 2


def pairs_with_two_path(n1, n2, edges, cats):
    """Matching mode-1 pairs connected by at least one two-path."""
    count = 0
    for i in range(1, n1 + 1):
        for j in range(i + 1, n1 + 1):
            if cats[j] != cats[i]:
                continue
            if any(
                (i, k) in edges and (j, k) in edges
                for k in range(n1 + 1, n1 + n2 + 1)
            ):
                count += 1
    return count


def _mode_walk(n1, n2, mode):
    """The nodes of `mode`, the nodes of the other mode, and a function
    that puts a node of `mode` and one of the other mode in edge order."""
    mode1, mode2 = range(1, n1 + 1), range(n1 + 1, n1 + n2 + 1)
    if mode == 1:
        return mode1, mode2, lambda a, c: (a, c)
    return mode2, mode1, lambda a, c: (c, a)


def _counted(level, only, keep):
    return (only is None or level == only) and (keep is None or level in keep)


def mdsp(n1, n2, edges, cats, mode=1, level=None, keep=None):
    """{t: same-level pairs of mode-`mode` nodes with exactly t shared
    partners}, t >= 1; `level` counts one level only, `keep` a set of
    levels."""
    nodes, others, dyad = _mode_walk(n1, n2, mode)
    counts = {}
    for a in nodes:
        for b in nodes:
            if b <= a or cats[b] != cats[a] or not _counted(cats[a], level, keep):
                continue
            t = sum(1 for c in others if dyad(a, c) in edges and dyad(b, c) in edges)
            if t > 0:
                counts[t] = counts.get(t, 0) + 1
    return counts


def mesp(n1, n2, edges, cats, mode=1, level=None, keep=None):
    """{u: edges whose mode-`mode` end has exactly u same-level co-edges,
    that is other mode-`mode` partners of the edge's other end in its
    level}, u >= 1; `level` and `keep` as in `mdsp`."""
    nodes, others, dyad = _mode_walk(n1, n2, mode)
    counts = {}
    for a in nodes:
        if not _counted(cats[a], level, keep):
            continue
        for c in others:
            if dyad(a, c) not in edges:
                continue
            u = sum(1 for b in nodes if b != a and cats[b] == cats[a] and dyad(b, c) in edges)
            if u > 0:
                counts[u] = counts.get(u, 0) + 1
    return counts


def star2(n1, n2, edges):
    total = 0
    for k in range(n1 + 1, n1 + n2 + 1):
        d = sum(1 for i in range(1, n1 + 1) if (i, k) in edges)
        total += d * (d - 1) // 2
    return total


def degree1(n1, n2, edges):
    return sum(
        1
        for k in range(n1 + 1, n1 + n2 + 1)
        if sum(1 for i in range(1, n1 + 1) if (i, k) in edges) == 1
    )


def logit(p):
    return math.log(p / (1.0 - p))
