"""Independent brute-force reference implementations for the test suite.

Everything here works on raw (n1, n2, edge-set, category-dict) data via
literal triple sums, so the values are computed along a different path
than the package's evaluators.  The one exception, `nodematch_delta_into`,
reads a nodematch evaluator's tables but counts with neighbour sets where
the package counts with neighbour masks.
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


def nodematch_delta_into(ev, net, i, k, out):
    """The change statistic of nodematch evaluator `ev` at dyad (i, k),
    written into its slot of `out`, from set intersections and set loops
    over `net.adj` in the order the package visits neighbours."""
    focal, shared = (i, k) if ev.mode == 1 else (k, i)
    group = ev.group
    cf = group[focal]
    if cf < 0:
        return
    slot = ev.slot_of_code[cf]
    adj = net.adj
    if ev.node_centric:
        nf = adj[focal]
        has_edge = shared in nf
        total = 0.0
        for j in adj[shared]:
            if j != focal and group[j] == cf:
                # two-paths not through the toggled shared node
                total += ev.dpw[len(nf & adj[j]) - has_edge]
        out[ev.offset + slot] = total
        return
    u = 0
    for j in adj[shared]:
        if j != focal and group[j] == cf:
            u += 1
    pw = ev.pw
    out[ev.offset + slot] = 0.5 * ((1.0 + u) * pw[u] - u * pw[u - 1])


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
