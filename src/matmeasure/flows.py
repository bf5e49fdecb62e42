"""Maximum flow on small bipartite transport networks.

Used to decide how much probability mass can be coupled between two discrete
measures when only selected atom pairs may be matched.  Capacities are plain
floats; the networks here have at most a few dozen nodes, so a compact Dinic
implementation is enough.
"""

from __future__ import annotations

import numpy as np

# Residual capacities at or below this are treated as exhausted.
CAP_EPS = 1e-15


def bipartite_max_flow(supply: np.ndarray, demand: np.ndarray, allowed: np.ndarray) -> float:
    """Maximum mass routable from supply atoms to demand atoms.

    Node layout: source -> supply nodes (capacity = supply weights),
    supply i -> demand j for every True entry of ``allowed`` (capacity 1,
    never binding since the total mass is 1), demand nodes -> sink
    (capacity = demand weights).  Rounding in long augmenting paths can push
    the float total past the masses, so it is clamped to both of them.
    """
    m1, m2 = len(supply), len(demand)
    n_nodes = m1 + m2 + 2
    src, snk = 0, n_nodes - 1

    to: list[int] = []
    cap: list[float] = []
    adj: list[list[int]] = [[] for _ in range(n_nodes)]

    def add_edge(u: int, v: int, c: float) -> None:
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0.0)

    for i in range(m1):
        add_edge(src, 1 + i, float(supply[i]))
    for j in range(m2):
        add_edge(1 + m1 + j, snk, float(demand[j]))
    rows, cols = np.nonzero(allowed)
    for i, j in zip(rows.tolist(), cols.tolist()):
        add_edge(1 + i, 1 + m1 + j, 1.0)

    def dfs(u: int, pushed: float, level: list[int], it: list[int]) -> float:
        if u == snk:
            return pushed
        while it[u] < len(adj[u]):
            e = adj[u][it[u]]
            v = to[e]
            if cap[e] > CAP_EPS and level[v] == level[u] + 1:
                got = dfs(v, min(pushed, cap[e]), level, it)
                if got > CAP_EPS:
                    cap[e] -= got
                    cap[e ^ 1] += got
                    return got
            it[u] += 1
        return 0.0

    flow = 0.0
    while True:
        level = [-1] * n_nodes
        level[src] = 0
        queue = [src]
        for u in queue:
            for e in adj[u]:
                v = to[e]
                if level[v] < 0 and cap[e] > CAP_EPS:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[snk] < 0:
            return min(flow, float(supply.sum()), float(demand.sum()))
        it = [0] * n_nodes
        while True:
            pushed = dfs(src, float("inf"), level, it)
            if pushed <= CAP_EPS:
                break
            flow += pushed
