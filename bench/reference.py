"""The benchmark's own graph inputs and an independent reference.

Nothing here imports ``wiener_unicyclic``: the graphs for the
``wiener-stream`` workload are generated, graph6-encoded and measured
with plain adjacency lists and breadth-first search, so a fault in the
package's bitmask graphs, BFS or graph6 codec cannot hide itself.
"""

from __future__ import annotations

import random
from collections import deque


def random_graph(rng: random.Random, kind: str, n_min: int, n_max: int) -> tuple[int, list]:
    """A connected graph as ``(n, edges)``, with shuffled labels.

    ``kind`` is ``tree``, ``unicyclic`` (a tree plus one edge) or
    ``dense`` (a tree plus several edges, at least one of them closing
    an odd cycle, so the graph is never bipartite).
    """
    n = rng.randint(n_min, n_max)
    label = list(range(n))
    rng.shuffle(label)
    parent = [-1] + [rng.randrange(v) for v in range(1, n)]
    edges = {(min(label[v], label[parent[v]]), max(label[v], label[parent[v]])) for v in range(1, n)}
    depth = [0] * n
    for v in range(1, n):
        depth[v] = depth[parent[v]] + 1
    color = [0] * n
    for v in range(n):
        color[label[v]] = depth[v] & 1
    extra = {"tree": 0, "unicyclic": 1, "dense": rng.randint(n // 2, 2 * n)}[kind]
    if kind == "dense":
        # two vertices of the larger colour class: closes an odd cycle
        ones = [v for v in range(n) if color[v]]
        zeros = [v for v in range(n) if not color[v]]
        a, b = sorted(rng.sample(max(ones, zeros, key=len), 2))
        edges.add((a, b))
    while len(edges) < n - 1 + extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


def graph6_line(n: int, edges: list) -> str:
    """graph6 encoding (n <= 64), written without the package's codec."""
    head = [n] if n <= 62 else [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    # upper triangle in column order, (0,1), (0,2), (1,2), (0,3), ...; first bit highest
    width = n * (n - 1) // 2
    width += -width % 6
    stream = 0
    for i, j in edges:
        stream |= 1 << (width - 1 - (j * (j - 1) // 2 + i))
    body = [stream >> shift & 63 for shift in range(width - 6, -1, -6)]
    return "".join(chr(63 + x) for x in head + body)


def expected_record(line: int, n: int, edges: list) -> dict:
    """What ``wiener --format json`` must print for this graph."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    trans = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if min(dist) < 0:
            raise ValueError("reference graph is disconnected")
        trans.append(sum(dist))
    color = [-1] * n
    color[0] = 0
    queue = deque([0])
    bipartite = True
    while queue:
        u = queue.popleft()
        for w in nbrs[u]:
            if color[w] < 0:
                color[w] = 1 - color[u]
                queue.append(w)
            elif color[w] == color[u]:
                bipartite = False
    p = q = None
    if bipartite:
        ones = sum(color)
        p, q = sorted((n - ones, ones))
    return {
        "line": line,
        "n": n,
        "edges": len(edges),
        "wiener": sum(trans) // 2,
        "t_min": min(trans),
        "t_max": max(trans),
        "p": p,
        "q": q,
    }
