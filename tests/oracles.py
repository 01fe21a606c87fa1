"""Independent reference implementations used only by the tests.

These deliberately avoid the library's BFS/enumeration code paths:
distances come from Floyd-Warshall on a dense matrix, colourings from a
DFS two-colouring or, in the labeled-graph oracle, from the parity of
the distance in its own bitmask BFS, and the two isomorphism-class
oracles build their graphs without the library's enumerator: one from
*labeled* n-vertex n-edge graphs, one from unlabeled free trees plus one
edge. Only canonical_form is shared, since the point of those oracles is
to compare class sets. ``structural_wiener`` sums the structural Wiener
formula over every pair of cycle vertices at once, where the enumerator
adds each bead's terms as it places it. The two random-graph routes draw
through ``randrange`` and ``randint``, decode Pruefer sequences with a
heap of leaves, and pick a closing edge from the list of every non-edge;
the library's generators must return the same graphs from the same stream.
"""

from __future__ import annotations

import heapq
import itertools
import random

import networkx as nx

from wiener_unicyclic import Graph, build_path, canonical_form

INF = float("inf")


def floyd_warshall(g: Graph) -> list[list[float]]:
    n = g.n
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def wiener_via_floyd_warshall(g: Graph) -> int:
    dist = floyd_warshall(g)
    total = 0
    for i in range(g.n):
        for j in range(i + 1, g.n):
            assert dist[i][j] != INF, "disconnected graph"
            total += int(dist[i][j])
    return total


def transmission_via_floyd_warshall(g: Graph, v: int) -> int:
    dist = floyd_warshall(g)
    assert all(d != INF for d in dist[v])
    return int(sum(dist[v]))


def structural_wiener(table, ids) -> int:
    """Wiener index of the even cycle carrying ``table``'s trees ``ids`` in order.

    The leaf-time formula: with s_i, D_i and Q_i the size, depth sum and
    sum of squared non-root subtree sizes of the tree at cycle vertex i,
    W = n * sum(D_i) - sum(Q_i) + sum over i < j of s_i * s_j * d_C(i, j),
    every pair of cycle vertices summed at once.
    """
    sizes = [table.size[t] for t in ids]
    n = sum(sizes)
    total = n * sum(table.depth_sum[t] for t in ids) - sum(table.square_sum[t] for t in ids)
    length = len(sizes)
    half = length // 2
    for k in range(1, half):
        total += k * sum(sizes[i] * sizes[i - k] for i in range(length))
    return total + half * sum(sizes[i] * sizes[i + half] for i in range(half))


def heap_random_tree(rng: random.Random, n: int) -> Graph:
    """Pruefer decoding with ``randrange`` draws and a heap of leaves."""
    if n < 1:
        raise ValueError("tree needs at least one vertex")
    if n <= 2:
        return build_path(n)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    count = [0] * n
    for x in seq:
        count[x] += 1
    edges = []
    leaves = [v for v in range(n) if count[v] == 0]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        count[x] -= 1
        if count[x] == 0:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph.from_edges(n, edges)


def listed_random_connected_graph(rng: random.Random, n_min: int = 2, n_max: int = 12) -> Graph:
    """``heap_random_tree`` plus, half the time, one edge drawn from the listed non-edges."""
    n = rng.randint(n_min, n_max)
    g = heap_random_tree(rng, n)
    if n >= 3 and rng.random() < 0.5:
        non_edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if not g.adj[u] >> v & 1
        ]
        u, v = non_edges[rng.randrange(len(non_edges))]
        g = g.with_edge(u, v)
    return g


def dfs_two_coloring(g: Graph) -> tuple[set[int], set[int]] | None:
    """Proper two-colouring via iterative DFS, or None if impossible."""
    color: dict[int, int] = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w not in color:
                    color[w] = color[u] ^ 1
                    stack.append(w)
                elif color[w] == color[u]:
                    return None
    return (
        {v for v, c in color.items() if c == 0},
        {v for v, c in color.items() if c == 1},
    )


def labeled_unicyclic_bipartite_classes(n: int) -> dict[tuple[int, int], set[bytes]]:
    """Canonical-form sets from brute force over all labeled n-edge graphs.

    Every subset of n vertex pairs is scanned. One bitmask BFS from
    vertex 0 checks connectivity and colours each vertex by the parity of
    its distance from 0; the edge set is bipartite exactly when every
    edge joins the two colours. Only the survivors become a Graph, which
    is bucketed by sorted part sizes and deduplicated by canonical form.
    """
    pairs = list(itertools.combinations(range(n), 2))
    full = (1 << n) - 1
    out: dict[tuple[int, int], set[bytes]] = {}
    for combo in itertools.combinations(pairs, n):
        adj = [0] * n
        for u, v in combo:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        seen = frontier = even = 1  # even: vertices at even distance from 0
        odd_step = True
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= adj[low.bit_length() - 1]
                m ^= low
            frontier = nxt & ~seen
            seen |= frontier
            if not odd_step:
                even |= frontier
            odd_step = not odd_step
        if seen != full:
            continue
        if any((even >> u & 1) == (even >> v & 1) for u, v in combo):
            continue  # an edge inside one colour class
        a = even.bit_count()
        key = (min(a, n - a), max(a, n - a))
        out.setdefault(key, set()).add(canonical_form(Graph(n, tuple(adj))))
    return out


def _trees(n: int) -> list[Graph]:
    """All unlabeled trees on n vertices (networkx's free-tree generator)."""
    return [
        Graph.from_edges(n, [tuple(sorted(e)) for e in t.edges()])
        for t in nx.nonisomorphic_trees(n)
    ]


def tree_plus_edge_classes(p: int, q: int) -> set[bytes]:
    """Canonical forms of all unicyclic bipartite graphs with parts (p, q).

    Deleting a cycle edge of such a graph leaves a spanning tree with the
    same colour classes, so every class is some unlabeled tree on p + q
    vertices with colour classes of sizes {p, q} plus one edge joining
    the two classes; the candidates are deduplicated by canonical form.
    """
    classes: set[bytes] = set()
    for tree in _trees(p + q):
        coloring = dfs_two_coloring(tree)
        assert coloring is not None, "a tree is bipartite"
        a, b = coloring
        if sorted((len(a), len(b))) != [p, q]:
            continue
        for u in a:
            for v in b:
                if not tree.adj[u] >> v & 1:
                    classes.add(canonical_form(tree.with_edge(u, v)))
    return classes


def bracelet_stream(p: int, q: int, table) -> list[tuple[int, ...]]:
    """Every bracelet of ``table``'s rooted trees with parts (p, q), by brute force.

    Each even cycle length takes every sequence of tree ids of total size
    p + q, coloured level by level from ``table.children`` alone, and keeps
    it when it is the least of its rotations and reflections. No bead
    choice is pruned; the result is in (cycle length, ids) order, the
    order the enumerator's class stream promises.
    """
    n = p + q

    def levels(t: int) -> tuple[int, int]:
        """(vertices at even depth, vertices at odd depth) of tree ``t``."""
        even, odd = 1, 0
        for c in table.children(t):
            c_even, c_odd = levels(c)
            even, odd = even + c_odd, odd + c_even
        return even, odd

    by_size: dict[int, list[int]] = {}
    for t, s in enumerate(table.size):
        by_size.setdefault(s, []).append(t)
    out = []
    for length in range(4, n + 1, 2):
        found = []
        for sizes in itertools.product(range(1, n - length + 2), repeat=length):
            if sum(sizes) != n:
                continue
            for seq in itertools.product(*(by_size[s] for s in sizes)):
                # cycle vertices alternate colours; count cycle vertex 0's
                colour = sum(levels(t)[i % 2] for i, t in enumerate(seq))
                if colour not in (p, q):
                    continue
                turns = [seq[k:] + seq[:k] for k in range(length)]
                rev = seq[::-1]
                turns += [rev[k:] + rev[:k] for k in range(length)]
                if seq == min(turns):
                    found.append(seq)
        out += sorted(found)
    return out
