"""Immutable bitset-backed simple graphs and distance invariants.

Vertices are the integers ``0..n-1`` and the neighbourhood of each vertex
is stored as a single int bitmask. Transmissions, and through them the
Wiener index, come from one kernel that grows the ball of every vertex at
once: with B_d(v) the set of vertices within distance d of v, B_{d+1}(v)
is the union of B_d(w) over v and its neighbours w, and the transmission
is t(v) = sum over d >= 0 of (n - |B_d(v)|). A step costs one bitmask OR
per edge end, and it serves every transmission, one vertex's too.
Distances from one vertex, or from a set of vertices, come from one
bitmask BFS helper, which lists the vertices at each distance: it serves
distance rows, connectivity and bipartition. One leaf peel reads a
unicyclic graph: it yields the cycle, which ``cycle_vertices`` returns,
and the trees hanging off it, as each vertex's children, which bracelet
codes and the broom check read. Everything is a pure function;
operations that would change a graph return a new one instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64

#: Marker used in DistanceMatrix entries for vertex pairs with no path.
UNREACHABLE = -1


class DisconnectedGraphError(ValueError):
    """Raised by operations that are only defined for connected graphs."""


def bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``adj[v]`` is the neighbour set of ``v`` as a bitmask. Instances are
    immutable (and therefore hashable and safe to share across workers).
    Use :meth:`from_edges` rather than the raw constructor; it validates
    simplicity and symmetry.
    """

    n: int
    adj: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list, rejecting loops and duplicates."""
        if n < 0 or n > MAX_VERTICES:
            raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if adj[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise IndexError(f"vertex {v} out of range for n={self.n}")

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        return tuple(bits(self.adj[v]))

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            higher = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(higher):
                out.append((u, v))
        return out

    @property
    def num_edges(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def with_edge(self, u: int, v: int) -> "Graph":
        """New graph with the extra edge (u, v); the edge must not exist yet."""
        self.check_vertex(u)
        self.check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if self.adj[u] >> v & 1:
            raise ValueError(f"edge ({u}, {v}) already present")
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph(self.n, tuple(adj))

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Apply a permutation (``perm[old] = new``) to the vertex labels."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of 0..n-1")
        adj = [0] * self.n
        for old in range(self.n):
            mask = 0
            for w in bits(self.adj[old]):
                mask |= 1 << perm[w]
            adj[perm[old]] = mask
        return Graph(self.n, tuple(adj))

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        return sum(_bfs_layers(self.adj, 1)) == (1 << self.n) - 1


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest-path hop counts; ``UNREACHABLE`` marks no path."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def dist(self, u: int, v: int) -> int:
        return self.rows[u][v]


@dataclass(frozen=True)
class Bipartition:
    """The two colour classes of a connected bipartite graph, smaller first."""

    part_p: frozenset[int]
    part_q: frozenset[int]

    @property
    def p(self) -> int:
        return len(self.part_p)

    @property
    def q(self) -> int:
        return len(self.part_q)

    @property
    def sizes(self) -> tuple[int, int]:
        return (self.p, self.q)


def _bfs_layers(adj: Sequence[int], starts: int) -> Iterator[int]:
    """Yield the vertices at distance 0, 1, 2, ... from the set ``starts`` as bitmasks.

    ``starts`` is a bitmask. The layers are disjoint, so their sum is the
    set of vertices reached.
    """
    frontier = starts
    seen = frontier
    while frontier:
        yield frontier
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every vertex; disconnected pairs get ``UNREACHABLE``."""
    rows = []
    for s in range(g.n):
        row = [UNREACHABLE] * g.n
        for d, layer in enumerate(_bfs_layers(g.adj, 1 << s)):
            for v in bits(layer):
                row[v] = d
        rows.append(tuple(row))
    return DistanceMatrix(g.n, tuple(rows))


def transmission(g: Graph, v: int) -> int:
    """Sum of distances from ``v`` to every other vertex, read from ``transmissions``."""
    g.check_vertex(v)
    return transmissions(g)[v]


def transmissions(g: Graph) -> tuple[int, ...]:
    """Transmissions of all vertices, from balls grown for every vertex at once.

    Step d turns each vertex's ball B_d into B_{d+1} by OR-ing the balls of
    its neighbours, reading only the previous step's list, and adds
    n - |B_{d+1}| to the vertex's total. A vertex leaves the loop once its
    ball holds every vertex. A ball that stops growing before that means
    the graph is disconnected.
    """
    n = g.n
    if n == 0:
        raise DisconnectedGraphError("graph has no vertices")
    full = (1 << n) - 1
    nbrs = [list(bits(a)) for a in g.adj]
    ball = [1 << v for v in range(n)]
    total = [n - 1] * n  # the d = 0 term: B_0(v) = {v}
    growing = [v for v in range(n) if ball[v] != full]
    while growing:
        grown = ball.copy()
        still = []
        for v in growing:
            b = ball[v]
            for w in nbrs[v]:
                b |= ball[w]
            if b == ball[v]:
                raise DisconnectedGraphError("transmissions are undefined for disconnected graphs")
            grown[v] = b
            if b != full:
                total[v] += n - b.bit_count()
                still.append(v)
        ball = grown
        growing = still
    return tuple(total)


def wiener_index(g: Graph) -> int:
    """Sum of shortest-path distances over unordered vertex pairs.

    Equals half the sum of all transmissions; defined for connected
    graphs only.
    """
    total = sum(transmissions(g))
    assert total % 2 == 0
    return total // 2


def bipartition(g: Graph) -> Bipartition | None:
    """Two-colour a connected graph; ``None`` when an odd cycle exists.

    The returned parts satisfy p <= q; on a tie the part containing
    vertex 0 comes first, so the result is deterministic.
    """
    if g.n == 0:
        raise DisconnectedGraphError("graph has no vertices")
    adj = g.adj
    parts = [0, 0]  # vertices at even and at odd distance from vertex 0
    for d, layer in enumerate(_bfs_layers(adj, 1)):
        parts[d & 1] |= layer
    even, odd = parts
    if (even | odd) != (1 << g.n) - 1:
        raise DisconnectedGraphError("bipartition is ambiguous for disconnected graphs")
    for part in parts:
        for v in bits(part):
            if adj[v] & part:
                return None
    a = frozenset(bits(even))
    b = frozenset(bits(odd))
    if len(a) < len(b) or (len(a) == len(b) and 0 in a):
        return Bipartition(a, b)
    return Bipartition(b, a)


def _peel_leaves(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """Peel leaves until one cycle is left: (peeled, cycle, children).

    ``peeled`` lists the peeled vertices, each after its children, which are
    the neighbours peeled before it, as the bitmask ``children[v]``. On a
    connected unicyclic graph they make the trees hanging off the ``cycle``.
    Raises ``ValueError`` when no cycle or more than one is left.
    """
    adj = g.adj
    deg = [a.bit_count() for a in adj]
    alive = (1 << g.n) - 1
    children = [0] * g.n
    # a vertex joins once: at degree <= 1, or when its degree drops from 2 to 1
    peeled = [v for v in range(g.n) if deg[v] <= 1]
    for v in peeled:
        alive &= ~(1 << v)
        for w in bits(adj[v] & alive):
            children[w] |= 1 << v
            deg[w] -= 1
            if deg[w] == 1:
                peeled.append(w)
    if not alive:
        raise ValueError("graph has no cycle")
    if any((adj[v] & alive).bit_count() != 2 for v in bits(alive)):
        raise ValueError("graph has more than one cycle")
    cur = next(bits(alive))  # each step goes on to the smallest neighbour not walked yet
    cycle, left = [cur], alive & ~(1 << cur)
    while adj[cur] & left:
        cur = next(bits(adj[cur] & left))
        cycle.append(cur)
        left &= ~(1 << cur)
    if left:  # another cycle, in another component
        raise ValueError("graph has more than one cycle")
    return peeled, cycle, children


def cycle_vertices(g: Graph) -> list[int]:
    """The unique cycle of a unicyclic graph, in cyclic order.

    Starts at the smallest cycle vertex and walks towards its smaller
    cycle neighbour, so the order is deterministic.
    """
    return _peel_leaves(g)[1]


def is_unicyclic(g: Graph) -> bool:
    """True iff the graph is connected with exactly one cycle (|E| = |V|)."""
    return g.n > 0 and g.num_edges == g.n and g.is_connected()
