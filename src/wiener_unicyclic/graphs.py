"""Immutable bitset-backed simple graphs and distance invariants.

Vertices are the integers ``0..n-1`` and the neighbourhood of each vertex
is stored as a single int bitmask. One leaf peel removes vertices of
degree at most one until only the 2-core is left (the cycle of a
unicyclic graph, nothing of a tree). In the same loop it ORs each peeled
vertex's block (itself and the vertices peeled below it) into the block
of the neighbour it hung from, and lists, in peel order, each vertex with
that parent and its block's size. Two readers share that list. The
transmissions kernel, which gives every transmission and through them
the Wiener index, reads its depth sum, root check and rerooting from it,
and grows distance balls on the 2-core only, each seeded with its
vertex's block (see ``transmissions``). ``_peel_leaves`` reads the
parents and the order for a unicyclic graph: the cycle, which
``cycle_vertices`` returns, and the trees hanging off it, as each
vertex's children, which bracelet codes and the broom check read.
Connectivity and bipartition come from one bitmask BFS helper, which
lists the vertices at each distance from a set. Everything is a pure
function; operations that would change a graph return a new one instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64

#: ``_UNIT[v]`` is the singleton bitmask of vertex v.
_UNIT = tuple(1 << v for v in range(MAX_VERTICES))


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


def transmission(g: Graph, v: int) -> int:
    """Sum of distances from ``v`` to every other vertex, read from ``transmissions``."""
    g.check_vertex(v)
    return transmissions(g)[v]


def transmissions(g: Graph) -> tuple[int, ...]:
    """Transmissions of all vertices: distance balls on the 2-core, rerooting on its trees.

    The leaf peel hangs every vertex outside the 2-core C from a parent.
    The block of a vertex v is v together with every peeled vertex that
    hangs from it, directly or not; s(v) is its size and depth(x) the
    number of edges from x down to C. ``_peel`` gives it all in one pass:
    the list of (x, parent(x), s(x)) in peel order, every block, and C.
    The sum of s(x), the root check and the walk back out below read
    that list; the balls start from the blocks.

    Core. A shortest path between two core vertices never enters a
    hanging tree, so distances within C are those of g, and a vertex x in
    the block of core vertex c' is at distance d(c, c') + depth(x) from
    core vertex c. Let B_d(c) be the union of the blocks of the core
    vertices within distance d of c. Then x lies outside B_d(c) for
    exactly d(c, c') values of d, and x lies in the blocks of exactly
    depth(x) peeled vertices (itself and those between it and C), so

        t(c) = sum over d >= 0 of (n - |B_d(c)|) + sum over peeled x of s(x).

    B_0(c) is the block of c, and step d turns B_d(c) into B_{d+1}(c) by
    OR-ing the balls of c's core neighbours, reading only the previous
    step's list. A core vertex leaves the loop once its ball holds every
    vertex; a ball that stops growing before that means C is
    disconnected. A graph with no vertex of degree at most one is its own
    core.

    Trees. Stepping from y = parent(x) to x brings the s(x) vertices of
    x's block one edge closer and the other n - s(x) one edge further, so

        t(x) = t(y) + n - 2 s(x),

    which the walk back out, in reverse peel order, applies to each
    parent before its children. A tree has an empty core: its last
    peeled vertex r is the root, and t(r) = sum over x of depth(x), with
    depth now counted down to r, which is again the sum of s(x) over the
    vertices x other than r. A peeled vertex with no parent whose block
    is not every vertex means a forest, or a tree beside a component with
    a cycle.
    """
    n = g.n
    if n == 0:
        raise DisconnectedGraphError("graph has no vertices")
    adj = g.adj
    full = (1 << n) - 1
    # the block of a peeled vertex, the ball of a core vertex
    order, ball, core = _peel(adj)
    depth_sum = 0
    for _, p, s in order:
        if p >= 0:
            depth_sum += s
        elif s != n:
            raise DisconnectedGraphError("transmissions are undefined for disconnected graphs")
    total = [depth_sum] * n  # a tree's root keeps this: t(r) = depth_sum
    nbrs = [None] * n
    growing = []
    # the bits of core and of each core row, written out: a bits() generator
    # per core vertex cost more than growing the balls on small graphs
    left = core
    while left:
        c = left.bit_length() - 1
        left ^= _UNIT[c]
        growing.append(c)
        row = adj[c] & core
        ws = nbrs[c] = []
        while row:
            w = row.bit_length() - 1
            ws.append(w)
            row ^= _UNIT[w]
        total[c] += n - ball[c].bit_count()  # the d = 0 term
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
    for v, p, s in reversed(order):
        if p >= 0:
            total[v] = total[p] + n - 2 * s
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
    if len(a) <= len(b):  # a holds vertex 0
        return Bipartition(a, b)
    return Bipartition(b, a)


def _peel(adj: Sequence[int]) -> tuple[list[tuple[int, int, int]], list[int], int]:
    """Peel vertices of degree at most one until none is left: (order, block, core).

    ``order`` lists one ``(v, parent, size)`` per peeled vertex, in the
    order they go. ``parent`` is the one neighbour of ``v`` still there
    when ``v`` goes, or -1 when none is, which makes ``v`` the root of a
    tree component. A vertex's block is itself and every vertex peeled
    below it; ``block[v]`` is its bitmask, whole once ``v`` goes, when it
    is OR-ed into the parent's, and ``size`` is its size. ``core`` is the
    bitmask of the vertices left, the 2-core, whose blocks hold the trees
    hanging from them. ``transmissions`` reads all three; ``_peel_leaves``
    reads the parents and the order.
    """
    n = len(adj)
    core = (1 << n) - 1
    block = list(_UNIT[:n])
    order = []
    # a vertex joins once: at degree <= 1 (a row with at most one bit), or
    # when the vertices left leave it exactly one neighbour
    queue = [v for v, a in enumerate(adj) if not a & (a - 1)]
    for v in queue:
        core ^= _UNIT[v]
        b = block[v]
        rest = adj[v] & core  # at most one vertex
        if rest:
            w = rest.bit_length() - 1
            block[w] |= b
            order.append((v, w, b.bit_count()))
            if (adj[w] & core).bit_count() == 1:
                queue.append(w)
        else:
            order.append((v, -1, b.bit_count()))
    return order, block, core


def _peel_leaves(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """The leaf peel of a connected unicyclic graph: (peeled, cycle, children).

    ``peeled`` lists the peeled vertices, each after its children, which are
    the neighbours peeled before it, as the bitmask ``children[v]``; they make
    the trees hanging off the ``cycle``. Raises ``ValueError`` when no cycle
    or more than one is left, and ``DisconnectedGraphError`` when a tree
    component lies beside the cycle.
    """
    adj = g.adj
    order, _, alive = _peel(adj)
    if not alive:
        raise ValueError("graph has no cycle")
    children = [0] * g.n
    peeled = []
    for v, p, _ in order:
        if p < 0:  # a tree ends with no parent while a core remains
            raise DisconnectedGraphError("graph is not connected")
        children[p] |= 1 << v
        peeled.append(v)
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
    cycle neighbour, so the order is deterministic. Raises ``ValueError``
    when the graph is not connected unicyclic: ``DisconnectedGraphError``
    when a tree component lies beside the one cycle.
    """
    return _peel_leaves(g)[1]


def is_unicyclic(g: Graph) -> bool:
    """True iff the graph is connected with exactly one cycle (|E| = |V|)."""
    return g.n > 0 and g.num_edges == g.n and sum(_bfs_layers(g.adj, 1)) == (1 << g.n) - 1
