"""Immutable bitset-backed simple graphs and distance invariants.

Vertices are the integers ``0..n-1`` and the neighbourhood of each vertex
is stored as a single int bitmask. One leaf peel removes vertices of
degree at most one until only the 2-core is left (the cycle of a
unicyclic graph, nothing of a tree). In the same loop it ORs each peeled
vertex's block (itself and the vertices peeled below it) into the block
of the neighbour it hung from, and lists, in peel order, each vertex with
that parent and its block's size. The peel also sums those sizes,
which is the depth sum of the trees. Two readers share that list. The
transmissions kernel, which gives every transmission and through them
the Wiener index, reroots the trees from it and grows distance balls on
the 2-core only, each seeded with its vertex's block (see
``transmissions``). ``_peel_leaves`` reads the parents and the order for
a unicyclic graph: the cycle, which ``cycle_vertices`` returns, and the
trees hanging off it, as each vertex's children, which bracelet codes
and the broom check read. Connectivity and bipartition come from one
bitmask BFS from vertex 0, which returns the vertices at even and at odd
distance as two masks and a flag set when an edge joins two vertices of
one layer, that is, closes an odd cycle. Everything is a pure function;
operations that would change a graph return a new one instead.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

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


class Graph(NamedTuple):
    """Simple undirected graph on vertices ``0..n-1``.

    ``adj[v]`` is the neighbour set of ``v`` as a bitmask. A graph is the
    tuple ``(n, adj)``, so it is immutable, hashable and safe to share
    across workers, and it equals that plain tuple. Use :meth:`from_edges`
    rather than the raw constructor; it validates simplicity and symmetry.
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
        return sum(map(int.bit_count, self.adj)) // 2

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


class Bipartition(NamedTuple):
    """The two colour classes of a connected bipartite graph as bitmasks, smaller first."""

    part_p: int
    part_q: int

    @property
    def p(self) -> int:
        return self.part_p.bit_count()

    @property
    def q(self) -> int:
        return self.part_q.bit_count()

    @property
    def sizes(self) -> tuple[int, int]:
        return (self.p, self.q)


def _two_colour(adj: Sequence[int]) -> tuple[int, int, bool]:
    """BFS from vertex 0: (even, odd, odd_edge).

    ``even`` and ``odd`` are the bitmasks of the vertices reached at even
    and at odd distance from vertex 0, so their union is vertex 0's
    component. Every edge of that component joins two vertices of one BFS
    layer or of consecutive layers, and ``odd_edge`` is set when one joins
    two of one layer, which is exactly when the component holds an odd
    cycle (Kleinberg and Tardos, Algorithm Design, 2005, section 3.4).
    """
    parts = [0, 0]
    frontier = seen = 1
    meet = 0  # vertices of a layer adjacent to that same layer
    d = 0
    while frontier:
        parts[d] |= frontier
        nxt = 0
        left = frontier
        while left:
            v = left.bit_length() - 1
            left ^= _UNIT[v]
            nxt |= adj[v]
        meet |= nxt & frontier  # no row holds its own vertex
        frontier = nxt & ~seen
        seen |= frontier
        d ^= 1
    return parts[0], parts[1], bool(meet)


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
    the list of (x, parent(x), s(x)) in peel order, every block, C, and
    the sum of s(x) over the peeled x with a parent. The walk back out
    below reads that list; the balls start from the blocks.

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
    vertices x other than r. With an empty core, r's block must hold
    every vertex, or g is a forest. With a core, a vertex outside the
    core's component never enters a ball, so some ball stops growing.
    """
    n = g.n
    if n == 0:
        raise DisconnectedGraphError("graph has no vertices")
    adj = g.adj
    full = (1 << n) - 1
    # the block of a peeled vertex, the ball of a core vertex
    order, ball, core, depth_sum = _peel(adj)
    if not core and order[-1][2] != n:  # the last root's tree is not all of g
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
    even, odd, odd_edge = _two_colour(g.adj)
    if (even | odd) != (1 << g.n) - 1:
        raise DisconnectedGraphError("bipartition is ambiguous for disconnected graphs")
    if odd_edge:
        return None
    if even.bit_count() <= odd.bit_count():  # even holds vertex 0
        return Bipartition(even, odd)
    return Bipartition(odd, even)


def _peel(adj: Sequence[int]) -> tuple[list[tuple[int, int, int]], list[int], int, int]:
    """Peel vertices of degree at most one until none is left: (order, block, core, depth_sum).

    ``order`` lists one ``(v, parent, size)`` per peeled vertex, in the
    order they go. ``parent`` is the one neighbour of ``v`` still there
    when ``v`` goes, or -1 when none is, which makes ``v`` the root of a
    tree component. A vertex's block is itself and every vertex peeled
    below it; ``block[v]`` is its bitmask, whole once ``v`` goes, when it
    is OR-ed into the parent's, and ``size`` is its size. ``core`` is the
    bitmask of the vertices left, the 2-core, whose blocks hold the trees
    hanging from them. ``depth_sum`` is the sum of ``size`` over the
    vertices peeled with a parent. ``transmissions`` reads all four;
    ``_peel_leaves`` reads the parents and the order.
    """
    n = len(adj)
    core = (1 << n) - 1
    block = list(_UNIT[:n])
    order = []
    depth_sum = 0
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
            s = b.bit_count()
            depth_sum += s
            order.append((v, w, s))
            if (adj[w] & core).bit_count() == 1:
                queue.append(w)
        else:
            order.append((v, -1, b.bit_count()))
    return order, block, core, depth_sum


def _peel_leaves(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """The leaf peel of a connected unicyclic graph: (peeled, cycle, children).

    ``peeled`` lists the peeled vertices, each after its children, which are
    the neighbours peeled before it, as the bitmask ``children[v]``; they make
    the trees hanging off the ``cycle``. Raises ``ValueError`` when no cycle
    or more than one is left, and ``DisconnectedGraphError`` when a tree
    component lies beside the cycle.
    """
    adj = g.adj
    order, _, alive, _ = _peel(adj)
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
    if g.n == 0 or g.num_edges != g.n:
        return False
    even, odd, _ = _two_colour(g.adj)
    return even | odd == (1 << g.n) - 1
