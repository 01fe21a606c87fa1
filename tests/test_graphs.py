"""Core graph type, distances, Wiener/transmission, bipartition."""

import itertools
import random

import pytest

from wiener_unicyclic import (
    DisconnectedGraphError,
    Graph,
    OnionParams,
    bipartition,
    build_cycle,
    build_onion,
    build_path,
    build_star,
    coalesce,
    cycle_vertices,
    is_unicyclic,
    random_connected_graph,
    random_tree,
    transmission,
    transmissions,
    wiener_index,
)

from oracles import (
    INF,
    floyd_warshall,
    transmission_via_floyd_warshall,
    wiener_via_floyd_warshall,
)


class TestGraphType:
    def test_from_edges_symmetric(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.neighbors(1) == (0, 2)
        assert g.has_edge(1, 0) and g.has_edge(0, 1)
        assert not g.has_edge(0, 2)
        assert g.num_edges == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(ValueError):
            Graph.from_edges(65, [])

    def test_with_edge_is_pure(self):
        g = build_path(3)
        g2 = g.with_edge(0, 2)
        assert g.num_edges == 2 and g2.num_edges == 3
        with pytest.raises(ValueError):
            g2.with_edge(0, 2)

    def test_relabel_roundtrip(self):
        g = build_star(4)
        perm = [4, 0, 1, 2, 3]
        h = g.relabel(perm)
        assert h.degree(4) == 4
        inverse = [perm.index(i) for i in range(5)]
        assert h.relabel(inverse) == g


class TestDistances:
    """Distance sums, the transmissions, by hand and against Floyd-Warshall."""

    def test_single_vertex(self):
        assert transmissions(Graph.from_edges(1, [])) == (0,)

    def test_cycle_four_by_hand(self):
        # each vertex has two neighbours and one vertex at distance 2
        assert transmissions(build_cycle(4)) == (4, 4, 4, 4)

    def test_onion_345_matches_floyd_warshall(self):
        g = build_onion(OnionParams(3, 4, 5))
        assert list(transmissions(g)) == fw_transmissions(g)

    def test_random_graphs_match_floyd_warshall(self):
        rng = random.Random(20260809)
        for _ in range(1000):
            g = random_connected_graph(rng, 2, 12)
            assert list(transmissions(g)) == fw_transmissions(g)


class TestWienerAndTransmission:
    def test_cycle_four(self):
        assert wiener_index(build_cycle(4)) == 8

    def test_path_four(self):
        assert wiener_index(build_path(4)) == 10

    def test_onion_121(self):
        g = build_onion(OnionParams(1, 2, 1))
        assert wiener_via_floyd_warshall(g) == 46
        assert wiener_index(g) == 46

    def test_transmission_cycle(self):
        assert transmission(build_cycle(4), 0) == 4

    def test_transmission_star_center(self):
        for k in (1, 3, 7):
            assert transmission(build_star(k), 0) == k

    def test_transmission_onion_pendant_cycle_vertex(self):
        params = OnionParams(1, 2, 1)
        g = build_onion(params)
        assert transmission_via_floyd_warshall(g, params.v_id) == 12
        assert transmission(g, params.v_id) == 12

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            wiener_index(g)
        with pytest.raises(DisconnectedGraphError, match="transmissions are undefined"):
            transmission(g, 0)

    def test_invalid_vertex(self):
        with pytest.raises(IndexError):
            transmission(build_cycle(4), 4)

    def test_wiener_is_half_transmission_sum(self):
        rng = random.Random(99)
        for _ in range(300):
            g = random_connected_graph(rng, 2, 10)
            ts = transmissions(g)
            assert wiener_index(g) * 2 == sum(ts)


def fw_transmissions(g: Graph) -> list[int]:
    return [int(sum(row)) for row in floyd_warshall(g)]


def tree_plus_edges(rng: random.Random, n: int, extra: int) -> Graph:
    """A random labeled tree on n vertices plus ``extra`` random non-edges."""
    g = random_tree(rng, n)
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    for u, v in rng.sample(non_edges, extra):
        g = g.with_edge(u, v)
    return g


def hang_path(edges: list[tuple[int, int]], at: int, first: int, k: int) -> None:
    """Hang a path of k new vertices, first..first+k-1, from vertex ``at``."""
    edges.append((at, first))
    edges += [(v, v + 1) for v in range(first, first + k - 1)]


def dumbbell() -> Graph:
    """64 vertices: C6 and C5 joined by a 15-edge path, deep trees on the path and both cycles."""
    edges = [(v, (v + 1) % 6) for v in range(6)]  # cycle 0..5
    edges += [(6 + v, 6 + (v + 1) % 5) for v in range(5)]  # cycle 6..10
    edges += [(0, 11)] + [(v, v + 1) for v in range(11, 24)] + [(24, 6)]  # path 11..24
    hang_path(edges, 17, 25, 10)  # 25..34 from the middle of the path
    edges += [(27, 35), (27, 36), (30, 37)]  # branches on that path
    hang_path(edges, 3, 38, 12)  # 38..49 from the six-cycle
    edges += [(40, 50)]
    hang_path(edges, 8, 51, 10)  # 51..60 from the five-cycle
    edges += [(51, 61), (55, 62), (62, 63)]
    return Graph.from_edges(64, edges)


def theta_with_trees() -> Graph:
    """Paths of lengths 2, 3 and 4 between vertices 0 and 1, with trees on 0, 4 and 6."""
    edges = [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 7), (7, 1)]
    edges += [(4, 8), (8, 9), (9, 10), (0, 11), (11, 12), (11, 13), (6, 14)]
    return Graph.from_edges(15, edges)


def labeled_graphs(n: int):
    """Every labeled graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        yield Graph(n, tuple(adj))


def bfs_colouring(g: Graph) -> list[int | None]:
    """Each vertex's distance parity from vertex 0 by a plain-list BFS, None where unreached."""
    colour: list[int | None] = [None] * g.n
    colour[0] = 0
    queue = [0]
    for u in queue:
        for v in range(g.n):
            if g.adj[u] >> v & 1 and colour[v] is None:
                colour[v] = 1 - colour[u]
                queue.append(v)
    return colour


def check_two_colouring(g: Graph) -> None:
    """``bipartition`` and ``is_unicyclic`` against the plain-list BFS colouring."""
    colour = bfs_colouring(g)
    edges = g.edges()
    if None in colour:
        with pytest.raises(DisconnectedGraphError):
            bipartition(g)
        assert not is_unicyclic(g)
        return
    assert is_unicyclic(g) == (len(edges) == g.n)
    bp = bipartition(g)
    if any(colour[u] == colour[v] for u, v in edges):
        assert bp is None
        return
    even = sum(1 << v for v in range(g.n) if colour[v] == 0)
    odd = ((1 << g.n) - 1) ^ even
    # vertex 0's class, even, comes first on a tie
    want = (even, odd) if even.bit_count() <= odd.bit_count() else (odd, even)
    assert bp is not None and (bp.part_p, bp.part_q) == want


class TestTransmissionsKernel:
    """The peel-and-core kernel against Floyd-Warshall row sums."""

    def test_every_labeled_graph_up_to_six_vertices(self):
        count = 0
        for n in range(1, 7):
            for g in labeled_graphs(n):
                rows = floyd_warshall(g)
                count += 1
                if any(INF in row for row in rows):
                    with pytest.raises(DisconnectedGraphError):
                        transmissions(g)
                else:
                    assert list(transmissions(g)) == [int(sum(row)) for row in rows]
        assert count == 33867

    def test_extreme_diameters_and_small_orders(self):
        complete = Graph.from_edges(12, [(u, v) for u in range(12) for v in range(u + 1, 12)])
        # path of diameter 63, star of diameter 2, K_12, a single vertex
        for g in (build_path(64), build_star(63), complete, Graph.from_edges(1, [])):
            assert list(transmissions(g)) == fw_transmissions(g)

    def test_random_trees(self):
        rng = random.Random(20261018)
        for _ in range(40):
            g = random_tree(rng, rng.randint(1, 64))
            assert list(transmissions(g)) == fw_transmissions(g)

    def test_unicyclic_and_dense_graphs(self):
        rng = random.Random(4)
        for _ in range(10):
            for extra in (1, rng.randint(8, 128)):
                g = tree_plus_edges(rng, rng.randint(16, 64), extra)
                expected = fw_transmissions(g)
                assert list(transmissions(g)) == expected
                v = rng.randrange(g.n)
                assert transmission(g, v) == expected[v]

    @pytest.mark.parametrize("build", [dumbbell, theta_with_trees], ids=["dumbbell", "theta"])
    def test_cores_beyond_one_cycle(self, build):
        g = build()
        perm = list(range(g.n))
        random.Random(g.n).shuffle(perm)
        for h in (g, g.relabel(perm)):
            assert list(transmissions(h)) == fw_transmissions(h)

    def test_coalesced_random_graphs(self):
        rng = random.Random(2020)
        for _ in range(200):
            g = random_connected_graph(rng, 2, 12)
            h = random_connected_graph(rng, 2, 12)
            merged, _ = coalesce(g, rng.randrange(g.n), h, rng.randrange(h.n))
            assert list(transmissions(merged)) == fw_transmissions(merged)

    @pytest.mark.parametrize(
        "g, message",
        [
            (Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)]), "undefined"),  # vertex 5 isolated
            (Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)]), "undefined"),
            (Graph.from_edges(0, []), "no vertices"),
            # a triangle and a 4-cycle: the core stops growing
            (
                Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
                "undefined",
            ),
            (Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (3, 5), (3, 6)]), "undefined"),
            # a star on the low labels beside a 4-cycle carrying a pendant path
            (
                Graph.from_edges(
                    10, [(0, 1), (0, 2), (3, 4), (4, 5), (5, 6), (6, 3), (6, 7), (7, 8), (8, 9)]
                ),
                "undefined",
            ),
        ],
        ids=[
            "isolated-vertex",
            "two-components",
            "no-vertices",
            "two-cycles",
            "forest",
            "cycle-beside-a-tree",
        ],
    )
    def test_disconnected_rejected(self, g, message):
        with pytest.raises(DisconnectedGraphError, match=message):
            transmissions(g)


class TestBipartition:
    def test_cycle_four(self):
        bp = bipartition(build_cycle(4))
        assert bp is not None and bp.sizes == (2, 2)

    def test_odd_cycle(self):
        assert bipartition(build_cycle(3)) is None

    def test_onion_345_sizes(self):
        # 15 vertices; the colour classes work out to 7 and 8
        g = build_onion(OnionParams(3, 4, 5))
        assert g.n == 15
        bp = bipartition(g)
        assert bp is not None and bp.sizes == (7, 8)

    def test_coloring_is_proper_and_covers(self):
        rng = random.Random(4)
        for _ in range(200):
            g = random_connected_graph(rng, 2, 12)
            bp = bipartition(g)
            if bp is None:
                continue
            assert bp.p <= bp.q and bp.p + bp.q == g.n
            assert not bp.part_p & bp.part_q
            for u, v in g.edges():
                assert (bp.part_p >> u & 1) != (bp.part_p >> v & 1)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            bipartition(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_every_labeled_graph_up_to_six_vertices(self):
        count = 0
        for n in range(1, 7):
            for g in labeled_graphs(n):
                check_two_colouring(g)
                count += 1
        assert count == 33867

    def test_vertex_63(self):
        odd_cycle_and_pendant = Graph.from_edges(64, [(v, (v + 1) % 63) for v in range(63)] + [(5, 63)])
        perm = list(range(64))
        random.Random(64).shuffle(perm)
        for g in (build_path(64), odd_cycle_and_pendant):
            for h in (g, g.relabel(perm)):
                check_two_colouring(h)
        assert bipartition(build_path(64)).sizes == (32, 32)
        assert bipartition(odd_cycle_and_pendant) is None
        assert is_unicyclic(odd_cycle_and_pendant)

    @pytest.mark.parametrize(
        "g",
        [
            build_path(2),
            build_path(6),
            build_cycle(8),
            Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 5)]),
        ],
        ids=["p2", "p6", "c8", "c4-two-adjacent-pendants"],
    )
    def test_tie_puts_vertex_zero_first(self, g):
        rng = random.Random(g.n)
        for _ in range(30):
            perm = list(range(g.n))
            rng.shuffle(perm)
            bp = bipartition(g.relabel(perm))
            assert bp is not None and bp.p == bp.q
            assert bp.part_p & 1


class TestUnicyclic:
    def test_cycle(self):
        assert is_unicyclic(build_cycle(4))

    def test_tree(self):
        assert not is_unicyclic(build_path(5))

    @pytest.mark.parametrize(
        "g",
        [Graph.from_edges(0, []), Graph.from_edges(1, []), Graph.from_edges(2, []), build_path(2)],
        ids=["no-vertices", "one-vertex", "two-vertices", "one-edge"],
    )
    def test_fewer_than_three_vertices(self, g):
        assert not is_unicyclic(g)

    def test_two_disjoint_triangles(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not is_unicyclic(g)

    @pytest.mark.parametrize(
        "g",
        [
            Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4)]),  # triangle + an edge
            Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)]),  # C4 + an isolated vertex
            Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)]),  # C4 + P3
        ],
        ids=["triangle-and-edge", "c4-and-vertex", "c4-and-p3"],
    )
    def test_cycle_beside_a_tree_has_no_cycle_vertices(self, g):
        assert not is_unicyclic(g)
        with pytest.raises(DisconnectedGraphError, match="not connected"):
            cycle_vertices(g)
