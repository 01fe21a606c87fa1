"""Core graph type, distances, Wiener/transmission, bipartition."""

import random

import pytest

from wiener_unicyclic import (
    UNREACHABLE,
    DisconnectedGraphError,
    Graph,
    OnionParams,
    all_pairs_distances,
    bipartition,
    build_cycle,
    build_onion,
    build_path,
    build_star,
    is_unicyclic,
    random_connected_graph,
    random_tree,
    transmission,
    transmissions,
    wiener_index,
)

from oracles import floyd_warshall, transmission_via_floyd_warshall, wiener_via_floyd_warshall


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
    def test_single_vertex(self):
        dm = all_pairs_distances(Graph.from_edges(1, []))
        assert dm.rows == ((0,),)

    def test_cycle_four_by_hand(self):
        dm = all_pairs_distances(build_cycle(4))
        off = [dm.dist(u, v) for u in range(4) for v in range(4) if u != v]
        assert set(off) == {1, 2}
        far_pairs = [(u, v) for u in range(4) for v in range(u + 1, 4) if dm.dist(u, v) == 2]
        assert len(far_pairs) == 2

    def test_disconnected_marker(self):
        dm = all_pairs_distances(Graph.from_edges(3, [(0, 1)]))
        assert dm.dist(0, 2) == UNREACHABLE
        assert dm.dist(2, 2) == 0

    def test_onion_345_matches_floyd_warshall(self):
        g = build_onion(OnionParams(3, 4, 5))
        dm = all_pairs_distances(g)
        fw = floyd_warshall(g)
        for u in range(g.n):
            for v in range(g.n):
                assert dm.dist(u, v) == fw[u][v]

    def test_random_graphs_match_floyd_warshall(self):
        rng = random.Random(20260809)
        for _ in range(1000):
            g = random_connected_graph(rng, 2, 12)
            dm = all_pairs_distances(g)
            fw = floyd_warshall(g)
            assert all(
                dm.dist(u, v) == fw[u][v] for u in range(g.n) for v in range(g.n)
            )

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_connected_graph(rng, 3, 10)
            dm = all_pairs_distances(g)
            for u in range(g.n):
                assert dm.dist(u, u) == 0
                for v in range(g.n):
                    assert dm.dist(u, v) == dm.dist(v, u)
                    for w in range(g.n):
                        assert dm.dist(u, w) <= dm.dist(u, v) + dm.dist(v, w)


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


class TestTransmissionsKernel:
    """The all-sources kernel against Floyd-Warshall row sums."""

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

    @pytest.mark.parametrize(
        "g",
        [
            Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)]),  # vertex 5 isolated
            Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)]),
            Graph.from_edges(0, []),
        ],
        ids=["isolated-vertex", "two-components", "no-vertices"],
    )
    def test_disconnected_rejected(self, g):
        with pytest.raises(DisconnectedGraphError):
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
            assert bp.part_p.isdisjoint(bp.part_q)
            for u, v in g.edges():
                assert (u in bp.part_p) != (v in bp.part_p)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            bipartition(Graph.from_edges(4, [(0, 1), (2, 3)]))


class TestUnicyclic:
    def test_cycle(self):
        assert is_unicyclic(build_cycle(4))

    def test_tree(self):
        assert not is_unicyclic(build_path(5))

    def test_two_disjoint_triangles(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not is_unicyclic(g)
