"""Family builders, closed forms, coalescence, extremal parameters."""

import random
from math import comb

import pytest

from wiener_unicyclic import (
    Graph,
    OnionParams,
    bipartition,
    build_cycle,
    build_min_extremal,
    build_onion,
    build_path,
    build_star,
    canonical_form,
    coalesce,
    extremal_onion_params,
    graph6_decode,
    graph6_encode,
    is_unicyclic,
    min_wiener_polynomial,
    onion_transmissions,
    onion_wiener_closed_form,
    random_connected_graph,
    theorem_polynomial,
    transmission,
    wiener_index,
)

from oracles import wiener_via_floyd_warshall


def random_edge_set(rng: random.Random, n: int) -> Graph:
    """A graph on n vertices, each pair an edge with one random density."""
    density = rng.choice((0.02, 0.1, 0.5))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return Graph.from_edges(n, [e for e in pairs if rng.random() < density])


class TestPrimitiveBuilders:
    def test_cycle_four_wiener(self):
        assert wiener_index(build_cycle(4)) == 8

    @pytest.mark.parametrize("l", range(1, 12))
    def test_path_wiener_closed_form(self, l):
        assert wiener_index(build_path(l)) == comb(l + 1, 3)

    @pytest.mark.parametrize("m", range(0, 12))
    def test_star_wiener_closed_form(self, m):
        assert wiener_index(build_star(m)) == m * m

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_path(0)
        with pytest.raises(ValueError):
            build_cycle(2)
        with pytest.raises(ValueError):
            build_star(-1)


class TestOnion:
    def test_trivial_is_cycle_four(self):
        g = build_onion(OnionParams(0, 1, 0))
        assert canonical_form(g) == canonical_form(build_cycle(4))

    def test_vertex_count(self):
        assert build_onion(OnionParams(3, 4, 5)).n == 15
        for k, l, m in [(0, 1, 0), (2, 2, 2), (5, 1, 0)]:
            assert build_onion(OnionParams(k, l, m)).n == k + l + m + 3

    def test_structure(self):
        params = OnionParams(3, 4, 5)
        g = build_onion(params)
        assert is_unicyclic(g)
        bp = bipartition(g)
        assert bp is not None
        # antipodal cycle vertices 1 and 3 stay bare
        assert g.degree(1) == 2 and g.degree(3) == 2
        assert g.degree(params.v_id) == 2 + params.k

    def test_path_end_coincides_for_unit_path(self):
        params = OnionParams(2, 1, 3)
        assert params.path_end_id == params.u_id
        g = build_onion(params)
        # two cycle neighbours plus the m pendants, no path edge
        assert g.degree(params.path_end_id) == 2 + params.m

    def test_small_isomorphism(self):
        lhs = build_onion(OnionParams(1, 1, 0))
        rhs = build_onion(OnionParams(0, 2, 0))
        assert canonical_form(lhs) == canonical_form(rhs)
        assert wiener_index(lhs) == wiener_index(rhs) == 16

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            OnionParams(-1, 1, 0)
        with pytest.raises(ValueError):
            OnionParams(0, 0, 0)


class TestOnionClosedForms:
    def test_known_values(self):
        assert onion_wiener_closed_form(OnionParams(0, 1, 0)) == 8
        assert onion_wiener_closed_form(OnionParams(1, 2, 1)) == 46
        assert onion_wiener_closed_form(OnionParams(0, 3, 0)) == 29

    def test_known_transmissions(self):
        assert onion_transmissions(OnionParams(1, 1, 0)) == (5, 7)
        assert onion_transmissions(OnionParams(1, 2, 1)) == (12, 13)
        assert onion_transmissions(OnionParams(0, 1, 0)) == (4, 4)

    def test_agree_with_bfs_up_to_eleven_vertices(self):
        total = 0
        for s in range(0, 9):  # k + l + m - 1 <= 8 -> n <= 11
            for k in range(s + 1):
                for l in range(1, s - k + 2):
                    m = s + 1 - k - l
                    if m < 0:
                        continue
                    params = OnionParams(k, l, m)
                    g = build_onion(params)
                    assert onion_wiener_closed_form(params) == wiener_index(g)
                    t_v, t_ul = onion_transmissions(params)
                    assert transmission(g, params.v_id) == t_v
                    assert transmission(g, params.path_end_id) == t_ul
                    total += 1
        assert total > 100


class TestCoalesce:
    def test_two_edges_make_path(self):
        k2 = build_path(2)
        merged, remap = coalesce(k2, 0, k2, 0)
        assert canonical_form(merged) == canonical_form(build_path(3))
        assert remap == (0, 2)

    def test_star_center_on_path_end_is_broom(self):
        merged, _ = coalesce(build_path(4), 3, build_star(3), 0)
        # a broom: the path 0-1-2-3 with pendants 4, 5 and 6 at vertex 3
        broom = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6)])
        assert canonical_form(merged) == canonical_form(broom)

    def test_identified_vertex_inherits_both_neighborhoods(self):
        g1 = build_star(2)
        g2 = build_path(3)
        merged, remap = coalesce(g1, 0, g2, 1)
        assert merged.n == 5
        assert merged.degree(0) == 2 + 2
        assert remap[1] == 0

    def test_invalid_vertex(self):
        with pytest.raises(IndexError):
            coalesce(build_path(2), 5, build_path(2), 0)

    def test_labelling_follows_the_documented_rule(self):
        # the merged graph and the map from the docstring alone, on random
        # graphs (not always connected) with merged orders up to 64
        rng = random.Random(1801)
        for trial in range(200):
            n1 = rng.randint(1, 63)
            n2 = 65 - n1 if trial % 4 == 0 else rng.randint(1, 65 - n1)
            g1, g2 = random_edge_set(rng, n1), random_edge_set(rng, n2)
            u, w = rng.randrange(n1), rng.randrange(n2)
            new_id = [u if x == w else n1 + x - (x > w) for x in range(n2)]
            expected = g1.edges() + [(new_id[x], new_id[y]) for x, y in g2.edges()]
            merged, remap = coalesce(g1, u, g2, w)
            assert merged == Graph.from_edges(n1 + n2 - 1, expected), (n1, u, n2, w)
            assert remap == tuple(new_id)

    def test_past_the_vertex_limit_is_rejected(self):
        with pytest.raises(ValueError, match="order 66 exceeds the 64-vertex limit"):
            coalesce(build_path(64), 0, build_path(3), 0)

    def test_at_the_vertex_limit_builds(self):
        merged, remap = coalesce(build_path(62), 61, build_path(3), 0)
        assert merged == build_path(64)
        assert remap == (61, 62, 63)
        assert graph6_decode(graph6_encode(merged)) == merged

    def test_wiener_decomposition_on_random_pairs(self):
        rng = random.Random(424242)
        for _ in range(1000):
            n1 = rng.randint(2, 8)
            n2 = rng.randint(2, min(8, 15 - n1))
            g = random_connected_graph(rng, n1, n1)
            h = random_connected_graph(rng, n2, n2)
            u = rng.randrange(n1)
            w = rng.randrange(n2)
            merged, _ = coalesce(g, u, h, w)
            expected = (
                wiener_index(g)
                + wiener_index(h)
                + (n1 - 1) * transmission(h, w)
                + (n2 - 1) * transmission(g, u)
            )
            assert wiener_index(merged) == expected

    def test_transplant_monotonicity_on_random_pairs(self):
        rng = random.Random(8128)
        checked = 0
        while checked < 1000:
            n1 = rng.randint(3, 9)
            n2 = rng.randint(2, min(8, 15 - n1))
            g = random_connected_graph(rng, n1, n1)
            h = random_connected_graph(rng, n2, n2)
            u, v = rng.sample(range(n1), 2)
            w = rng.randrange(n2)
            tu, tv = transmission(g, u), transmission(g, v)
            if tu == tv:
                continue
            if tu > tv:
                u, v = v, u
            w_low = wiener_index(coalesce(g, u, h, w)[0])
            w_high = wiener_index(coalesce(g, v, h, w)[0])
            assert w_low < w_high
            checked += 1


class TestMinExtremal:
    def test_degenerate_is_cycle(self):
        assert canonical_form(build_min_extremal(2, 2)) == canonical_form(build_cycle(4))

    def test_three_three(self):
        g = build_min_extremal(3, 3)
        bp = bipartition(g)
        assert bp is not None and bp.sizes == (3, 3)
        assert is_unicyclic(g)

    def test_two_five_by_oracle(self):
        g = build_min_extremal(2, 5)
        assert wiener_via_floyd_warshall(g) == 38
        assert bipartition(g).sizes == (2, 5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            build_min_extremal(1, 5)
        with pytest.raises(ValueError):
            build_min_extremal(4, 3)

    def test_closed_form_matches_bfs_up_to_sixty_four_vertices(self):
        pairs = [(p, q) for p in range(2, 33) for q in range(p, 65 - p)]
        assert len(pairs) == 961
        for p, q in pairs:
            assert min_wiener_polynomial(p, q) == wiener_index(build_min_extremal(p, q)), (p, q)

    def test_closed_form_known_values_and_invalid(self):
        # C_4, and the (2, 5) oracle value above
        assert min_wiener_polynomial(2, 2) == 8
        assert min_wiener_polynomial(2, 5) == 38
        with pytest.raises(ValueError):
            min_wiener_polynomial(1, 5)
        with pytest.raises(ValueError):
            min_wiener_polynomial(4, 3)


class TestExtremalParams:
    def test_values(self):
        assert extremal_onion_params(3, 5) == OnionParams(1, 3, 1)
        assert extremal_onion_params(2, 2) == OnionParams(0, 1, 0)
        assert extremal_onion_params(4, 4) == OnionParams(0, 5, 0)

    def test_built_graph_has_requested_partition(self):
        for p in range(2, 21):
            for q in range(p, 21):
                g = build_onion(extremal_onion_params(p, q))
                assert g.n == p + q
                bp = bipartition(g)
                assert bp is not None and bp.sizes == (p, q)

    def test_requires_p_at_least_two(self):
        with pytest.raises(ValueError):
            extremal_onion_params(1, 4)


class TestTheoremPolynomial:
    def test_direct_substitution(self):
        assert theorem_polynomial(3, 3) == 63
        assert theorem_polynomial(2, 2) == 24

    def test_disagrees_with_construction_values(self):
        # the verified closed form gives 29 at (3,3) and 8 at (2,2);
        # the published polynomial does not reproduce either
        assert theorem_polynomial(3, 3) != onion_wiener_closed_form(extremal_onion_params(3, 3))
        assert theorem_polynomial(2, 2) != wiener_index(build_cycle(4))
