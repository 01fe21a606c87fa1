"""Randomized invariants driven by hypothesis."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from wiener_unicyclic import (
    bipartition,
    canonical_form,
    coalesce,
    graph6_decode,
    graph6_encode,
    is_unicyclic,
    random_connected_graph,
    transmission,
    transmissions,
    wiener_index,
)

from wiener_unicyclic.enumeration import RootedTrees

from oracles import dfs_two_coloring, floyd_warshall, structural_wiener, wiener_via_floyd_warshall

ROOTED_TREES = RootedTrees(6)


@st.composite
def connected_graphs(draw, n_min=2, n_max=12):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    return random_connected_graph(rng, n_min, n_max)


@given(connected_graphs())
def test_wiener_is_half_transmission_sum(g):
    assert 2 * wiener_index(g) == sum(transmissions(g))


@given(connected_graphs(n_max=10))
def test_transmissions_match_floyd_warshall(g):
    assert list(transmissions(g)) == [int(sum(row)) for row in floyd_warshall(g)]


@given(connected_graphs(), st.randoms(use_true_random=False))
def test_canonical_form_is_relabeling_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_form(g.relabel(perm)) == canonical_form(g)


@given(connected_graphs(n_max=14))
def test_graph6_roundtrip(g):
    assert graph6_decode(graph6_encode(g)) == g


@given(connected_graphs())
def test_bipartition_is_proper_when_it_exists(g):
    bp = bipartition(g)
    if bp is None:
        return
    assert bp.p <= bp.q
    assert bp.p + bp.q == g.n
    for u, v in g.edges():
        assert (bp.part_p >> u & 1) != (bp.part_p >> v & 1)


@given(connected_graphs(), st.randoms(use_true_random=False))
def test_bipartition_agrees_with_dfs_two_coloring(g, rnd):
    # up to three extra edges reach graphs with several cycles, odd and even
    for _ in range(rnd.randrange(4)):
        u, v = rnd.randrange(g.n), rnd.randrange(g.n)
        if u != v and not g.adj[u] >> v & 1:
            g = g.with_edge(u, v)
    bp, oracle = bipartition(g), dfs_two_coloring(g)
    assert (bp is None) == (oracle is None)
    if bp is not None:
        assert bp.sizes == tuple(sorted(map(len, oracle)))


@settings(max_examples=50)
@given(connected_graphs(n_max=7), connected_graphs(n_max=7), st.randoms(use_true_random=False))
def test_coalescence_wiener_decomposition(g, h, rnd):
    u = rnd.randrange(g.n)
    w = rnd.randrange(h.n)
    merged, _ = coalesce(g, u, h, w)
    assert merged.n == g.n + h.n - 1
    assert wiener_index(merged) == (
        wiener_index(g)
        + wiener_index(h)
        + (g.n - 1) * transmission(h, w)
        + (h.n - 1) * transmission(g, u)
    )


@st.composite
def trees_on_even_cycles(draw):
    length = draw(st.sampled_from([4, 6, 8, 10]))
    tree = st.integers(min_value=0, max_value=len(ROOTED_TREES.size) - 1)
    return draw(st.lists(tree, min_size=length, max_size=length))


@settings(max_examples=60)
@given(trees_on_even_cycles())
def test_structural_wiener_matches_floyd_warshall(ids):
    g = ROOTED_TREES.graph(ids)
    assert is_unicyclic(g) and bipartition(g) is not None
    assert g.n == sum(ROOTED_TREES.size[t] for t in ids)
    assert structural_wiener(ROOTED_TREES, ids) == wiener_via_floyd_warshall(g)
