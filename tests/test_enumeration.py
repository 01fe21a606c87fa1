"""Enumerator: soundness, completeness against the labeled oracle, determinism."""

import pytest

from wiener_unicyclic import (
    EnumSpec,
    bipartition,
    build_cycle,
    build_min_extremal,
    build_onion,
    canonical_form,
    count_classes,
    enumerate_unicyclic_bipartite,
    extremal_onion_params,
    graph6_encode,
    is_unicyclic,
    wiener_index,
)

from wiener_unicyclic.enumeration import RootedTrees, unicyclic_classes

from oracles import _trees, labeled_unicyclic_bipartite_classes, tree_plus_edge_classes


def test_spec_validation():
    with pytest.raises(ValueError):
        EnumSpec(1, 3)
    with pytest.raises(ValueError):
        EnumSpec(3, 2)
    with pytest.raises(ValueError):
        EnumSpec(8, 8, max_n=14)
    with pytest.raises(ValueError):
        EnumSpec(2, 2, max_n=17)


def test_smallest_case_is_cycle_four():
    graphs = list(enumerate_unicyclic_bipartite(EnumSpec(2, 2)))
    assert len(graphs) == 1
    assert canonical_form(graphs[0]) == canonical_form(build_cycle(4))


@pytest.mark.parametrize(
    "p,q,expected",
    [(2, 2, 1), (2, 3, 1), (2, 4, 2), (3, 3, 3), (2, 5, 2), (3, 4, 8)],
)
def test_class_counts_frozen_from_labeled_oracle(p, q, expected):
    assert count_classes(EnumSpec(p, q)) == expected


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_matches_labeled_oracle(n):
    oracle = labeled_unicyclic_bipartite_classes(n)
    for (p, q), expected_forms in sorted(oracle.items()):
        mine = {canonical_form(g) for g in enumerate_unicyclic_bipartite(EnumSpec(p, q))}
        assert mine == expected_forms


def test_yields_valid_graphs_without_duplicates():
    from wiener_unicyclic import graph6_decode

    for p, q in [(2, 4), (3, 4), (4, 4), (3, 5)]:
        seen = set()
        for g in enumerate_unicyclic_bipartite(EnumSpec(p, q)):
            assert is_unicyclic(g)
            bp = bipartition(g)
            assert bp is not None and bp.sizes == (p, q)
            assert graph6_decode(graph6_encode(g)) == g
            form = canonical_form(g)
            assert form not in seen
            seen.add(form)


def test_tree_source_counts_are_correct():
    # unlabeled tree counts for n = 1..12, a fixed anchor for the oracle's generator
    known = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
    for n, expected in zip(range(4, 13), known[3:]):
        assert len(_trees(n)) == expected


def test_contains_predicted_extremal_graphs():
    for p in range(2, 6):
        for q in range(p, 11 - p):
            forms = {canonical_form(g) for g in enumerate_unicyclic_bipartite(EnumSpec(p, q))}
            assert canonical_form(build_onion(extremal_onion_params(p, q))) in forms
            assert canonical_form(build_min_extremal(p, q)) in forms


def test_deterministic_across_runs():
    spec = EnumSpec(4, 5)
    first = list(enumerate_unicyclic_bipartite(spec))
    second = list(enumerate_unicyclic_bipartite(spec))
    assert first == second
    forms = [canonical_form(g) for g in first]
    assert forms == sorted(forms)


def test_count_matches_stream_length():
    spec = EnumSpec(3, 6)
    assert count_classes(spec) == len(list(enumerate_unicyclic_bipartite(spec)))


def test_rooted_tree_counts_are_correct():
    # unlabeled rooted tree counts for n = 1..12 (OEIS A000081)
    known = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]
    table = RootedTrees(12)
    assert table.size == sorted(table.size)
    assert [table.size.count(s) for s in range(1, 13)] == known
    assert len(set(table.children)) == len(table.children)


def test_matches_tree_plus_edge_route():
    for n in range(4, 11):
        for p in range(2, n // 2 + 1):
            spec = EnumSpec(p, n - p)
            mine = [canonical_form(c.graph()) for c in unicyclic_classes(spec)]
            assert len(set(mine)) == len(mine), (p, n - p)
            assert set(mine) == tree_plus_edge_classes(p, n - p), (p, n - p)


def test_structural_wiener_matches_bfs():
    for n in range(4, 13):
        for p in range(2, n // 2 + 1):
            for c in unicyclic_classes(EnumSpec(p, n - p)):
                assert c.wiener == wiener_index(c.graph()), c.trees


def test_class_stream_order_is_cycle_length_then_tree_ids():
    seq = [c.trees for c in unicyclic_classes(EnumSpec(5, 7))]
    assert seq == sorted(seq, key=lambda ids: (len(ids), ids))
