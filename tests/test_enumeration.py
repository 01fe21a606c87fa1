"""Enumerator: soundness, completeness against independent oracles, determinism.

The comparison with the labeled-graph oracle is acceptance criterion 7
(tests/test_acceptance.py), at orders 4 to 8.
"""

import gc
import hashlib
import os
import random
import sys

import pytest

from wiener_unicyclic import (
    EnumSpec,
    Graph,
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

from wiener_unicyclic import enumeration
from wiener_unicyclic.enumeration import RootedTrees, unicyclic_classes

from oracles import (
    _trees,
    bracelet_stream,
    structural_wiener,
    tree_plus_edge_classes,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        EnumSpec(1, 3)
    with pytest.raises(ValueError):
        EnumSpec(3, 2)
    EnumSpec(8, 8)  # order 16, the canonical form's limit
    with pytest.raises(ValueError, match="order 17 exceeds the canonical-form limit 16"):
        EnumSpec(8, 9)


def test_smallest_case_is_cycle_four():
    classes = list(enumerate_unicyclic_bipartite(EnumSpec(2, 2)))
    assert len(classes) == 1
    g, w = classes[0]
    assert canonical_form(g) == canonical_form(build_cycle(4))
    assert w == 8


@pytest.mark.parametrize(
    "p,q,expected",
    [(2, 2, 1), (2, 3, 1), (2, 4, 2), (3, 3, 3), (2, 5, 2), (3, 4, 8)],
)
def test_class_counts_frozen_from_labeled_oracle(p, q, expected):
    assert count_classes(EnumSpec(p, q)) == expected


def test_yields_valid_graphs_without_duplicates():
    from wiener_unicyclic import graph6_decode

    for p, q in [(2, 4), (3, 4), (4, 4), (3, 5)]:
        seen = set()
        for g, w in enumerate_unicyclic_bipartite(EnumSpec(p, q)):
            assert w == wiener_index(g)
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
            forms = {canonical_form(g) for g, _ in enumerate_unicyclic_bipartite(EnumSpec(p, q))}
            assert canonical_form(build_onion(extremal_onion_params(p, q))) in forms
            assert canonical_form(build_min_extremal(p, q)) in forms


def test_deterministic_across_runs():
    spec = EnumSpec(4, 5)
    first = list(enumerate_unicyclic_bipartite(spec))
    second = list(enumerate_unicyclic_bipartite(spec))
    assert first == second
    forms = [canonical_form(g) for g, _ in first]
    assert forms == sorted(forms)


def test_count_matches_stream_length():
    spec = EnumSpec(3, 6)
    assert count_classes(spec) == len(list(enumerate_unicyclic_bipartite(spec)))


# unlabeled rooted tree counts for n = 1..19 (OEIS A000081)
A000081 = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973, 87811, 235381,
           634847, 1721159, 4688676]


def test_rooted_tree_counts_are_correct():
    table = RootedTrees(12)
    assert table.size == sorted(table.size)
    assert [table.size.count(s) for s in range(1, 13)] == A000081[:12]
    children = [table.children(t) for t in range(len(table.size))]
    assert len(set(children)) == len(children)


@pytest.mark.skipif(not os.environ.get("WU_ACCEPT_N13"), reason="size 19 needs WU_ACCEPT_N13")
def test_rooted_tree_counts_to_size_nineteen():
    # the 7,421,146 trees that order 22 reads, each size written in its own id range
    table = RootedTrees(19)
    assert len(table.size) == sum(A000081) == 7_421_146
    assert [table.size.count(s) for s in range(1, 20)] == A000081
    assert [table.bounds[s + 1][0] - table.bounds[s][0] for s in range(1, 20)] == A000081


@pytest.mark.parametrize("max_size", [0, -1])
def test_rooted_tree_table_needs_a_vertex(max_size):
    with pytest.raises(ValueError, match=f"needs max_size >= 1, not {max_size}"):
        RootedTrees(max_size)


def test_rooted_tree_columns_follow_from_children():
    # every column recomputed by summing over all children, ids in (size, odd, children) order
    table = RootedTrees(12)
    children = [table.children(t) for t in range(len(table.size))]
    size, depth, square, odd = [], [], [], []
    for t, kids in enumerate(children):
        assert all(c < t for c in kids), t
        assert list(kids) == sorted(kids), t
        size.append(1 + sum(size[c] for c in kids))
        depth.append(sum(depth[c] + size[c] for c in kids))
        square.append(sum(square[c] + size[c] ** 2 for c in kids))
        odd.append(sum(size[c] - odd[c] for c in kids))
    assert (table.size, table.depth_sum, table.square_sum, table.odd) == (size, depth, square, odd)
    keys = list(zip(size, odd, children))
    assert keys == sorted(keys)


def test_every_tree_is_found_by_its_bracelet_code():
    # each tree t of up to 12 vertices hung from a 4-cycle and relabeled: the
    # bisections of bracelet_code lead back to t, and children(t) unfolds
    # (first[t], rest[t]) into ascending ids
    rng = random.Random(1998)
    table = RootedTrees(12)
    for t in range(len(table.size)):
        kids = table.children(t)
        assert list(kids) == sorted(kids), t
        assert kids[:1] == ((table.first[t],) if t else ()), t
        g = table.graph((0, 0, 0, t))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert table.bracelet_code(g.relabel(perm)) == (0, 0, 0, t), t


def test_odd_count_bounds_read_as_clamped():
    table = RootedTrees(9)
    for s in range(1, 10):
        row = table.bounds[s]
        for o in range(-12, 12):
            assert row[o] == row[min(max(o, 0), s)], (s, o)
        for o in range(s):
            ids = range(row[o], row[o + 1])
            assert all(table.size[t] == s and table.odd[t] == o for t in ids)
        assert sum(len(range(row[o], row[o + 1])) for o in range(s)) == table.size.count(s)


@pytest.mark.parametrize(
    "max_size, digest",
    [
        (15, "f72b5aad64041873f586eb158bc71a85379253f080b24d8232619a638320a9de"),
        pytest.param(
            17,
            "0618b77d9c30f28a1fb83059fd5be5e0628c6b76094a1343c826de7544f07dfe",
            marks=pytest.mark.skipif(not os.environ.get("WU_ACCEPT_N13"), reason="size 17 needs WU_ACCEPT_N13"),
        ),
    ],
    ids=["size15", "size17"],
)
def test_tree_table_is_pinned(max_size, digest):
    # the sha256 of every tree's children, every numeric column and bounds,
    # so every tree keeps its id and its numbers; the class-stream record
    # reads beads of up to 13 vertices, and orders 17 to 20 read trees of
    # up to 17
    trees = RootedTrees(max_size)
    h = hashlib.sha256()
    children = [trees.children(t) for t in range(len(trees.size))]
    for column in (children, trees.size, trees.depth_sum, trees.square_sum, trees.odd, trees.bounds):
        h.update(repr(column).encode())
    assert h.hexdigest() == digest


def test_class_stream_is_every_bracelet_in_order():
    # the pruned search against a brute-force bracelet list over the same ids,
    # at every pair a table run up to p + q = 12 searches; and the premises of
    # the search's prunes on every bracelet of that list, for m <= L - 2: the
    # head prune's, a[m..1] >= a[1..m] wherever a[m] = a[1], and the last-bead
    # bound's, a[L] >= a[m + 1] after each palindromic prefix a[1..m]
    heads = prefixes = 0
    for n in range(4, 13):
        table = RootedTrees(n - 3)
        for p in range(2, n // 2 + 1):
            mine = [ids for _, ids in unicyclic_classes(EnumSpec(p, n - p))]
            brute = bracelet_stream(p, n - p, table)
            assert mine == brute, (p, n - p)
            for seq in brute:
                for m in range(1, len(seq) - 1):
                    back = seq[m - 1 :: -1]
                    if back[0] == seq[0]:
                        heads += 1
                        assert back >= seq[:m], (seq, m)
                    if back == seq[:m]:
                        prefixes += 1
                        assert seq[-1] >= seq[m], (seq, m)
    assert prefixes > 0 and heads > prefixes


def test_stream_does_not_depend_on_table_size():
    # one table of the largest size serves every pair of a table run, in any
    # order: what a search remembers of its last-bead checks dies with it
    pairs = [(p, n - p) for n in range(4, 13) for p in range(2, n // 2 + 1)]
    own = {pq: unicyclic_classes(EnumSpec(*pq), RootedTrees(sum(pq) - 3)) for pq in pairs}
    shared = RootedTrees(9)
    for pq in pairs[::-1] + pairs:
        assert unicyclic_classes(EnumSpec(*pq), shared) == own[pq], pq


def test_every_last_bead_call_gets_a_non_empty_span(monkeypatch):
    # position L - 1 returns before it builds a head where no last bead fits,
    # and it passes on only the non-empty last-bead ranges, clipped at the
    # last-bead bound; for each bead j at L - 1, the accepted last beads are
    # all of the spans laid end to end, all but the first, or none (orders 15
    # and 16 need WU_ACCEPT_N13)
    calls = []
    append = enumeration._append_bracelets

    def counting(head, beads, spans, w, base, out):
        calls.append((head, tuple(beads), [len(span) for span in spans]))
        before = len(out)
        append(head, beads, spans, w, base, out)
        ks = [k for span in spans for k in span]
        accepted = {j: [] for j in beads}
        for _, seq in out[before:]:
            accepted[seq[-2]].append(seq[-1])
        for j, got in accepted.items():
            assert got in (ks, ks[1:], []), (head, j)

    monkeypatch.setattr(enumeration, "_append_bracelets", counting)
    for n in range(4, 17 if os.environ.get("WU_ACCEPT_N13") else 15):
        for p in range(2, n // 2 + 1):
            unicyclic_classes(EnumSpec(p, n - p))
    assert calls
    assert [call for call in calls if not call[1] or not all(call[2])] == []


@pytest.mark.parametrize(
    "n,expected",
    [
        (13, dict(extend=561, fits=128, close=708, _append_bracelets=1103, candidates=5695,
                  _reversal_below=1485, reversals_below=102, classes=5582)),
        pytest.param(
            16,
            dict(extend=10569, fits=490, close=15943, _append_bracelets=18504, candidates=132826,
                 _reversal_below=30962, reversals_below=2700, classes=129254),
            marks=pytest.mark.skipif(not os.environ.get("WU_ACCEPT_N13"), reason="order 16 needs WU_ACCEPT_N13"),
        ),
    ],
    ids=["n13", "n16"],
)
def test_search_work_is_pinned(monkeypatch, n, expected):
    # the search's work summed over every pair of one order, so that a
    # weakened prune, which keeps the class stream, still fails a test; the
    # nested extend, close and fits are counted by name under a profile
    # hook, and fits only where its cache misses
    counts = dict.fromkeys(expected, 0)
    append, below = enumeration._append_bracelets, enumeration._reversal_below

    def counting_append(head, beads, spans, w, base, out):
        counts["_append_bracelets"] += 1
        counts["candidates"] += len(beads) * sum(map(len, spans))
        append(head, beads, spans, w, base, out)

    def counting_below(seq, rev, first):
        counts["_reversal_below"] += 1
        found = below(seq, rev, first)
        counts["reversals_below"] += found
        return found

    nested = {"extend", "close", "fits"}

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == enumeration.__file__ and code.co_name in nested:
            counts[code.co_name] += 1

    monkeypatch.setattr(enumeration, "_append_bracelets", counting_append)
    monkeypatch.setattr(enumeration, "_reversal_below", counting_below)
    table = RootedTrees(n - 3)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for p in range(2, n // 2 + 1):
            counts["classes"] += len(unicyclic_classes(EnumSpec(p, n - p), table))
    finally:
        sys.setprofile(previous)
    assert counts == expected


def test_search_rejects_a_table_below_its_order():
    with pytest.raises(ValueError, match="reaches 3 vertices, order 7 needs 4"):
        unicyclic_classes(EnumSpec(3, 4), RootedTrees(3))


def test_search_result_is_freed_without_garbage_collection():
    # the search leaves no reference cycle behind, so nothing waits for a gc pass
    gc.disable()
    try:
        gc.collect()
        unicyclic_classes(EnumSpec(3, 4))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_matches_tree_plus_edge_route():
    for n in range(4, 11):
        table = RootedTrees(n - 3)
        for p in range(2, n // 2 + 1):
            classes = unicyclic_classes(EnumSpec(p, n - p), table)
            mine = [canonical_form(table.graph(ids)) for _, ids in classes]
            assert len(set(mine)) == len(mine), (p, n - p)
            assert set(mine) == tree_plus_edge_classes(p, n - p), (p, n - p)


def test_structural_wiener_matches_bfs():
    for n in range(4, 13):
        table = RootedTrees(n - 3)
        for p in range(2, n // 2 + 1):
            for w, ids in unicyclic_classes(EnumSpec(p, n - p), table):
                assert w == wiener_index(table.graph(ids)), ids


def test_carried_wiener_matches_leaf_formula():
    # the W the search carries down its recursion against the whole-sequence sum
    for n in range(4, 14):
        table = RootedTrees(n - 3)
        for p in range(2, n // 2 + 1):
            for w, ids in unicyclic_classes(EnumSpec(p, n - p), table):
                assert w == structural_wiener(table, ids), ids


def test_class_stream_order_is_cycle_length_then_tree_ids():
    seq = [ids for _, ids in unicyclic_classes(EnumSpec(5, 7))]
    assert seq == sorted(seq, key=lambda ids: (len(ids), ids))


def test_bracelet_code_of_a_relabeled_class_is_its_tree_ids():
    # the AHU code of every class's graph under a random labeling, against the search's ids
    rng = random.Random(1974)
    table = RootedTrees(9)
    for n in range(4, 13):
        for p in range(2, n // 2 + 1):
            for _, ids in unicyclic_classes(EnumSpec(p, n - p), table):
                g = table.graph(ids)
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert table.bracelet_code(g.relabel(perm)) == ids, ids


@pytest.mark.parametrize(
    "g, message",
    [
        (Graph.from_edges(3, [(0, 1), (1, 2)]), "no cycle"),
        (
            Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)]),
            "more than one cycle",
        ),
        (Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]), "not connected"),
        (Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)]), "not connected"),
        # the path is a tree larger than the table, but connectivity is decided first
        (
            Graph.from_edges(
                10,
                [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)],
            ),
            "not connected",
        ),
    ],
    ids=["tree", "two-cycles", "extra-edge", "isolated-vertex", "long-path-apart"],
)
def test_bracelet_code_rejects_graphs_that_are_not_connected_unicyclic(g, message):
    with pytest.raises(ValueError, match=message):
        RootedTrees(3).bracelet_code(g)


def test_bracelet_code_rejects_a_hanging_tree_beyond_the_table():
    # a path of four vertices hangs at cycle vertex 0: a rooted tree of five
    g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 7)])
    with pytest.raises(ValueError, match="more than the table's 4 vertices"):
        RootedTrees(4).bracelet_code(g)
    table = RootedTrees(5)
    *bare, path = table.bracelet_code(g)
    assert bare == [0, 0, 0] and table.size[path] == 5
