"""Canonical form: invariance, completeness on small orders, limits."""

import hashlib
import itertools
import random

import pytest

from wiener_unicyclic import (
    Graph,
    OnionParams,
    build_cycle,
    build_onion,
    build_path,
    build_star,
    canonical_form,
    random_connected_graph,
)
from wiener_unicyclic.canon import CANONICAL_MAX_VERTICES, graph_from_canonical
from wiener_unicyclic.graphs import MAX_VERTICES


def test_cycle_relabeling_invariance():
    g = build_cycle(4)
    base = canonical_form(g)
    for perm in itertools.permutations(range(4)):
        assert canonical_form(g.relabel(list(perm))) == base


def test_onion_swap_symmetry_when_middle_is_single_vertex():
    for a in range(7):
        for b in range(7):
            lhs = canonical_form(build_onion(OnionParams(a, 1, b)))
            rhs = canonical_form(build_onion(OnionParams(b, 1, a)))
            assert lhs == rhs


def test_path_vs_star_differ():
    assert canonical_form(build_path(4)) != canonical_form(build_star(3))


def test_random_relabeling_invariance():
    rng = random.Random(31337)
    for _ in range(500):
        g = random_connected_graph(rng, 2, 12)
        base = canonical_form(g)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == base


#: Frucht's graph: cubic on 12 vertices, with no automorphism but the identity.
FRUCHT_EDGES = [(i, (i + 1) % 7) for i in range(7)] + [
    (0, 7), (1, 7), (2, 8), (3, 9), (4, 9), (5, 10), (6, 10), (7, 11), (8, 11), (8, 9), (10, 11),
]


def random_cubic(n: int) -> Graph:
    """Random simple cubic graph on n vertices, seeded by n: pair up 3n points until no loop or double edge."""
    rng = random.Random(n)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2]) if a != b}
        if len(edges) == 3 * n // 2:
            return Graph.from_edges(n, sorted(edges))


@pytest.mark.parametrize(
    "g",
    [
        Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
        Graph.from_edges(12, FRUCHT_EDGES),
        random_cubic(10),
        random_cubic(12),
        random_cubic(14),
    ],
    ids=["C3+C4", "frucht", "cubic-10", "cubic-12", "cubic-14"],
)
def test_regular_graph_relabeling_invariance(g):
    # equitable refinement cannot split a regular graph's unit cell, so the
    # search branches at once, and an automorphism test that prunes a branch
    # it should keep gives some relabeling a second form
    assert all(a.bit_count() == g.adj[0].bit_count() for a in g.adj)
    rng = random.Random(g.n)
    base = canonical_form(g)
    for _ in range(20):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g.relabel(perm)) == base


# sha256 of each order's sorted canonical forms over all labeled graphs
_LABELED_FORMS_SHA256 = {
    2: "e14b77bb203317724ad98b20cf058c977a65f1fbb20c40b5b71b9f063f68c64a",
    3: "4baf3bbd7d9d9c85b869d826c8d834a5c0f4f20f80dd1e5743a3b195210fa833",
    4: "36aae959a2f5d52433edea3c64bf7dd30283d8441398217ad4577344c745680f",
    5: "cd322b3c6517a5c9d060187c5c9d62d769bf94fdc7ce3696d4949a024d8293e1",
}


@pytest.mark.parametrize("n,expected_classes", [(2, 2), (3, 4), (4, 11), (5, 34)])
def test_complete_on_all_labeled_graphs(n, expected_classes):
    # distinct canonical forms over all labeled graphs must hit the known
    # number of unlabeled graphs exactly: no collisions, no over-splitting;
    # the sha256 of the sorted forms pins their bytes, which a refinement
    # that splits cells differently can change without changing the count
    pairs = list(itertools.combinations(range(n), 2))
    forms = set()
    for bitsel in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bitsel >> i & 1]
        forms.add(canonical_form(Graph.from_edges(n, edges)))
    assert len(forms) == expected_classes
    assert hashlib.sha256(b"".join(sorted(forms))).hexdigest() == _LABELED_FORMS_SHA256[n]


def test_trivial_orders():
    assert canonical_form(Graph.from_edges(0, [])) == bytes([0])
    assert canonical_form(Graph.from_edges(1, [])) == bytes([1])


def test_size_limit():
    g = Graph.from_edges(CANONICAL_MAX_VERTICES + 1, [])
    with pytest.raises(ValueError):
        canonical_form(g)


def test_canonical_graph_roundtrip():
    rng = random.Random(17)
    for _ in range(100):
        g = random_connected_graph(rng, 2, 12)
        form = canonical_form(g)
        rebuilt = graph_from_canonical(form)
        assert canonical_form(rebuilt) == form
        assert rebuilt.n == g.n and rebuilt.num_edges == g.num_edges


def test_decoding_rejects_an_order_above_the_graph_limit():
    n = MAX_VERTICES + 6
    form = bytes([n]) + bytes((n * (n - 1) // 2 + 7) // 8)
    with pytest.raises(ValueError, match=f"{n} vertices exceeds the supported {MAX_VERTICES}"):
        graph_from_canonical(form)


@pytest.mark.parametrize(
    "form, message",
    [(b"", "empty"), (bytes([3]), "wrong length"), (bytes([3, 0, 0]), "wrong length")],
)
def test_decoding_rejects_malformed_forms(form, message):
    # three vertices take one body byte: none is too short, two too long
    with pytest.raises(ValueError, match=message):
        graph_from_canonical(form)


@pytest.mark.parametrize("body", [0xE0, 0x08])
def test_decoding_rejects_set_padding_bits(body):
    # three vertices take three bits, the low ones of their byte; 0300 is the empty graph
    with pytest.raises(ValueError, match="padding"):
        graph_from_canonical(bytes([3, body]))
    assert graph_from_canonical(bytes([3, body & 0x07])) == Graph.from_edges(3, [])
