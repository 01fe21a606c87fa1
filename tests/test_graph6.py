"""graph6 codec: round-trips, cross-checks against networkx, parse errors."""

import random

import networkx as nx
import pytest

from wiener_unicyclic import (
    Graph,
    Graph6ParseError,
    build_cycle,
    build_path,
    graph6_decode,
    graph6_encode,
    random_connected_graph,
)


def nx_encode(g: Graph) -> str:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return nx.to_graph6_bytes(G, header=False).decode().strip()


def test_cycle_four_roundtrip():
    g = build_cycle(4)
    line = graph6_encode(g)
    assert graph6_decode(line) == g


def test_single_vertex_roundtrip():
    g = Graph.from_edges(1, [])
    assert graph6_encode(g) == "@"
    assert graph6_decode("@") == g


def test_matches_networkx_encoding():
    rng = random.Random(123)
    for _ in range(300):
        g = random_connected_graph(rng, 1, 14)
        assert graph6_encode(g) == nx_encode(g)


def test_large_order_extended_size():
    for n in (63, 64):
        g = build_path(n)
        line = graph6_encode(g)
        assert line.startswith("~")
        assert graph6_decode(line) == g
        assert line == nx_encode(g)


@pytest.mark.parametrize("n", [62, 63, 64])
def test_decode_matches_networkx_at_largest_orders(n):
    G = nx.gnp_random_graph(n, 0.3, seed=n)
    line = nx.to_graph6_bytes(G, header=False).strip()
    assert line.startswith(b"~") == (n > 62)
    g = graph6_decode(line.decode())
    H = nx.from_graph6_bytes(line)
    assert g.n == H.number_of_nodes()
    assert g.edges() == sorted(tuple(sorted(e)) for e in H.edges())


@pytest.mark.parametrize("n", range(65))
def test_decode_at_every_order(n):
    # every size form and every count of padding bits, from empty to complete
    rng = random.Random(n)
    for density in (0, 0.1, 0.5, 0.9, 1):
        pairs = [(i, j) for j in range(1, n) for i in range(j) if rng.random() < density]
        g = Graph.from_edges(n, pairs)
        line = graph6_encode(g)
        assert graph6_decode(line) == g
        H = nx.from_graph6_bytes(line.encode())
        assert H.number_of_nodes() == n
        assert g.edges() == sorted(tuple(sorted(e)) for e in H.edges())


def test_padding_bits_are_ignored():
    # one bit of body, five of padding: set padding decodes as in networkx
    for line in ("A_", "A`"):
        assert graph6_decode(line).edges() == [(0, 1)]
        assert list(nx.from_graph6_bytes(line.encode()).edges()) == [(0, 1)]
    assert graph6_decode("A@").edges() == []


def test_decode_networkx_output():
    rng = random.Random(5)
    for _ in range(100):
        g = random_connected_graph(rng, 2, 12)
        assert graph6_decode(nx_encode(g)) == g


def test_header_accepted():
    g = build_cycle(4)
    assert graph6_decode(">>graph6<<" + graph6_encode(g)) == g


def test_trailing_newline_tolerated():
    g = build_cycle(5)
    assert graph6_decode(graph6_encode(g) + "\n") == g


def test_truncated_line_errors_with_offset():
    g = build_path(10)
    line = graph6_encode(g)
    with pytest.raises(Graph6ParseError) as exc:
        graph6_decode(line[:-1])
    assert exc.value.offset == len(line) - 1


def test_trailing_garbage_rejected():
    line = graph6_encode(build_cycle(4))
    with pytest.raises(Graph6ParseError):
        graph6_decode(line + "??")


def test_invalid_character_offset():
    with pytest.raises(Graph6ParseError) as exc:
        graph6_decode("C\x1f")
    assert exc.value.offset == 1


def test_empty_line_rejected():
    with pytest.raises(Graph6ParseError):
        graph6_decode("")


@pytest.mark.parametrize(
    "line, message, offset",
    [
        ("~?", "truncated extended size field", 2),
        ("~~??????", "36-bit graph6 sizes unsupported", 1),
        ("~?@@", "graph order 65 exceeds supported 64", 0),
    ],
    ids=["truncated-size", "36-bit-size", "order-65"],
)
def test_extended_size_field_errors(line, message, offset):
    with pytest.raises(Graph6ParseError, match=message) as exc:
        graph6_decode(line)
    assert exc.value.offset == offset
