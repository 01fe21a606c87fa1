"""Builders for the graph families under study and their closed forms.

The central family is the *onion graph* On(k, l, m): a 4-cycle whose two
antipodal vertices u, v carry all attachments — k pendant edges at v,
and a path on l vertices starting at u whose far end u_l carries m
pendant edges (for l = 1 the far end is u itself). Onions on p+q
vertices with part sizes (p, q) are the conjectured-maximal unicyclic
bipartite graphs; the minimal ones hang p-2 and q-2 pendants off two
adjacent cycle vertices instead.

Vertex ids are fixed and documented so the closed-form transmission
values have stable anchors:

* onion: cycle = 0-1-2-3-0 with v = 0 and u = 2; path vertices continue
  4, 5, ..., l+2 (so u_l is ``l+2`` when l >= 2, else 2); then the k
  pendants of v, then the m pendants of u_l.
* minimal construction: cycle 0-1-2-3-0, p-2 pendants at 0, q-2 at 1.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .graphs import MAX_VERTICES, Graph


def _exact_div(num: int, den: int) -> int:
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"expected {num} divisible by {den}")
    return quot


class _OnionFields(NamedTuple):
    k: int
    l: int
    m: int


class OnionParams(_OnionFields):
    """Parameters (k, l, m) of the onion graph On(k, l, m), checked on construction.

    ``_make`` and ``_replace`` build the tuple directly and skip the checks.
    """

    __slots__ = ()

    def __new__(cls, k: int, l: int, m: int) -> "OnionParams":
        if k < 0 or m < 0:
            raise ValueError(f"pendant counts must be nonnegative: k={k}, m={m}")
        if l < 1:
            raise ValueError(f"path must have at least one vertex: l={l}")
        return super().__new__(cls, k, l, m)

    @property
    def n(self) -> int:
        return self.k + self.l + self.m + 3

    #: cycle vertex carrying the k pendants
    @property
    def v_id(self) -> int:
        return 0

    #: antipodal cycle vertex where the path starts
    @property
    def u_id(self) -> int:
        return 2

    @property
    def path_end_id(self) -> int:
        """Id of u_l, the path vertex carrying the m pendants."""
        return 2 if self.l == 1 else self.l + 2


def build_path(n: int) -> Graph:
    """Path on n vertices, labeled 0..n-1 along the path."""
    if n < 1:
        raise ValueError(f"path needs at least 1 vertex, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def build_cycle(n: int) -> Graph:
    """Cycle on n vertices, labeled 0..n-1 around the cycle."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def build_star(k: int) -> Graph:
    """Star with k leaves (k+1 vertices), center 0."""
    if k < 0:
        raise ValueError(f"leaf count must be nonnegative, got {k}")
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def build_onion(params: OnionParams) -> Graph:
    """Onion graph On(k, l, m) with the labeling documented above."""
    k, l, m = params.k, params.l, params.m
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    prev = 2
    for j in range(2, l + 1):
        edges.append((prev, j + 2))
        prev = j + 2
    base = l + 3
    edges += [(0, base + i) for i in range(k)]
    end = params.path_end_id
    edges += [(end, base + k + i) for i in range(m)]
    return Graph.from_edges(params.n, edges)


def onion_wiener_closed_form(params: OnionParams) -> int:
    """Wiener index of On(k, l, m) without building the graph.

    W = k^2 + 7k + 8 + (l^3 - l)/6 + m^2 + m(l^2 + l - 2)/2
        + (k + 3)((l^2 - l)/2 + ml) + (l + m - 1)(3k + 4)

    All divisions are exact; a failed exactness check means the
    parameters were misread.
    """
    k, l, m = params.k, params.l, params.m
    return (
        k * k
        + 7 * k
        + 8
        + _exact_div(l**3 - l, 6)
        + m * m
        + m * _exact_div(l * l + l - 2, 2)
        + (k + 3) * (_exact_div(l * l - l, 2) + m * l)
        + (l + m - 1) * (3 * k + 4)
    )


def onion_transmissions(params: OnionParams) -> tuple[int, int]:
    """Closed-form transmissions (t(v), t(u_l)) of an onion graph."""
    k, l, m = params.k, params.l, params.m
    t_v = k + 1 + comb(l + 2, 2) + m * (l + 2)
    t_ul = m + comb(l + 2, 2) + l + k * (l + 2)
    return t_v, t_ul


def coalesce(g1: Graph, u: int, g2: Graph, w: int) -> tuple[Graph, tuple[int, ...]]:
    """Identify vertex ``u`` of g1 with vertex ``w`` of g2.

    The result keeps g1's labels; g2's remaining vertices follow in
    increasing original order starting at ``g1.n``, so x != w becomes
    g1.n + x - (x > w). Returns the merged graph together with the map
    ``new_id_of[g2_vertex]``. Raises ``ValueError`` when the merged graph
    would have more than ``MAX_VERTICES`` vertices.
    """
    if g1.n == 0 or g2.n == 0:
        raise ValueError("coalesce needs two nonempty graphs")
    n1, n = g1.n, g1.n + g2.n - 1
    if n > MAX_VERTICES:
        raise ValueError(f"coalesced order {n} exceeds the {MAX_VERTICES}-vertex limit")
    g1.check_vertex(u)
    g2.check_vertex(w)
    remap = (*range(n1, n1 + w), u, *range(n1 + w, n))
    adj = list(g1.adj) + [0] * (n - n1)
    for x, mask in enumerate(g2.adj):
        # the bits below w move up by n1, those above w by n1 - 1, and bit w goes to u
        below, above = mask & (1 << w) - 1, mask >> w + 1
        adj[remap[x]] |= below << n1 | above << n1 + w | (mask >> w & 1) << u
    return Graph(n, tuple(adj)), remap


def build_min_extremal(p: int, q: int) -> Graph:
    """Minimal-Wiener candidate: 4-cycle with p-2 pendants at vertex 0
    and q-2 pendants at its neighbour 1."""
    _check_part_sizes(p, q)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    edges += [(0, 4 + i) for i in range(p - 2)]
    edges += [(1, p + 2 + i) for i in range(q - 2)]
    return Graph.from_edges(p + q, edges)


def min_wiener_polynomial(p: int, q: int) -> int:
    """Wiener index of ``build_min_extremal(p, q)`` without building the graph.

    W = p^2 + 3pq + q^2 - 3(p + q)

    Derivation: the 4-cycle 0-1-2-3 carries a = p - 2 pendants at vertex 0
    and b = q - 2 at vertex 1. Its own six pairs give 4 * 1 + 2 * 2 = 8. A
    pendant of 0 is 1 from 0, 2 from 1 and 3, and 3 from 2, so 8 in all, and
    likewise a pendant of 1. Two pendants of one vertex are 2 apart, and a
    pendant of 0 is 3 from a pendant of 1. So
    W = 8 + 8(a + b) + a(a - 1) + b(b - 1) + 3ab, which expands to the above.
    """
    _check_part_sizes(p, q)
    return p * p + 3 * p * q + q * q - 3 * (p + q)


def extremal_onion_params(p: int, q: int) -> OnionParams:
    """Onion parameters of the conjectured-maximal graph for part sizes (p, q)."""
    _check_part_sizes(p, q)
    return OnionParams(k=(q - p) // 2, l=2 * p - 3, m=(q - p + 1) // 2)


def theorem_polynomial(p: int, q: int) -> int:
    """Published closed-form polynomial for the maximum Wiener index.

    Transcribed verbatim as a cross-check. Exhaustive search shows it
    disagrees with the verified construction (it yields 63 at p = q = 3
    where the true maximum is 29), so callers must treat it as a
    reported value, never an expected one.
    """
    _check_part_sizes(p, q)
    ceil_half = (q - p + 1) // 2
    floor_half = (q - p) // 2
    return (
        (2 * p - 5) * ceil_half * floor_half
        + (p - 7) * ceil_half
        + (13 - 7 * p) * floor_half
        + 2 * p * p * q
        + (q - p) ** 2
        + 2 * p**3
        - 37 * p
        + 66
    )


def _check_part_sizes(p: int, q: int) -> None:
    if p < 2:
        raise ValueError(f"part sizes need p >= 2, got p={p}")
    if q < p:
        raise ValueError(f"part sizes must satisfy p <= q, got ({p}, {q})")
