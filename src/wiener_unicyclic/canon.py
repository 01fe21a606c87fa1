"""Canonical forms for small graphs.

``canonical_form`` maps two graphs to the same byte string exactly when
they are isomorphic. It takes the minimum adjacency encoding over the
leaves of an individualization-refinement search tree:

* refine the unit partition to an equitable one (vertices in a cell
  agree on their neighbour counts into every cell); the first pass
  splits the single cell by degree, in ascending order;
* while some cell has several vertices, split the first such cell on
  each of its vertices in turn and recurse;
* at a discrete partition, read off the upper-triangle adjacency bits
  in cell order and keep the lexicographic minimum.

Branches that differ only by swapping two vertices whose transposition
is an automorphism are pruned, which collapses the pendant clusters that
dominate the graphs handled here. Deterministic across runs and vertex
labelings; intended for n <= CANONICAL_MAX_VERTICES only.

Verification decides ``graph_match`` and ``uniqueness`` on bracelet codes
(``RootedTrees.bracelet_code``), not here: in verification the canonical
form only fills the printed witness fields, ``canon``, ``graph6`` and
``predicted_canon``.
"""

from __future__ import annotations

from .graphs import MAX_VERTICES, Graph, bits

CANONICAL_MAX_VERTICES = 16


def _refine(adj: tuple[int, ...], cells: list[int]) -> list[int]:
    """Refine an ordered partition (list of bitmask cells) to equitable."""
    while True:
        new_cells: list[int] = []
        changed = False
        for cell in cells:
            if cell & (cell - 1) == 0:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], int] = {}
            for v in bits(cell):
                sig = tuple((adj[v] & c).bit_count() for c in cells)
                groups[sig] = groups.get(sig, 0) | (1 << v)
            if len(groups) > 1:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(groups[sig])
            else:
                new_cells.append(cell)
        if not changed:
            return new_cells
        cells = new_cells


def _swap_is_automorphism(adj: tuple[int, ...], a: int, b: int) -> bool:
    strip = ~((1 << a) | (1 << b))
    return (adj[a] & strip) == (adj[b] & strip)


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string; equal iff the graphs are isomorphic."""
    n = g.n
    if n > CANONICAL_MAX_VERTICES:
        raise ValueError(
            f"canonical_form supports at most {CANONICAL_MAX_VERTICES} vertices, got {n}"
        )
    adj = g.adj

    nbits = n * (n - 1) // 2
    best: int | None = None

    def encode(cells: list[int]) -> int:
        order = [c.bit_length() - 1 for c in cells]
        enc = 0
        for i in range(n):
            ai = adj[order[i]]
            for j in range(i + 1, n):
                enc = enc << 1 | (ai >> order[j] & 1)
        return enc

    def search(cells: list[int]) -> None:
        nonlocal best
        target = -1
        for idx, c in enumerate(cells):
            if c & (c - 1):
                target = idx
                break
        if target < 0:
            enc = encode(cells)
            if best is None or enc < best:
                best = enc
            return
        cell = cells[target]
        tried: list[int] = []
        for v in bits(cell):
            if any(_swap_is_automorphism(adj, v, t) for t in tried):
                continue
            tried.append(v)
            split = cells[:target] + [1 << v, cell ^ (1 << v)] + cells[target + 1 :]
            search(_refine(adj, split))

    search(_refine(adj, [(1 << n) - 1]))
    assert best is not None
    return bytes([n]) + best.to_bytes((nbits + 7) // 8, "big")


def graph_from_canonical(form: bytes) -> Graph:
    """Rebuild the canonically labeled graph from its canonical form.

    ``canonical_form(graph_from_canonical(f)) == f`` for every form
    produced by :func:`canonical_form`, which makes the decoded graph a
    deterministic representative of its isomorphism class. Raises
    ``ValueError`` on a form of the wrong length, of more than
    ``MAX_VERTICES`` vertices, or with a set padding bit (the high bits of
    the byte after the order), none of which ``canonical_form`` produces.
    A well-formed form outside ``canonical_form``'s image decodes without
    error, to a graph whose form differs: ``bytes([3, 0x02])`` decodes to a
    one-edge graph whose form is ``0301``.
    """
    if not form:
        raise ValueError("empty canonical form")
    n = form[0]
    if n > MAX_VERTICES:
        raise ValueError(f"canonical form of {n} vertices exceeds the supported {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    if len(form) != 1 + (nbits + 7) // 8:
        raise ValueError("canonical form has the wrong length")
    body = int.from_bytes(form[1:], "big")
    if body >> nbits:
        raise ValueError("canonical form has non-zero padding bits")
    adj = [0] * n
    bit = nbits - 1
    for i in range(n):
        for j in range(i + 1, n):
            if body >> bit & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            bit -= 1
    return Graph(n, tuple(adj))
