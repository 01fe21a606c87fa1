"""Isomorphism-free enumeration of connected unicyclic bipartite graphs.

A connected unicyclic graph is a cycle with a rooted tree hanging at each
cycle vertex, and it is bipartite exactly when the cycle is even. Two
such graphs are isomorphic exactly when their sequences of rooted trees
around the cycle agree up to rotation and reflection, so each class is
one *bracelet* whose beads are rooted trees. The enumerator lists those
bracelets directly and never compares two graphs:

* **Rooted trees.** Every rooted tree on up to n - 3 vertices (the most
  one tree can take beside a 4-cycle) gets an integer id, smaller trees
  first; a tree is the sorted tuple of its children's ids, so equal
  trees get equal ids.
* **Bracelets.** For each cycle length L = 4, 6, ..., n the
  Fredricksen-Kessler-Maiorana recursion lists, in lexicographic order,
  every sequence of L tree ids of total size n that is the least of its
  L rotations (a necklace). Keeping those that are also no larger than
  every rotation of their reversal leaves one sequence per bracelet
  (Sawada, "Generating bracelets in constant amortized time", 2001).
  Colouring cycle vertex 0 fixes both colour classes; the last bead is
  only drawn from trees that make them {p, q}.
* **Wiener index.** With s_i, D_i and Q_i the size, depth sum and sum of
  squared non-root subtree sizes of the tree at cycle vertex i,
  W = n * sum(D_i) - sum(Q_i) + sum over i < j of s_i * s_j * d_C(i, j),
  where d_C is the distance along the cycle. No BFS is needed.

The class stream comes in a fixed order (cycle length, then tree ids).
The search runs in the calling process: at the orders the canonical-form
guard allows it takes at most about a second per (p, q), less than a
process pool costs to start. Only ``enumerate_unicyclic_bipartite``
builds every graph, and it pays one canonical form per class.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .canon import CANONICAL_MAX_VERTICES, canonical_form, graph_from_canonical
from .graphs import Graph

DEFAULT_MAX_N = 14


@dataclass(frozen=True)
class EnumSpec:
    """Part sizes to enumerate, plus a guard against runaway orders."""

    p: int
    q: int
    max_n: int = DEFAULT_MAX_N

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError(f"p must be at least 2, got {self.p}")
        if self.q < self.p:
            raise ValueError(f"need p <= q, got ({self.p}, {self.q})")
        if self.max_n > CANONICAL_MAX_VERTICES:
            raise ValueError(
                f"max_n {self.max_n} exceeds canonical-form limit {CANONICAL_MAX_VERTICES}"
            )
        if self.n > self.max_n:
            raise ValueError(f"order {self.n} exceeds max_n {self.max_n}")

    @property
    def n(self) -> int:
        return self.p + self.q


class RootedTrees:
    """Every unlabeled rooted tree on at most ``max_size`` vertices.

    Ids run by size, and within one size by the number of vertices at odd
    depth, so ``span(s, o)`` is a contiguous id range. Per id the table
    holds the children's ids, the size, the depth sum D, the sum Q of
    squared subtree sizes over non-root vertices, and the number of
    vertices at odd depth.
    """

    def __init__(self, max_size: int) -> None:
        self.children: list[tuple[int, ...]] = []
        self.size: list[int] = []
        self.depth_sum: list[int] = []
        self.square_sum: list[int] = []
        self.odd: list[int] = []
        # bounds[s][o]: first id of size s with o (or more) odd-depth vertices
        self.bounds: list[list[int]] = [[0]]
        for s in range(1, max_size + 1):
            first = len(self.size)
            self.bounds.append([first])  # first(s) while the trees of size s are built
            trees = sorted(
                (sum(self.size[c] - self.odd[c] for c in kids), kids)
                for kids in self._forests(s - 1, 0)
            )
            for odd, kids in trees:
                self.children.append(kids)
                self.size.append(s)
                self.depth_sum.append(sum(self.depth_sum[c] + self.size[c] for c in kids))
                self.square_sum.append(sum(self.square_sum[c] + self.size[c] ** 2 for c in kids))
                self.odd.append(odd)
            odds = [odd for odd, _ in trees]
            self.bounds[s] = [first + bisect_left(odds, o) for o in range(s + 1)]
        self.bounds.append([len(self.size)])

    def _forests(self, total: int, low: int) -> Iterator[tuple[int, ...]]:
        """Sorted id tuples, each id at least ``low``, of total size ``total``."""
        if total == 0:
            yield ()
            return
        for c in range(low, self.first(total + 1)):
            rest = total - self.size[c]
            if rest == 0 or rest >= self.size[c]:
                for tail in self._forests(rest, c):
                    yield (c,) + tail

    def first(self, size: int) -> int:
        """The smallest id of a tree with ``size`` vertices (or more)."""
        return self.bounds[size][0]

    def span(self, size: int, odd: int) -> range:
        """Ids of the trees with ``size`` vertices, ``odd`` of them at odd depth."""
        if not 0 <= odd < size:
            return range(0)
        return range(self.bounds[size][odd], self.bounds[size][odd + 1])

    def wiener(self, ids: Sequence[int]) -> int:
        """Wiener index of the even cycle carrying these trees in order."""
        size = self.size
        sizes = [size[t] for t in ids]
        n = sum(sizes)
        total = n * sum(self.depth_sum[t] for t in ids) - sum(self.square_sum[t] for t in ids)
        length = len(sizes)
        half = length // 2
        for k in range(1, half):
            total += k * sum(sizes[i] * sizes[i - k] for i in range(length))
        return total + half * sum(sizes[i] * sizes[i + half] for i in range(half))

    def graph(self, ids: Sequence[int]) -> Graph:
        """The cycle 0, 1, ..., L-1 with tree ``ids[i]`` rooted at vertex i."""
        length = len(ids)
        edges = [(i, (i + 1) % length) for i in range(length)]
        stack = list(enumerate(ids))
        n = length
        while stack:
            v, t = stack.pop()
            for c in self.children[t]:
                edges.append((v, n))
                stack.append((n, c))
                n += 1
        return Graph.from_edges(n, edges)


@dataclass(frozen=True)
class UnicyclicClass:
    """One isomorphism class: tree ids around the cycle, and its Wiener index."""

    wiener: int
    trees: tuple[int, ...]
    table: RootedTrees = field(repr=False, compare=False)

    def graph(self) -> Graph:
        """A representative graph (cycle vertices first, not canonically labeled)."""
        return self.table.graph(self.trees)


def _search(p: int, q: int, trees: RootedTrees) -> list[tuple[int, tuple[int, ...]]]:
    """(W, tree ids) of every class with parts (p, q), in stream order."""
    n = p + q
    size, odd, first, span = trees.size, trees.odd, trees.first, trees.span
    out: list[tuple[int, tuple[int, ...]]] = []

    for length in range(4, n + 1, 2):
        a = [0] * (length + 1)  # a[1..length]; a[0] is the recursion's sentinel

        def leaf() -> None:
            seq = tuple(a[1:])
            rev = seq[::-1]
            for k in range(length):
                if rev[k:] + rev[:k] < seq:
                    return
            out.append((trees.wiener(seq), seq))

        def extend(t: int, period: int, used: int, colour: int) -> None:
            # colour counts the vertices coloured like cycle vertex 0
            low = a[t - period]
            rest = n - used
            if t == length:
                # the last root has cycle vertex 0's colour on its odd levels
                for o in sorted({p - colour, q - colour}):
                    ids = span(rest, o)
                    for j in range(max(low, ids.start), ids.stop):
                        a[t] = j
                        if length % (period if j == low else t) == 0:
                            leaf()
                return
            # every later bead is at least a[1], so at least as large
            smallest = size[a[1]] if t > 1 else 0
            most = (rest // length) if t == 1 else rest - (length - t) * smallest
            for j in range(low, first(min(most, n - 3) + 1)):
                a[t] = j
                extend(
                    t + 1,
                    period if j == low else t,
                    used + size[j],
                    colour + (size[j] - odd[j] if t % 2 else odd[j]),
                )

        extend(1, 1, 0, 0)
    return out


def unicyclic_classes(spec: EnumSpec) -> Iterator[UnicyclicClass]:
    """Each isomorphism class for ``spec`` exactly once, with its Wiener index.

    The order is fixed: cycle length, then tree ids.
    """
    table = RootedTrees(spec.n - 3)
    for w, ids in _search(spec.p, spec.q, table):
        yield UnicyclicClass(w, ids, table)


def enumerate_unicyclic_bipartite(spec: EnumSpec) -> Iterator[Graph]:
    """One representative per isomorphism class, in canonical-form order.

    The representative itself is canonically labeled, so the stream does
    not depend on how the classes were found.
    """
    forms = sorted(canonical_form(c.graph()) for c in unicyclic_classes(spec))
    for key in forms:
        yield graph_from_canonical(key)


def count_classes(spec: EnumSpec) -> int:
    """Number of isomorphism classes the stream would yield."""
    return sum(1 for _ in unicyclic_classes(spec))
