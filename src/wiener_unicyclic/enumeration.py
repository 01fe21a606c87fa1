"""Isomorphism-free enumeration of connected unicyclic bipartite graphs.

A connected unicyclic graph is a cycle with a rooted tree hanging at each
cycle vertex, and it is bipartite exactly when the cycle is even. Two
such graphs are isomorphic exactly when their sequences of rooted trees
around the cycle agree up to rotation and reflection, so each class is
one *bracelet* whose beads are rooted trees. The enumerator lists those
bracelets directly and never compares two graphs:

* **Rooted trees.** Every rooted tree on up to n - 3 vertices (the most
  one tree can take beside a 4-cycle) gets an integer id: smaller trees
  first, then fewer vertices at odd depth, then by the ascending tuple of
  its children's ids, so equal trees get equal ids. A tree is stored as
  one pair, its least child c and its rest y, itself without c, and its
  numbers follow from c's and y's (a canonical parent, in the spirit of
  McKay, "Isomorph-free exhaustive generation", 1998). Two trees of one
  size and odd count with the same c have rests of one size and odd
  count, whose ids run as their tuples do, so the pairs (c, y) increase
  with the id. Every child of y is at least c, so y is the single vertex
  or |y| >= |c| + 1, that is |c| <= (s - 1) // 2 for a tree of s
  vertices. So each size is written straight in id order, one block per
  c, each block a suffix of one id range of rests: no sort, and no
  lookup over trees.
* **Bracelets.** For each cycle length L = 4, 6, ..., n the
  Fredricksen-Kessler-Maiorana recursion lists, in lexicographic order,
  every sequence of L tree ids of total size n that is the least of its
  L rotations (a necklace). Keeping those that are also no larger than
  every rotation of their reversal leaves one sequence per bracelet
  (Sawada, "Generating bracelets in constant amortized time", 2001).
  Colouring cycle vertex 0 fixes both colour classes; the last bead is
  only drawn from trees that make them {p, q}. Position L - 1 places
  the last two beads, so the last bead's size is fixed; every bead at
  L - 1 but one makes the period L - 1, so the last bead must exceed
  the first. So the ids at L - 1 of one odd-depth count share one id
  range of last beads per target; these ranges depend only on the
  vertices left, the colour count and the first bead, and are found
  once per search, the first time position L - 1 asks for them. Position
  L - 2 places its bead as every earlier position does, and position
  L - 1 returns at once where no last bead fits.
* **Reversal test from the head.** Only a rotation of the reversal that
  starts with a[1], the least bead, can be below a necklace, and the one
  read back from a bead a[t] = a[1] starts a[t..1]. So when the recursion
  places a[1] again at t <= L - 2 it compares a[t..1] with a[1..t] once:
  if smaller, that rotation is below every sequence with this head and
  the bead is skipped; if equal, a[1..t] is a palindrome (below). Position
  L - 1 decides a bead equal to a[1] the same way, once per bead, and a
  last bead equal to a[1] makes the necklace constant, which passes.
* **Last-bead bound.** Let a[1..m] be a palindrome, m = 1 included. The
  rotation of the reversal read back from a[m] starts a[1..m], a[L], so
  the reversal test rejects every sequence with a[L] < a[m + 1]. In a
  prenecklace a shorter palindromic prefix is a suffix of a longer one,
  so the bead after the longer is at least the bead after the shorter:
  the longest palindromic prefix closed so far sets the bound, and the
  recursion carries that a[m + 1] down, with -1 while the head a[1..t - 1]
  is itself a palindrome. Ids run by size, so each bead at t leaves room
  for size[a[m + 1]] at L, in place of size[a[1]]; after a palindromic
  head the last bead is at least the bead at t, which so takes at most
  half the room the two share. Position L - 1 clips every last-bead span
  to start at the bound, once per head a[1..L - 2], or at each bead
  a[L - 1] when that head is itself a palindrome. Every rotation that
  starts in the head is then at or above the sequence, and above it
  unless the last bead equals the bound, so only the least last bead
  after each bead at L - 1 runs the test. Only subtrees and last beads
  that hold no bracelet are skipped, so the class stream keeps its order.
* **Colour bound.** Every bead at an odd cycle position (counting from 1)
  adds between 1 (its root) and its size to the colour count of cycle
  vertex 0, every bead at an even position between 0 and its size - 1.
  So each bead is drawn only from the trees after which the beads still
  to come can bring that count to p or q; tree ids within one size run
  by odd-depth count, so those trees are a contiguous id range or two.
* **Wiener index.** With s_i, D_i and Q_i the size, depth sum and sum of
  squared non-root subtree sizes of the tree at cycle vertex i,
  W = n * sum(D_i) - sum(Q_i) + sum over i < j of s_i * s_j * d_C(i, j),
  where d_C is the distance along the cycle. No BFS is needed, and no
  sum at the leaf: W is carried down the recursion. A bead of size s at
  t adds its n * D - Q and s times its pull, the sum of s_i * d_C(i, t)
  over the beads before it; the pull at t + 1 is one sum per call plus
  s. Position L - 1 builds its head only where a last bead fits, and
  only a sequence drawn from a non-empty last-bead range is built; only
  the least last bead of each bead at L - 1 is compared with the
  rotations of its reversal that start with its first (least) bead,
  found by ``tuple.index``.
* **Bracelet codes.** ``RootedTrees.bracelet_code`` maps a connected
  unicyclic graph back to the tree ids the search emits for its class.
  The leaf peel that finds the cycle also yields the hanging trees, and
  in peel order each vertex's id comes from its children's ids (Aho,
  Hopcroft and Ullman, 1974); the code is the least of the cycle's 2L
  rotations and reflections. Verification decides ``graph_match``
  and ``uniqueness`` on these codes, so ``canonical_form`` only fills the
  printed witness fields.

The search gives each class as a plain pair (W, tree ids), in a fixed
order (cycle length, then tree ids). It runs in the calling process; at
the orders ``EnumSpec`` allows (p + q <= 16) it takes under a second per
(p, q). Only ``enumerate_unicyclic_bipartite`` builds every graph, and it
pays one canonical form per class.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from itertools import repeat
from operator import add, mul
from typing import Iterator, NamedTuple, Sequence

from .canon import CANONICAL_MAX_VERTICES, canonical_form, graph_from_canonical
from .families import _check_part_sizes
from .graphs import Graph, _peel_leaves, bits


class _EnumFields(NamedTuple):
    p: int
    q: int


class EnumSpec(_EnumFields):
    """Part sizes 2 <= p <= q, with p + q at most the canonical form's limit of 16.

    The sizes are checked on construction; ``_make`` and ``_replace`` build
    the tuple directly and skip the checks.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> "EnumSpec":
        _check_part_sizes(p, q)
        cls.check_order(p + q)
        return super().__new__(cls, p, q)

    @staticmethod
    def check_order(n: int) -> None:
        """Raise ``ValueError`` when order ``n`` exceeds the canonical form's limit."""
        if n > CANONICAL_MAX_VERTICES:
            raise ValueError(f"order {n} exceeds the canonical-form limit {CANONICAL_MAX_VERTICES}")

    @property
    def n(self) -> int:
        return self.p + self.q


class RootedTrees:
    """Every unlabeled rooted tree on at most ``max_size`` vertices.

    Ids run by size, and within one size by the number of vertices at odd
    depth, so the trees of size s with o to o' odd-depth vertices are the
    ids ``bounds[s][o]`` to ``bounds[s][o' + 1]``. Per id the table holds
    the size, the depth sum D, the sum Q of squared subtree sizes over
    non-root vertices, the number of vertices at odd depth, and the pair
    ``(first, rest)`` that ``children`` unfolds: a tree t of size s > 1 is
    its least child c = ``first[t]`` beside y = ``rest[t]``, t without c,
    which is the single vertex 0 when c is t's only child. Its columns are
    odd(y) + |c| - odd(c), D(y) + D(c) + |c| and Q(y) + Q(c) + |c|^2.

    Within one (size, odd) range the ids run by the ascending tuple of
    children's ids, and the pairs ``(first, rest)`` increase with them:
    trees with different c compare by c, the first entry of their tuples,
    and two trees of size s and odd count o with the same c have rests of
    size s - |c| and odd count o - |c| + odd(c), one range whose ids run
    by the rest of the tuple, by induction. Every child of y is at least c,
    so has at least |c| vertices; so y is the single vertex, or
    s = |c| + |y| >= 2|c| + 1, that is |c| <= (s - 1) // 2. So the trees
    of size s and odd count o are written in id order, block by block: for
    each c of at most (s - 1) // 2 vertices in id order, the rests of
    their size and odd count whose own first child is at least c, a suffix
    of that range found by one bisection of ``first``; then the one-child
    trees, whose c has s - 1 vertices, more than any earlier c, and
    s - 1 - o of them at odd depth.
    """

    def __init__(self, max_size: int) -> None:
        if max_size < 1:
            raise ValueError(f"a rooted-tree table needs max_size >= 1, not {max_size}")
        # the single vertex, id 0; its first and rest are never read, and a
        # rest of 0 ends every walk down the rests
        self.first: list[int] = [0]
        self.rest: list[int] = [0]
        self.size: list[int] = [1]
        self.depth_sum: list[int] = [0]
        self.square_sum: list[int] = [0]
        self.odd: list[int] = [0]
        # bounds[s][o]: first id of size s with o (or more) odd-depth vertices.
        # A row takes any o from -pad to pad - 1, where pad is the order of the
        # graphs the table serves, and a search asks for no more: o > s reads
        # as s, o < 0 wraps into a tail that reads as 0, and so an odd-count
        # window that holds no tree is an empty id range.
        pad = max_size + 3
        self.bounds: list[list[int]] = [[0], [0, 1] + [1] * (pad - 2) + [0] * pad]
        first, rest, size, odd, bounds = self.first, self.rest, self.size, self.odd, self.bounds
        dsum, qsum = self.depth_sum, self.square_sum
        for s in range(2, max_size + 1):
            start = len(size)
            small = bounds[(s - 1) // 2 + 1][0]  # the c of a tree with two or more children
            top = bounds[s - 1]  # the c of a one-child tree
            row = []
            for o in range(s):
                row.append(len(first))
                for c in range(small):
                    r = size[c]
                    k = o - r + odd[c]  # the rests' odd count
                    lo, hi = bounds[s - r][k], bounds[s - r][k + 1]
                    if lo < hi:
                        lo = bisect_left(first, c, lo, hi)
                        first.extend(repeat(c, hi - lo))
                        rest.extend(range(lo, hi))
                        dsum.extend(map(add, dsum[lo:hi], repeat(dsum[c] + r)))
                        qsum.extend(map(add, qsum[lo:hi], repeat(qsum[c] + r * r)))
                lo, hi = top[s - 1 - o], top[s - o]
                first.extend(range(lo, hi))
                rest.extend(repeat(0, hi - lo))
                dsum.extend(map(add, dsum[lo:hi], repeat(s - 1)))
                qsum.extend(map(add, qsum[lo:hi], repeat((s - 1) * (s - 1))))
                odd.extend(repeat(o, len(first) - row[o]))
            row.append(len(first))
            size.extend(repeat(s, len(first) - start))
            bounds.append(row + [row[s]] * (pad - s - 1) + [start] * pad)
        bounds.append([len(size)])
        self.max_size = max_size

    def children(self, t: int) -> tuple[int, ...]:
        """The ids of tree ``t``'s children, ascending: its least child, then its rest's."""
        first, rest, kids = self.first, self.rest, []
        while t:
            kids.append(first[t])
            t = rest[t]
        return tuple(kids)

    def graph(self, ids: Sequence[int]) -> Graph:
        """The cycle 0, 1, ..., L-1 with tree ``ids[i]`` rooted at vertex i."""
        length = len(ids)
        edges = [(i, (i + 1) % length) for i in range(length)]
        stack = list(enumerate(ids))
        n = length
        while stack:
            v, t = stack.pop()
            for c in self.children(t):
                edges.append((v, n))
                stack.append((n, c))
                n += 1
        return Graph.from_edges(n, edges)

    def bracelet_code(self, g: Graph) -> tuple[int, ...]:
        """The tree ids around the cycle of connected unicyclic ``g``, as the search emits them.

        Each vertex of a hanging tree gets its id bottom up from its
        children's ids (Aho, Hopcroft and Ullman, 1974), adding them largest
        first: a one-child tree (c, 0) sits at c's offset from the end of
        its (size, odd) range, and each later (c, y) is found by bisecting
        ``first`` and then ``rest`` within its range. The code is the
        least of the 2L rotations and reflections of the roots' ids. Two
        such graphs are isomorphic exactly when their codes agree, so
        ``bracelet_code(graph(ids)) == ids`` for every pair ``(w, ids)``
        that ``unicyclic_classes`` returns with this table, under any
        labeling. Raises ``ValueError`` when ``g`` is not connected unicyclic
        or a hanging tree has more than ``max_size`` vertices.
        """
        peeled, cycle, children = _peel_leaves(g)
        first, rest, size, odd, bounds = self.first, self.rest, self.size, self.odd, self.bounds
        max_size, tree = self.max_size, [0] * g.n  # tree[v]: the id of the subtree at v
        for v in peeled + cycle:  # each vertex after its children
            if not children[v]:
                continue  # a leaf is the single vertex, id 0
            y = 0
            for c in sorted([tree[c] for c in bits(children[v])], reverse=True):
                s = size[y] + size[c]
                if s > max_size:
                    raise ValueError(f"a hanging tree has more than the table's {max_size} vertices")
                o = odd[y] + size[c] - odd[c]
                row = bounds[s]
                if y:
                    lo = bisect_left(first, c, row[o], row[o + 1])
                    y = bisect_left(rest, y, lo, bisect_left(first, c + 1, lo, row[o + 1]))
                else:  # the one-child trees end their odd count's range, in the order of c
                    y = row[o + 1] - bounds[s - 1][s - o] + c
            tree[v] = y
        ids = [tree[v] for v in cycle]
        return min(tuple(s[k:] + s[:k]) for s in (ids, ids[::-1]) for k in range(len(ids)))


def unicyclic_classes(spec: EnumSpec, trees: RootedTrees | None = None) -> list[tuple[int, tuple[int, ...]]]:
    """Each isomorphism class for ``spec`` exactly once, as a pair (W, tree ids).

    The tree ids run around the cycle, and ``trees.graph(ids)`` is a
    representative graph. The order is fixed: cycle length, then tree ids.
    ``trees`` must reach n - 3 vertices, and is built when not given; ids do
    not depend on the table's size, so one table can serve every pair of a run.
    """
    p, q, n = spec.p, spec.q, spec.n
    if trees is None:
        trees = RootedTrees(n - 3)
    elif trees.max_size < n - 3:
        raise ValueError(
            f"the tree table reaches {trees.max_size} vertices, order {n} needs {n - 3}"
        )
    size, odd, bounds = trees.size, trees.odd, trees.bounds
    # each bead's own share of W, n * D - Q (see the module docstring), for
    # the trees of up to n - 3 vertices, which are the first ids of a larger table
    beads = bounds[n - 2][0]
    base = [n * d - sq for d, sq in zip(trees.depth_sum[:beads], trees.square_sum[:beads])]
    targets = (p,) if p == q else (p, q)  # final counts of cycle vertex 0's colour
    out: list[tuple[int, tuple[int, ...]]] = []

    def last_beads(last: list[int], c: int, above: int) -> list[range]:
        # the non-empty id ranges of last beads from above up, one per target y,
        # when last is their size's bounds row and they need y - c odd-depth vertices
        spans = []
        for y in targets:
            lo, hi = last[y - c], last[y - c + 1]
            if lo < above:
                lo = above
            if lo < hi:
                spans.append(range(lo, hi))
        return spans

    def clip(spans: list[range], bound: int) -> list[range]:
        # ascending spans cut to start at bound, without the empty ones
        if spans[0].start >= bound:
            return spans
        return [span if span.start >= bound else range(bound, span.stop) for span in spans if span.stop > bound]

    @cache
    def fits(rest: int, colour: int, first: int) -> list[tuple[int, range, list[range]]]:
        # The beads after the low one that position L - 1 can close with,
        # when the last two beads share rest vertices, colour counts cycle
        # vertex 0's colour so far and a[1] = first; the same for every cycle
        # length, so cached for the search. Any bead j at L - 1 but the low
        # one makes the period L - 1, which never divides L, so its last bead
        # k exceeds first. A j of size s with o odd-depth vertices leaves k
        # r = rest - s vertices, y - c of them at odd depth for target y,
        # where c = colour + s - o, so the j of one odd count share their
        # spans of k. The groups are (s, ids, spans) per odd count that has
        # a k, in id order, with only the non-empty spans. extend's most
        # leaves rest >= 2 * size[first].
        groups = []
        for s in range(size[first], rest - size[first] + 1):
            r = rest - s
            b, last = bounds[s], bounds[r]
            above = first + 1 if first >= last[0] else last[0]  # the least k of size r
            if above == last[r]:
                continue
            # k has odd[above] to r - 1 odd-depth vertices, so o runs over at most
            # this window: y - c is odd[above] for the largest target, r - 1 for the least
            shift = colour + s
            for o in range(max(odd[above] + shift - targets[-1], 0), min(r + shift - targets[0], s)):
                if b[o] < b[o + 1]:
                    spans = last_beads(last, shift - o, above)
                    if spans:
                        groups.append((s, range(b[o], b[o + 1]), spans))
        return groups

    for length in range(4, n + 1, 2):
        a = [0] * length  # a[1..length - 1]; a[0] is the recursion's sentinel
        sizes = [0] * length  # sizes[t] = size[a[t]]
        # d_C(length - 1), ..., d_C(1): the last t entries, zipped with
        # sizes[1:t], pair position i < t with its distance d_C(t + 1 - i) to t + 1
        hops = [min(k, length - k) for k in range(length - 1, 0, -1)]

        def extend(t: int, period: int, used: int, colour: int, w: int, pull: int, least: int) -> None:
            # colour counts the vertices coloured like cycle vertex 0; w sums
            # n * D - Q over beads 1..t-1 and s_i * s_j * d_C(i, j) over their
            # pairs, and pull sums s_i * d_C(t - i) over them; least is the
            # last bead's lower bound a[m + 1] for the longest palindrome
            # a[1..m], m < t - 1, or -1 when a[1..t - 1] is one itself
            low = a[t - period]
            rest = n - used
            if t == 1:  # every bead is at least a[1], so at least as large
                most = rest // length
            else:
                # Last-bead bound: beads t+1..L-1 are at least as large as
                # a[1], and the last bead is at least id least, or at least
                # this bead when least is -1, which so takes at most half the
                # room the two share. So most <= n - (length - 1) * size[a[1]]
                # <= n - 3, the table's reach.
                room = rest - (length - t - 1) * size[a[1]]
                most = room // 2 if least < 0 else room - size[least]
            # Colour bound: beads t+1..length add to colour at least one root
            # per odd position and at most their size less one root per even
            # position, so a bead of size s here may add c only if some target
            # x lies in [floor + c, ceil - s + c].
            k_even = length // 2 - t // 2
            floor = colour + length - t - k_even
            ceil = colour + rest - k_even
            flip = t % 2  # an odd position adds s - odd[j], an even one odd[j]
            reach = sum(map(mul, sizes[1:t], hops[length - t - 1 :]))  # the pull at t + 1, less s
            step = extend if t < length - 2 else close
            for s in range(size[low], most + 1):
                b, start = bounds[s], low
                sizes[t] = s
                w_s = w + s * pull
                # odd-count windows, ascending; start skips where they overlap
                for x in (reversed(targets) if flip else targets):
                    lo, hi = (s + floor - x, ceil - x) if flip else (x - ceil + s, x - floor)
                    first_id, stop = b[lo], b[hi + 1]
                    j = start if start > first_id else first_id
                    if stop > start:
                        start = stop
                    for j in range(j, stop):
                        a[t] = j
                        bound = j if least < 0 else least
                        if j == a[1]:  # head prune: the reversal read back from a[t] starts a[t..1]
                            ahead, back = a[1 : t + 1], a[t:0:-1]
                            if back < ahead:
                                continue
                            if back == ahead:  # a palindrome a[1..t] bounds the last bead by a[t + 1]
                                bound = -1
                        step(
                            t + 1,
                            period if j == low else t,
                            used + s,
                            colour + (s - odd[j] if flip else odd[j]),
                            w_s + base[j],
                            reach + s,
                            bound,
                        )

        def close(t: int, period: int, used: int, colour: int, w: int, pull: int, least: int) -> None:
            # t = length - 1 places the last two beads: the low bead
            # a[t - period], which keeps the period, then the later beads of
            # each odd-count group in fits, in id order. A bead of size s here
            # leaves r = rest - s vertices for the last one. After the low bead
            # FKM bounds the last bead by a[L - period], plus 1 unless the
            # period divides L. Every last bead is at least least, or at least
            # the bead j before it when least is -1: the head a[1..L - 2] is
            # then a palindrome, so the clip is made per j. Where no last bead
            # fits, close returns before it builds the head.
            low, rest = a[t - period], n - used
            s, spans = size[low], []
            if s <= rest - size[a[1]]:  # some last bead as large as a[1] is left
                a[t] = low  # a period of 1 reads a[t]
                above = a[length - period] + (length % period > 0)
                bound = low if least < 0 else least
                spans = last_beads(bounds[rest - s], colour + s - odd[low], above if above > bound else bound)
            groups = fits(rest, colour, a[1])
            if not spans and (not groups or groups[-1][1].stop <= low + 1):
                return
            head = tuple(a[1:t])
            reach = sum(map(mul, sizes[1:t], hops))  # the pull at length, less s
            if spans:
                _append_bracelets(head, (low,), spans, w + s * pull + (rest - s) * (reach + s), base, out)
            for s, ids, spans in groups:
                if ids.stop > low + 1:
                    beads = ids if ids.start > low else range(low + 1, ids.stop)
                    w_s = w + s * pull + (rest - s) * (reach + s)
                    if least >= 0:
                        if spans[-1].stop > least:
                            _append_bracelets(head, beads, clip(spans, least), w_s, base, out)
                        continue
                    for j in beads:
                        if spans[-1].stop > j:
                            _append_bracelets(head, (j,), clip(spans, j), w_s, base, out)

        extend(1, 1, 0, 0, 0, 0, -1)
        # extend reaches itself through its closure; unbinding it breaks the
        # cycle, which would keep out alive until a gc pass
        del extend
    return out


def _append_bracelets(
    head: tuple[int, ...], beads: Sequence[int], spans: list[range],
    w: int, base: list[int], out: list[tuple[int, tuple[int, ...]]],
) -> None:
    """Append (W, head + (j, k)) for j in ``beads`` and k in each span.

    W is w + base[j] + base[k]. Each is a necklace, so only a rotation of
    its reversal that starts with head[0], its least bead, can be less.
    The search has decided every such rotation that starts in the head, and
    started the spans at the last-bead bound. Only the low bead at L - 1,
    which ``beads`` then holds alone, can equal head[0]; it is decided here
    by the rotation read back from it, and a k equal to head[0] makes the
    necklace constant. So only the least k, spans[0][0], can tie, and only
    it is compared with those rotations.
    """
    first, back, tie = head[0], head[::-1], spans[0][0]
    for j in beads:
        prefix, back_j, w_j = head + (j,), (j,) + back, w + base[j]
        if j == first and back_j < prefix:
            continue
        for span in spans:
            for k in span:
                seq = prefix + (k,)
                if k != tie or not _reversal_below(seq, (k,) + back_j, first):
                    out.append((w_j + base[k], seq))


def _reversal_below(seq: tuple[int, ...], rev: tuple[int, ...], first: int) -> bool:
    """Whether a rotation of ``rev`` that starts with ``first`` is below ``seq``; ``rev`` ends with ``first``."""
    i, last = -1, len(rev) - 1
    while i < last:
        i = rev.index(first, i + 1)
        if rev[i:] + rev[:i] < seq:
            return True
    return False


def enumerate_unicyclic_bipartite(spec: EnumSpec) -> Iterator[tuple[Graph, int]]:
    """(representative, Wiener index) per isomorphism class, in canonical-form order.

    The representative itself is canonically labeled, so the stream does
    not depend on how the classes were found; W is the one the search
    carried, not recomputed.
    """
    table = RootedTrees(spec.n - 3)
    classes = unicyclic_classes(spec, table)
    for key, w in sorted((canonical_form(table.graph(ids)), w) for w, ids in classes):
        yield graph_from_canonical(key), w


def count_classes(spec: EnumSpec) -> int:
    """Number of isomorphism classes the stream would yield."""
    return len(unicyclic_classes(spec))
