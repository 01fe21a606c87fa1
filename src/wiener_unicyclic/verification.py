"""Brute-force extremal search and property harnesses.

``verify_both`` sweeps the full isomorphism-free enumeration for given
part sizes once and returns a max and a min report, each comparing the
true optimum against a predicted construction: the onion graph with its
closed-form value on the max side, the two-pendant-cluster cycle on the
min side. The published polynomial for the maximum is evaluated and
reported but never asserted; it is known to disagree with the verified
construction.

``lemma_harness`` stress-tests the two coalescence facts everything
else leans on: the exact Wiener decomposition of a one-vertex
identification, and strict monotonicity of the Wiener index in the
transmission of the identification point.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import asdict, dataclass
from typing import Iterable

from .canon import canonical_form, graph_from_canonical
from .enumeration import DEFAULT_MAX_N, EnumSpec, UnicyclicClass, unicyclic_classes
from .families import (
    build_cycle,
    build_min_extremal,
    build_onion,
    build_path,
    coalesce,
    extremal_onion_params,
    onion_wiener_closed_form,
    theorem_polynomial,
)
from .graph6 import graph6_encode
from .graphs import Graph, bipartition, bits, transmission, wiener_index


def _hex_bytes(items: list[tuple[str, object]]) -> dict:
    return {key: value.hex() if isinstance(value, bytes) else value for key, value in items}


def _record(report) -> dict:
    """JSON-ready dict of a report dataclass, fields in order; bytes become hex."""
    return asdict(report, dict_factory=_hex_bytes)


@dataclass(frozen=True)
class OptimizerWitness:
    """One optimal isomorphism class: canonical form plus a graph6 witness."""

    canon: bytes
    graph6: str


@dataclass(frozen=True)
class ExtremalReport:
    """Outcome of one brute-force extremal search for part sizes (p, q)."""

    p: int
    q: int
    direction: str  # "max" or "min"
    classes: int
    optimum: int
    optimizers: tuple[OptimizerWitness, ...]
    predicted_graph6: str
    predicted_canon: bytes
    predicted_value_closed_form: int | None
    predicted_value_polynomial: int | None
    value_match: bool
    graph_match: bool
    uniqueness: bool
    polynomial_match: bool | None

    @property
    def ok(self) -> bool:
        """The asserted agreements (the polynomial is excluded on purpose)."""
        if self.direction == "max":
            return self.value_match and self.graph_match and self.uniqueness
        return self.value_match and self.graph_match

    def as_record(self) -> dict:
        """JSON-ready dict; canonical forms are hex strings."""
        return _record(self)


def _optimizer_witnesses(classes: Iterable[UnicyclicClass]) -> tuple[OptimizerWitness, ...]:
    """Witnesses sorted by canonical form; graph6 of the canonically labeled graph."""
    forms = sorted(canonical_form(c.graph()) for c in classes)
    return tuple(OptimizerWitness(f, graph6_encode(graph_from_canonical(f))) for f in forms)


def _report(
    p: int,
    q: int,
    direction: str,
    classes: int,
    argopt: list[UnicyclicClass],
    predicted: Graph,
    predicted_value: int,
    polynomial: int | None,
) -> ExtremalReport:
    """Compare the optimizers of one direction with the predicted graph and value."""
    optimum = argopt[0].wiener
    witnesses = _optimizer_witnesses(argopt)
    predicted_canon = canonical_form(predicted)
    return ExtremalReport(
        p=p,
        q=q,
        direction=direction,
        classes=classes,
        optimum=optimum,
        optimizers=witnesses,
        predicted_graph6=graph6_encode(predicted),
        predicted_canon=predicted_canon,
        predicted_value_closed_form=predicted_value,
        predicted_value_polynomial=polynomial,
        value_match=optimum == predicted_value,
        graph_match=predicted_canon in {w.canon for w in witnesses},
        uniqueness=len(witnesses) == 1,
        polynomial_match=None if polynomial is None else optimum == polynomial,
    )


def verify_both(
    p: int, q: int, *, max_n: int = DEFAULT_MAX_N, workers: int = 1
) -> tuple[ExtremalReport, ExtremalReport]:
    """Max and min reports, in that order, from a single enumeration sweep.

    ``workers`` is accepted for compatibility and ignored; the search is
    serial.
    """
    spec = EnumSpec(p, q, max_n)
    classes = 0
    best_max: int | None = None
    best_min: int | None = None
    argmax: list[UnicyclicClass] = []
    argmin: list[UnicyclicClass] = []
    for c in unicyclic_classes(spec):
        classes += 1
        w = c.wiener
        if best_max is None or w > best_max:
            best_max, argmax = w, [c]
        elif w == best_max:
            argmax.append(c)
        if best_min is None or w < best_min:
            best_min, argmin = w, [c]
        elif w == best_min:
            argmin.append(c)
    if best_max is None or best_min is None:
        raise RuntimeError(f"enumeration for ({p}, {q}) produced no graphs")

    params = extremal_onion_params(p, q)
    onion, closed_form = build_onion(params), onion_wiener_closed_form(params)
    mingraph = build_min_extremal(p, q)
    return (
        _report(p, q, "max", classes, argmax, onion, closed_form, theorem_polynomial(p, q)),
        _report(p, q, "min", classes, argmin, mingraph, wiener_index(mingraph), None),
    )


def cycle_six_is_min_optimizer(report: ExtremalReport) -> bool:
    """True when C_6 appears among a (3, 3) minimum report's optimizers."""
    c6 = canonical_form(build_cycle(6))
    return any(w.canon == c6 for w in report.optimizers)


# ---------------------------------------------------------------------------
# Structural consequences of extremality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructuralCheck:
    """Per-maximizer structure report; pendant check is None when p = q."""

    graph6: str
    cycle_length_four: bool
    antipodal_degree_two: bool
    attached_trees_are_brooms: bool
    pendants_in_larger_part: bool | None

    @property
    def all_pass(self) -> bool:
        checks = [
            self.cycle_length_four,
            self.antipodal_degree_two,
            self.attached_trees_are_brooms,
        ]
        if self.pendants_in_larger_part is not None:
            checks.append(self.pendants_in_larger_part)
        return all(checks)


def cycle_vertices(g: Graph) -> list[int]:
    """The unique cycle of a unicyclic graph, in cyclic order.

    Starts at the smallest cycle vertex and walks towards its smaller
    cycle neighbour, so the order is deterministic.
    """
    deg = [g.degree(v) for v in range(g.n)]
    alive = (1 << g.n) - 1
    stack = [v for v in range(g.n) if deg[v] <= 1]
    while stack:
        v = stack.pop()
        if not alive >> v & 1:
            continue
        alive &= ~(1 << v)
        for w in bits(g.adj[v] & alive):
            deg[w] -= 1
            if deg[w] == 1:
                stack.append(w)
    if not alive:
        raise ValueError("graph has no cycle")
    start = next(bits(alive))
    order = [start]
    prev = -1
    cur = start
    while True:
        nxt = min(w for w in bits(g.adj[cur] & alive) if w != prev)
        if nxt == start:
            return order
        order.append(nxt)
        prev, cur = cur, nxt


def _attached_tree_mask(g: Graph, root: int, cycle_mask: int) -> int:
    """Vertices of the tree hanging off ``root`` once cycle edges are cut."""
    seen = frontier = 1 << root
    block = cycle_mask & ~(1 << root)
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen & ~block
        seen |= frontier
    return seen


def _is_broom_rooted(g: Graph, root: int, tree_mask: int) -> bool:
    """Broom = path from the root with branching confined to its far end."""
    if tree_mask.bit_count() == 1:
        return True
    prev = -1
    cur = root
    while True:
        nbrs = [w for w in bits(g.adj[cur] & tree_mask) if w != prev]
        if not nbrs:
            return True
        if len(nbrs) == 1:
            prev, cur = cur, nbrs[0]
            continue
        return all((g.adj[w] & tree_mask).bit_count() == 1 for w in nbrs)


def structural_checks(g: Graph) -> StructuralCheck:
    """Check one maximizer against the expected extremal structure."""
    cyc = cycle_vertices(g)
    cycle_ok = len(cyc) == 4
    antipodal_ok = False
    brooms_ok = False
    if cycle_ok:
        c0, c1, c2, c3 = cyc
        antipodal_ok = (g.degree(c0) == 2 and g.degree(c2) == 2) or (
            g.degree(c1) == 2 and g.degree(c3) == 2
        )
        cycle_mask = 0
        for c in cyc:
            cycle_mask |= 1 << c
        brooms_ok = all(
            _is_broom_rooted(g, c, _attached_tree_mask(g, c, cycle_mask)) for c in cyc
        )
    bp = bipartition(g)
    pendant_ok: bool | None = None
    if bp is not None and bp.p < bp.q:
        pendants = [v for v in range(g.n) if g.degree(v) == 1]
        pendant_ok = all(v in bp.part_q for v in pendants)
    return StructuralCheck(
        graph6=graph6_encode(g),
        cycle_length_four=cycle_ok,
        antipodal_degree_two=antipodal_ok,
        attached_trees_are_brooms=brooms_ok,
        pendants_in_larger_part=pendant_ok,
    )


def check_structural_consequences(
    p: int, q: int, *, max_n: int = DEFAULT_MAX_N
) -> list[StructuralCheck]:
    """Structure report for every brute-force maximizer at (p, q)."""
    mx = verify_both(p, q, max_n=max_n)[0]
    return [structural_checks(graph_from_canonical(w.canon)) for w in mx.optimizers]


# ---------------------------------------------------------------------------
# Randomized lemma harnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaCounterexample:
    lemma: str  # "coalescence-identity" or "transplant-monotonicity"
    graph6_g: str
    graph6_h: str
    u: int
    v: int | None
    w: int
    detail: str


@dataclass(frozen=True)
class HarnessReport:
    """Counts and counterexamples from one seeded harness run."""

    seed: int
    trials: int
    identity_checked: int
    monotonicity_checked: int
    monotonicity_skipped: int
    counterexamples: tuple[LemmaCounterexample, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def as_record(self) -> dict:
        return _record(self)


def random_tree(rng: random.Random, n: int) -> Graph:
    """Uniform random labeled tree on n vertices (Pruefer decoding)."""
    if n < 1:
        raise ValueError("tree needs at least one vertex")
    if n <= 2:
        return build_path(n)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    count = [0] * n
    for x in seq:
        count[x] += 1
    edges = []
    leaves = [v for v in range(n) if count[v] == 0]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        count[x] -= 1
        if count[x] == 0:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n_min: int = 2, n_max: int = 12) -> Graph:
    """Random tree, with one random cycle-closing edge half the time."""
    n = rng.randint(n_min, n_max)
    g = random_tree(rng, n)
    if n >= 3 and rng.random() < 0.5:
        non_edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if not g.adj[u] >> v & 1
        ]
        if non_edges:
            u, v = non_edges[rng.randrange(len(non_edges))]
            g = g.with_edge(u, v)
    return g


def lemma_harness(seed: int, trials: int) -> HarnessReport:
    """Run both coalescence property checks on ``trials`` random instances.

    Instances are drawn until each property has been exercised ``trials``
    times; pairs with equal anchor transmissions do not satisfy the
    strict monotonicity premise and are counted as skipped.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = random.Random(seed)
    identity_checked = 0
    mono_checked = 0
    mono_skipped = 0
    bad: list[LemmaCounterexample] = []
    while identity_checked < trials or mono_checked < trials:
        n1 = rng.randint(2, 12)
        n2 = rng.randint(2, min(12, 15 - n1))
        g = random_connected_graph(rng, n1, n1)
        h = random_connected_graph(rng, n2, n2)
        u = rng.randrange(n1)
        w = rng.randrange(n2)
        if identity_checked < trials:
            merged, _ = coalesce(g, u, h, w)
            lhs = wiener_index(merged)
            rhs = (
                wiener_index(g)
                + wiener_index(h)
                + (n1 - 1) * transmission(h, w)
                + (n2 - 1) * transmission(g, u)
            )
            if lhs != rhs:
                bad.append(
                    LemmaCounterexample(
                        lemma="coalescence-identity",
                        graph6_g=graph6_encode(g),
                        graph6_h=graph6_encode(h),
                        u=u,
                        v=None,
                        w=w,
                        detail=f"W={lhs} but decomposition gives {rhs}",
                    )
                )
            identity_checked += 1
        if mono_checked < trials:
            v = rng.randrange(n1)
            tu = transmission(g, u)
            tv = transmission(g, v)
            if tu == tv:
                mono_skipped += 1
            else:
                lo, hi = (u, v) if tu < tv else (v, u)
                w_lo = wiener_index(coalesce(g, lo, h, w)[0])
                w_hi = wiener_index(coalesce(g, hi, h, w)[0])
                if not w_lo < w_hi:
                    bad.append(
                        LemmaCounterexample(
                            lemma="transplant-monotonicity",
                            graph6_g=graph6_encode(g),
                            graph6_h=graph6_encode(h),
                            u=lo,
                            v=hi,
                            w=w,
                            detail=f"W at low anchor {w_lo} !< W at high anchor {w_hi}",
                        )
                    )
                mono_checked += 1
    return HarnessReport(
        seed=seed,
        trials=trials,
        identity_checked=identity_checked,
        monotonicity_checked=mono_checked,
        monotonicity_skipped=mono_skipped,
        counterexamples=tuple(bad),
    )


# ---------------------------------------------------------------------------
# Aggregated table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    """Summary of both extremal searches for one (p, q)."""

    p: int
    q: int
    classes: int
    min_wiener: int
    max_wiener: int
    closed_form: int
    polynomial: int
    max_value_match: bool
    max_graph_match: bool
    max_unique: bool
    polynomial_match: bool
    min_graph_match: bool

    @property
    def ok(self) -> bool:
        return (
            self.max_value_match
            and self.max_graph_match
            and self.max_unique
            and self.min_graph_match
        )

    def as_record(self) -> dict:
        return _record(self)


def extremal_table(
    p_max: int | None = None,
    n_max: int = 10,
    *,
    max_n: int = DEFAULT_MAX_N,
) -> list[TableRow]:
    """One row per (p, q) with 2 <= p <= q, p + q <= n_max, p <= p_max."""
    if n_max > max_n:
        raise ValueError(f"n_max {n_max} exceeds max_n guard {max_n}")
    if p_max is None:
        p_max = n_max // 2
    rows = []
    for p in range(2, p_max + 1):
        for q in range(p, n_max - p + 1):
            mx, mn = verify_both(p, q, max_n=max_n)
            rows.append(
                TableRow(
                    p=p,
                    q=q,
                    classes=mx.classes,
                    min_wiener=mn.optimum,
                    max_wiener=mx.optimum,
                    closed_form=mx.predicted_value_closed_form or 0,
                    polynomial=mx.predicted_value_polynomial or 0,
                    max_value_match=mx.value_match,
                    max_graph_match=mx.graph_match,
                    max_unique=mx.uniqueness,
                    polynomial_match=bool(mx.polynomial_match),
                    min_graph_match=mn.graph_match,
                )
            )
    return rows
