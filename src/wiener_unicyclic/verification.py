"""Brute-force extremal search and property harnesses.

``verify`` sweeps the full isomorphism-free enumeration for given part
sizes once and returns the max or the min report, and ``verify_both``
returns both from one sweep. Each compares the true optimum against a
predicted construction with its closed-form value: the onion graph on
the max side, the two-pendant-cluster cycle on the min side. The
published polynomial for the maximum is evaluated and reported but
never asserted; it is known to disagree with the verified construction.
One helper decides each side once, under ``ExtremalReport``'s field names:
a report adds the canonical forms it prints, ``canon`` and ``graph6`` of
each optimizer and ``predicted_canon``, and ``extremal_table`` maps both
sides onto a ``TableRow`` and computes none. ``graph_match`` (the
prediction is an optimizer) and ``uniqueness`` (one optimizer class) are
decided on bracelet codes, with no canonical form.

``lemma_harness`` stress-tests the two coalescence facts everything
else leans on: the exact Wiener decomposition of a one-vertex
identification, and strict monotonicity of the Wiener index in the
transmission of the identification point. Its random graphs come from
``random_tree``, a linear-time Pruefer decode, and
``random_connected_graph``, which finds its closing edge by counting
non-edges rather than listing them. Every bounded draw goes through one
helper, ``_draw``, that makes the ``getrandbits`` calls ``randrange``
makes, a Pruefer sequence one call per value. So for ``random.Random``
(not for a subclass that draws another way) each seed gives the graphs
and the stream that ``randrange`` and ``randint`` gave.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .canon import canonical_form, graph_from_canonical
from .enumeration import EnumSpec, RootedTrees, unicyclic_classes
from .families import (
    build_cycle,
    build_min_extremal,
    build_onion,
    build_path,
    coalesce,
    extremal_onion_params,
    min_wiener_polynomial,
    onion_wiener_closed_form,
    theorem_polynomial,
)
from .graph6 import graph6_encode
from .graphs import (
    MAX_VERTICES,
    Graph,
    _peel_leaves,
    bipartition,
    bits,
    transmissions,
    wiener_index,
)


def _plain(value: object) -> object:
    """``value`` made JSON-ready: bytes become hex, records dicts; tuples stay tuples."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, tuple):
        return _record(value) if hasattr(value, "_fields") else tuple(map(_plain, value))
    return value


def _record(report) -> dict:
    """JSON-ready dict of a report record, fields in order, each value made ``_plain``."""
    return {key: _plain(value) for key, value in zip(report._fields, report)}


class OptimizerWitness(NamedTuple):
    """One optimal isomorphism class: canonical form plus a graph6 witness."""

    canon: bytes
    graph6: str


class ExtremalReport(NamedTuple):
    """Outcome of one brute-force extremal search for part sizes (p, q)."""

    p: int
    q: int
    direction: str  # "max" or "min"
    classes: int
    optimum: int
    optimizers: tuple[OptimizerWitness, ...]
    predicted_graph6: str
    predicted_canon: bytes
    predicted_value_closed_form: int
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


def _side(
    p: int, q: int, direction: str, classes: list[tuple[int, tuple[int, ...]]], table: RootedTrees
) -> tuple[dict, list[tuple[int, ...]], Graph]:
    """The ``direction`` side ("max" or "min") over every class with parts (p, q).

    Returns the side's ``ExtremalReport`` fields that need no canonical form,
    under the report's own names, then the optimizer classes' tree ids and
    the predicted graph. The max side predicts the onion with its closed-form
    value and the published polynomial, the min side the two-pendant-cluster
    cycle with ``min_wiener_polynomial``; only the side asked for is built.
    ``graph_match`` holds when the predicted graph's bracelet code is among
    the optimizers' tree ids, and ``uniqueness`` when there is one optimizer
    class; the bracelet code is a complete invariant of connected unicyclic
    graphs, so both agree with a comparison of canonical forms.
    """
    if not classes:
        raise RuntimeError(f"enumeration for ({p}, {q}) produced no graphs")
    if direction == "max":
        optimum = max(w for w, _ in classes)
        params = extremal_onion_params(p, q)
        predicted, closed_form = build_onion(params), onion_wiener_closed_form(params)
        polynomial: int | None = theorem_polynomial(p, q)
    else:
        optimum = min(w for w, _ in classes)
        predicted = build_min_extremal(p, q)
        closed_form, polynomial = min_wiener_polynomial(p, q), None
    optimizers = [ids for w, ids in classes if w == optimum]
    code = table.bracelet_code(predicted)
    fields = dict(
        p=p,
        q=q,
        direction=direction,
        classes=len(classes),
        optimum=optimum,
        predicted_value_closed_form=closed_form,
        predicted_value_polynomial=polynomial,
        value_match=optimum == closed_form,
        graph_match=code in optimizers,
        uniqueness=len(optimizers) == 1,
        polynomial_match=None if polynomial is None else optimum == polynomial,
    )
    return fields, optimizers, predicted


def _report(
    p: int, q: int, direction: str, classes: list[tuple[int, tuple[int, ...]]], table: RootedTrees
) -> ExtremalReport:
    """The ``direction`` side's fields, with the canonical forms and graph6 it prints."""
    fields, optimizers, predicted = _side(p, q, direction, classes, table)
    # optimizers sorted by canonical form; graph6 of each canonically labeled graph
    forms = sorted(canonical_form(table.graph(ids)) for ids in optimizers)
    witnesses = tuple(OptimizerWitness(f, graph6_encode(graph_from_canonical(f))) for f in forms)
    return ExtremalReport(
        **fields,
        optimizers=witnesses,
        predicted_graph6=graph6_encode(predicted),
        predicted_canon=canonical_form(predicted),
    )


def verify(p: int, q: int, direction: str) -> ExtremalReport:
    """The max or min report for (p, q), as ``direction`` says; the other is not built."""
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    spec = EnumSpec(p, q)
    table = RootedTrees(spec.n - 3)
    return _report(p, q, direction, unicyclic_classes(spec, table), table)


def verify_both(p: int, q: int, *, workers: int = 1) -> tuple[ExtremalReport, ExtremalReport]:
    """Max and min reports, in that order, from a single enumeration sweep.

    ``workers`` is accepted for compatibility and ignored; the search is
    serial.
    """
    spec = EnumSpec(p, q)
    table = RootedTrees(spec.n - 3)
    classes = unicyclic_classes(spec, table)
    return _report(p, q, "max", classes, table), _report(p, q, "min", classes, table)


def cycle_six_is_min_optimizer(report: ExtremalReport) -> bool:
    """True when C_6 appears among a (3, 3) minimum report's optimizers."""
    c6 = canonical_form(build_cycle(6))
    return any(w.canon == c6 for w in report.optimizers)


# ---------------------------------------------------------------------------
# Structural consequences of extremality
# ---------------------------------------------------------------------------


class StructuralCheck(NamedTuple):
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


def _is_broom_rooted(children: list[int], root: int) -> bool:
    """Whether the tree of ``children`` masks hanging at ``root`` is a broom.

    Broom = path from the root with branching confined to its far end.
    """
    cur = root
    while children[cur].bit_count() == 1:
        cur = children[cur].bit_length() - 1
    return not any(children[w] for w in bits(children[cur]))


def structural_checks(g: Graph) -> StructuralCheck:
    """Check one maximizer against the expected extremal structure."""
    _, cyc, children = _peel_leaves(g)
    cycle_ok = len(cyc) == 4
    antipodal_ok = False
    brooms_ok = False
    if cycle_ok:
        c0, c1, c2, c3 = cyc
        # a cycle vertex has degree 2 when no tree hangs off it
        antipodal_ok = not (children[c0] | children[c2]) or not (children[c1] | children[c3])
        brooms_ok = all(_is_broom_rooted(children, c) for c in cyc)
    bp = bipartition(g)
    pendant_ok: bool | None = None
    if bp is not None and bp.p < bp.q:
        pendants = [v for v in range(g.n) if g.degree(v) == 1]
        pendant_ok = all(bp.part_q >> v & 1 for v in pendants)
    return StructuralCheck(
        graph6=graph6_encode(g),
        cycle_length_four=cycle_ok,
        antipodal_degree_two=antipodal_ok,
        attached_trees_are_brooms=brooms_ok,
        pendants_in_larger_part=pendant_ok,
    )


# ---------------------------------------------------------------------------
# Randomized lemma harnesses
# ---------------------------------------------------------------------------


class LemmaCounterexample(NamedTuple):
    lemma: str  # "coalescence-identity" or "transplant-monotonicity"
    graph6_g: str
    graph6_h: str
    u: int
    v: int | None
    w: int
    detail: str


class HarnessReport(NamedTuple):
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


def _draw(rng: random.Random, n: int) -> int:
    """The value of ``rng.randrange(n)``, drawn by the same ``getrandbits`` calls.

    This is the ``_randbelow_with_getrandbits`` path that ``random.Random``
    takes on CPython 3.10 to 3.13: k = n.bit_length() bits, redrawn while
    they reach n. So the value and the state after it equal those of a
    ``randrange`` call for ``random.Random``; a subclass that overrides
    ``random`` but not ``getrandbits`` draws ``randrange`` another way.
    Raises ``ValueError`` for n < 1 before any draw.
    """
    if n < 1:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def random_tree(rng: random.Random, n: int) -> Graph:
    """Uniform random labeled tree on n vertices, by Pruefer decoding.

    Each of the n - 2 values of the Pruefer sequence is one ``_draw`` call,
    which draws it as ``rng.randrange(n)`` would, so for ``random.Random``
    the stream, the tree and the state after it are those of ``randrange``
    and a smallest-leaf-first heap decode. The decode is linear: a pointer
    walks up to the next unused leaf, and a vertex whose last occurrence
    falls below the pointer becomes the next leaf at once.
    """
    if n < 1:
        raise ValueError("tree needs at least one vertex")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {n}")
    if n <= 2:
        return build_path(n)
    seq = [_draw(rng, n) for _ in range(n - 2)]
    count = [0] * n
    for x in seq:
        count[x] += 1
    adj = [0] * n
    leaf = ptr = count.index(0)
    for x in seq:
        adj[leaf] |= 1 << x
        adj[x] |= 1 << leaf
        count[x] -= 1
        if count[x] == 0 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while count[ptr]:
                ptr += 1
            leaf = ptr
    # n - 1 is never the smaller of two leaves, so it is one of the last two
    adj[leaf] |= 1 << (n - 1)
    adj[n - 1] |= 1 << leaf
    return Graph(n, tuple(adj))


def random_connected_graph(rng: random.Random, n_min: int = 2, n_max: int = 12) -> Graph:
    """Random tree, with one random cycle-closing edge half the time.

    Draws what ``rng.randint(n_min, n_max)``, ``random_tree``,
    ``rng.random()`` and ``rng.randrange`` over the list of non-edges in
    row order would draw, so for ``random.Random`` the graph and the state
    after it are theirs; the list itself is never built. A tree on n
    vertices misses (n - 1)(n - 2) / 2 pairs, and the i-th is found from
    the count of each row's missing higher neighbours.
    """
    n = n_min + _draw(rng, n_max - n_min + 1)
    g = random_tree(rng, n)
    if n >= 3 and rng.random() < 0.5:
        i = _draw(rng, (n - 1) * (n - 2) // 2)
        for u in range(n - 1):
            # bit v - u - 1 is set when the pair (u, v), v > u, is missing
            missing = ~g.adj[u] >> (u + 1) & ((1 << (n - u - 1)) - 1)
            count = missing.bit_count()
            if i < count:
                break
            i -= count
        for _ in range(i):
            missing &= missing - 1
        g = g.with_edge(u, u + (missing & -missing).bit_length())
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

    def flag(lemma: str, u: int, v: int | None, detail: str) -> None:
        """Record a counterexample on the current draw's g, h and w."""
        bad.append(LemmaCounterexample(lemma, graph6_encode(g), graph6_encode(h), u, v, w, detail))

    while identity_checked < trials or mono_checked < trials:
        n1 = 2 + _draw(rng, 11)
        n2 = 2 + _draw(rng, min(12, 15 - n1) - 1)
        g = random_connected_graph(rng, n1, n1)
        h = random_connected_graph(rng, n2, n2)
        u = _draw(rng, n1)
        w = _draw(rng, n2)
        tg = transmissions(g)
        w_at_u = None  # W(coalesce(g, u, h, w)), which both checks need
        if identity_checked < trials:
            th = transmissions(h)
            w_at_u = wiener_index(coalesce(g, u, h, w)[0])
            rhs = sum(tg) // 2 + sum(th) // 2 + (n1 - 1) * th[w] + (n2 - 1) * tg[u]
            if w_at_u != rhs:
                flag("coalescence-identity", u, None, f"W={w_at_u} but decomposition gives {rhs}")
            identity_checked += 1
        if mono_checked < trials:
            v = _draw(rng, n1)
            tu, tv = tg[u], tg[v]
            if tu == tv:
                mono_skipped += 1
            else:
                if w_at_u is None:
                    w_at_u = wiener_index(coalesce(g, u, h, w)[0])
                w_at_v = wiener_index(coalesce(g, v, h, w)[0])
                lo, hi, w_lo, w_hi = (u, v, w_at_u, w_at_v) if tu < tv else (v, u, w_at_v, w_at_u)
                if not w_lo < w_hi:
                    detail = f"W at low anchor {w_lo} !< W at high anchor {w_hi}"
                    flag("transplant-monotonicity", lo, hi, detail)
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


class TableRow(NamedTuple):
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
            and self.min_wiener == min_wiener_polynomial(self.p, self.q)
        )

    def as_record(self) -> dict:
        return _record(self)


def extremal_table(p_max: int | None = None, n_max: int = 10) -> list[TableRow]:
    """One row per (p, q) with 2 <= p <= q, p + q <= n_max (at most 16), p <= p_max."""
    EnumSpec.check_order(n_max)
    if p_max is None:
        p_max = n_max // 2
    specs = [EnumSpec(p, q) for p in range(2, p_max + 1) for q in range(p, n_max - p + 1)]
    if not specs:
        return []
    table = RootedTrees(n_max - 3)  # one table serves every pair: ids do not depend on its size
    rows = []
    for spec in specs:
        classes = unicyclic_classes(spec, table)
        mx, _, _ = _side(spec.p, spec.q, "max", classes, table)
        mn, _, _ = _side(spec.p, spec.q, "min", classes, table)
        rows.append(
            TableRow(
                p=spec.p,
                q=spec.q,
                classes=mx["classes"],
                min_wiener=mn["optimum"],
                max_wiener=mx["optimum"],
                closed_form=mx["predicted_value_closed_form"],
                polynomial=mx["predicted_value_polynomial"],
                max_value_match=mx["value_match"],
                max_graph_match=mx["graph_match"],
                max_unique=mx["uniqueness"],
                polynomial_match=mx["polynomial_match"],
                min_graph_match=mn["graph_match"],
            )
        )
    return rows
