"""Extremal reports, structural consequences, lemma harness, table."""

import dataclasses
import itertools
import json
import random

import pytest
from oracles import heap_random_tree, listed_random_connected_graph

from wiener_unicyclic import (
    Graph,
    OnionParams,
    build_cycle,
    build_min_extremal,
    build_onion,
    canonical_form,
    cycle_vertices,
    extremal_table,
    graph6_decode,
    lemma_harness,
    random_connected_graph,
    random_tree,
    structural_checks,
    verify,
    verify_both,
)
from wiener_unicyclic import canon, enumeration, verification
from wiener_unicyclic.cli import main
from wiener_unicyclic.enumeration import RootedTrees
from wiener_unicyclic.verification import cycle_six_is_min_optimizer


class TestVerifyMax:
    def test_two_two(self):
        r = verify_both(2, 2)[0]
        assert r.classes == 1
        assert r.optimum == 8
        assert r.uniqueness and r.graph_match and r.value_match
        assert r.ok

    def test_three_three(self):
        r = verify_both(3, 3)[0]
        assert r.optimum == 29
        assert r.uniqueness
        assert r.optimizers[0].canon == canonical_form(build_onion(OnionParams(0, 3, 0)))
        assert r.predicted_value_polynomial == 63
        assert r.polynomial_match is False
        assert r.ok

    def test_two_five(self):
        r = verify_both(2, 5)[0]
        assert r.optimum == 42
        only = r.optimizers[0].canon
        assert only == canonical_form(build_onion(OnionParams(1, 1, 2)))
        assert only == canonical_form(build_onion(OnionParams(2, 1, 1)))

    def test_witnesses_decode_to_optimum(self):
        from wiener_unicyclic import wiener_index

        r = verify_both(3, 4)[0]
        for w in r.optimizers:
            assert wiener_index(graph6_decode(w.graph6)) == r.optimum

    def test_record_is_json_ready(self):
        import json

        r = verify_both(2, 3)[0]
        text = json.dumps(r.as_record())
        assert '"optimum": 16' in text


class TestVerifyMin:
    def test_two_two(self):
        r = verify_both(2, 2)[1]
        assert r.optimum == 8
        assert r.graph_match and r.uniqueness

    def test_three_three_has_cycle_six_too(self):
        r = verify_both(3, 3)[1]
        assert r.optimum == 27
        assert r.graph_match
        assert not r.uniqueness
        assert len(r.optimizers) == 2
        assert cycle_six_is_min_optimizer(r)
        assert canonical_form(build_min_extremal(3, 3)) in {w.canon for w in r.optimizers}

    def test_two_four(self):
        r = verify_both(2, 4)[1]
        assert r.optimizers[0].canon == canonical_form(build_min_extremal(2, 4))
        assert r.uniqueness

    def test_min_unique_elsewhere_small(self):
        for p, q in [(2, 3), (2, 5), (3, 4), (4, 4), (3, 5)]:
            r = verify_both(p, q)[1]
            assert r.graph_match and r.uniqueness, (p, q)


class TestStructuralChecks:
    def test_cycle_four_passes_trivially(self):
        mx = verify(2, 2, "max")
        checks = [structural_checks(canon.graph_from_canonical(w.canon)) for w in mx.optimizers]
        assert len(checks) == 1
        c = checks[0]
        assert c.cycle_length_four and c.antipodal_degree_two and c.attached_trees_are_brooms
        assert c.pendants_in_larger_part is None
        assert c.all_pass

    def test_three_five_maximizer(self):
        mx = verify(3, 5, "max")
        checks = [structural_checks(canon.graph_from_canonical(w.canon)) for w in mx.optimizers]
        assert len(checks) == 1
        assert checks[0].all_pass
        assert checks[0].pendants_in_larger_part is True

    def test_four_four_skips_pendant_check(self):
        mx = verify(4, 4, "max")
        checks = [structural_checks(canon.graph_from_canonical(w.canon)) for w in mx.optimizers]
        assert len(checks) == 1
        assert checks[0].all_pass
        assert checks[0].pendants_in_larger_part is None

    def test_cycle_vertices_on_onion(self):
        g = build_onion(OnionParams(2, 3, 1))
        assert cycle_vertices(g) == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "g",
        [
            # peeling leaves 0-3-5-7-4-0 and the triangle 2-6-7 sharing vertex 7
            Graph.from_edges(
                8, [(0, 3), (0, 4), (1, 2), (2, 6), (2, 7), (3, 5), (4, 7), (5, 7), (6, 7)]
            ),
            # figure-eight: two 4-cycles sharing vertex 0
            Graph.from_edges(
                7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)]
            ),
            # two 4-cycles in two components
            Graph.from_edges(
                8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
            ),
        ],
    )
    def test_more_than_one_cycle_is_an_error(self, g):
        with pytest.raises(ValueError, match="more than one cycle"):
            cycle_vertices(g)
        with pytest.raises(ValueError, match="more than one cycle"):
            structural_checks(g)

    def test_tree_has_no_cycle(self):
        with pytest.raises(ValueError, match="no cycle"):
            cycle_vertices(Graph.from_edges(3, [(0, 1), (1, 2)]))

    def test_detects_long_cycle(self):
        c = structural_checks(build_cycle(6))
        assert not c.cycle_length_four
        assert not c.all_pass

    def test_detects_non_broom_attachment(self):
        # spider: central 4-cycle vertex with two length-2 legs is not a broom
        g = Graph.from_edges(
            9,
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (0, 6), (6, 7), (5, 8)],
        )
        c = structural_checks(g)
        assert c.cycle_length_four
        assert not c.attached_trees_are_brooms

    def test_long_handle_ending_in_pendants_is_broom(self):
        # 4-cycle, handle 0-4-5-6 at vertex 0, three pendants 7, 8, 9 at its end
        g = Graph.from_edges(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 7), (6, 8), (6, 9)],
        )
        c = structural_checks(g)
        assert c.cycle_length_four and c.antipodal_degree_two
        assert c.attached_trees_are_brooms

    def test_handle_forking_into_leaf_and_longer_leg_is_not_broom(self):
        # handle 0-4-5 at vertex 0 forks at 5 into the leaf 6 and the leg 7-8
        g = Graph.from_edges(
            9,
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (5, 7), (7, 8)],
        )
        c = structural_checks(g)
        assert c.cycle_length_four and c.antipodal_degree_two
        assert not c.attached_trees_are_brooms


class TestLemmaHarness:
    def test_small_run_is_clean(self):
        report = lemma_harness(seed=1, trials=500)
        assert report.ok
        assert report.identity_checked == 500
        assert report.monotonicity_checked == 500
        assert not report.counterexamples

    def test_skip_counting_present(self):
        report = lemma_harness(seed=2, trials=300)
        # equal-transmission draws occur regularly at these sizes
        assert report.monotonicity_skipped > 0

    def test_deterministic_for_fixed_seed(self):
        a = lemma_harness(seed=7, trials=100)
        b = lemma_harness(seed=7, trials=100)
        assert a == b

    @pytest.mark.parametrize("seed, skipped", [(1, 1126), (2, 1161), (3, 1121)])
    def test_counts_are_pinned(self, seed, skipped):
        # recorded with one BFS per transmission; every kernel since must keep them
        report = lemma_harness(seed=seed, trials=2000)
        assert (report.identity_checked, report.monotonicity_checked) == (2000, 2000)
        assert report.monotonicity_skipped == skipped
        assert report.ok

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            lemma_harness(seed=1, trials=0)

    def test_reports_counterexamples_when_wiener_is_wrong(self, monkeypatch, capsys):
        # W = 0 everywhere breaks the identity on every draw and makes every
        # transplant pair equal, so each checked trial yields one record
        monkeypatch.setattr(verification, "wiener_index", lambda g: 0)
        report = lemma_harness(seed=1, trials=3)
        assert not report.ok
        lemmas = [c.lemma for c in report.counterexamples]
        assert sorted(lemmas) == ["coalescence-identity"] * 3 + ["transplant-monotonicity"] * 3
        for c in report.counterexamples:
            g, h = graph6_decode(c.graph6_g), graph6_decode(c.graph6_h)
            assert 2 <= g.n and 2 <= h.n and g.n + h.n <= 15
            assert 0 <= c.u < g.n and 0 <= c.w < h.n
            if c.lemma == "coalescence-identity":
                assert c.v is None
            else:
                assert c.v is not None and 0 <= c.v < g.n and c.v != c.u
        assert main(["harness", "--trials", "2", "--format", "json"]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["identity_checked"] == record["monotonicity_checked"] == 2
        printed = [c["lemma"] for c in record["counterexamples"]]
        assert sorted(printed) == ["coalescence-identity"] * 2 + ["transplant-monotonicity"] * 2


class ScriptedRandom(random.Random):
    """Returns the scripted values from ``getrandbits``, one per call."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)

    def getrandbits(self, k):
        return next(self.values)


class TestRandomGenerators:
    """The generators draw the stream that ``randrange`` and ``randint`` would."""

    @staticmethod
    def twins(seed):
        return random.Random(seed), random.Random(seed)

    def test_draw_equals_randrange(self):
        # one call for a whole sequence makes the getrandbits calls of one
        # randrange per value, redraws included
        sizes = list(range(1, 301)) + [2**k + d for k in range(1, 41) for d in (-1, 0, 1)]
        for n in sizes:
            ours, theirs = self.twins(n)
            for count in (1, 1, 0, 2, 7, 62):
                got = verification._draws(ours, n, count)
                assert got == [theirs.randrange(n) for _ in range(count)], (n, count)
                assert ours.getstate() == theirs.getstate(), (n, count)

    @pytest.mark.parametrize("n", [0, -1, -64])
    def test_draw_rejects_an_empty_range_before_drawing(self, n):
        # a scripted stream with no values fails any draw at once, where a
        # draw below n < 1 from a real stream would never end
        with pytest.raises(ValueError):
            verification._draws(ScriptedRandom(()), n, 1)

    def test_random_tree_matches_the_heap_decode(self):
        for n in range(1, 65):
            ours, theirs = self.twins(n)
            for _ in range(10):
                assert random_tree(ours, n).adj == heap_random_tree(theirs, n).adj, n
                assert ours.getstate() == theirs.getstate(), n

    @pytest.mark.parametrize("n", range(3, 8))
    def test_random_tree_decodes_every_pruefer_sequence(self, n):
        for seq in itertools.product(range(n), repeat=n - 2):
            ours, theirs = ScriptedRandom(seq), ScriptedRandom(seq)
            assert random_tree(ours, n).adj == heap_random_tree(theirs, n).adj

    def test_random_connected_graph_matches_the_listed_non_edges(self):
        for n_min, n_max in [(2, 12), (1, 15)] + [(n, n) for n in range(1, 65)]:
            ours, theirs = self.twins(n_min * 100 + n_max)
            for _ in range(20):
                g = random_connected_graph(ours, n_min, n_max)
                assert g.adj == listed_random_connected_graph(theirs, n_min, n_max).adj
                assert ours.getstate() == theirs.getstate(), (n_min, n_max)

    def test_long_seeded_sequences_match(self):
        ours, theirs = self.twins(20261019)
        sizes = random.Random(1)
        for _ in range(3000):
            n = sizes.randint(1, 64)
            assert random_tree(ours, n).adj == heap_random_tree(theirs, n).adj
        assert ours.getstate() == theirs.getstate()
        ours, theirs = self.twins(20261020)
        for _ in range(3000):
            g = random_connected_graph(ours, 1, 15)
            assert g.adj == listed_random_connected_graph(theirs, 1, 15).adj
        assert ours.getstate() == theirs.getstate()

    def test_empty_order_range_raises(self):
        # randint(5, 3) raises before it draws
        with pytest.raises(ValueError):
            random_connected_graph(ScriptedRandom(()), 5, 3)

    @pytest.mark.parametrize("n", [0, -3, 65])
    def test_random_tree_rejects_bad_orders(self, n):
        with pytest.raises(ValueError):
            random_tree(random.Random(1), n)


class TestExtremalTable:
    def test_row_values(self):
        rows = {(r.p, r.q): r for r in extremal_table(n_max=7)}
        assert rows[(2, 2)].min_wiener == 8 and rows[(2, 2)].max_wiener == 8
        assert rows[(3, 3)].max_wiener == 29
        assert rows[(3, 4)].max_wiener == rows[(3, 4)].closed_form == 48
        assert all(r.ok for r in rows.values())
        assert not any(r.polynomial_match for r in rows.values())

    def test_row_is_not_ok_when_the_min_value_is_off(self):
        # the min side's value is asserted as verify --min asserts it, not
        # only its graph
        row = next(r for r in extremal_table(n_max=7) if (r.p, r.q) == (3, 4))
        assert row.ok and row.min_graph_match
        off = dataclasses.replace(row, min_wiener=row.min_wiener + 1)
        assert off.min_graph_match
        assert not off.ok

    @pytest.fixture
    def table_sizes(self, monkeypatch):
        """The ``max_size`` of every ``RootedTrees`` built while the test runs."""
        sizes = []
        build = RootedTrees.__init__

        def counted(table, max_size):
            sizes.append(max_size)
            build(table, max_size)

        monkeypatch.setattr(RootedTrees, "__init__", counted)
        return sizes

    def test_builds_one_rooted_tree_table(self, table_sizes):
        rows = extremal_table(n_max=8)
        assert len(rows) == 9
        assert table_sizes == [5]

    def test_builds_no_table_when_no_pair_is_selected(self, table_sizes):
        assert extremal_table(p_max=1, n_max=12) == []
        with pytest.raises(ValueError, match="order 17 exceeds the canonical-form limit 16"):
            extremal_table(p_max=1, n_max=17)
        assert table_sizes == []

    def test_makes_no_canonical_form(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("extremal_table computed a canonical form")

        for module in (canon, enumeration, verification):
            monkeypatch.setattr(module, "canonical_form", refuse)
        rows = extremal_table(n_max=12)
        assert len(rows) == 25
        assert all(r.ok for r in rows)

    def test_bounds(self):
        rows = extremal_table(p_max=2, n_max=8)
        assert {(r.p, r.q) for r in rows} == {(2, q) for q in range(2, 7)}
        with pytest.raises(ValueError, match="order 17 exceeds the canonical-form limit 16"):
            extremal_table(n_max=17)


def test_verify_both_shares_one_enumeration(monkeypatch):
    calls = []
    search = verification.unicyclic_classes

    def counted(spec, table):
        calls.append((spec.p, spec.q))
        return search(spec, table)

    monkeypatch.setattr(verification, "unicyclic_classes", counted)
    mx, mn = verify_both(3, 4)
    assert mx.classes == mn.classes == 8
    assert mx.direction == "max" and mn.direction == "min"
    assert calls == [(3, 4)]
    verify(3, 4, "max")
    assert calls == [(3, 4)] * 2
    calls.clear()
    extremal_table(n_max=8)
    assert len(calls) == 9 == len(set(calls))


def test_table_rows_agree_with_the_reports():
    rows = extremal_table(n_max=12)
    assert len(rows) == 25
    for row in rows:
        mx, mn = verify_both(row.p, row.q)
        assert row.classes == mx.classes == mn.classes
        assert (row.max_wiener, row.min_wiener) == (mx.optimum, mn.optimum)
        assert row.closed_form == mx.predicted_value_closed_form
        assert row.polynomial == mx.predicted_value_polynomial
        assert row.max_value_match == mx.value_match
        assert row.max_graph_match == mx.graph_match
        assert row.max_unique == mx.uniqueness
        assert row.polynomial_match == mx.polynomial_match
        assert row.min_graph_match == mn.graph_match
        assert row.ok == (mx.ok and mn.ok)


@pytest.mark.parametrize("p,q", [(2, 2), (3, 3), (3, 4), (4, 6)])
def test_verify_gives_the_report_of_verify_both(p, q):
    mx, mn = verify_both(p, q)
    assert verify(p, q, "max") == mx
    assert verify(p, q, "min") == mn


@pytest.mark.parametrize("n", range(4, 13))
def test_graph_match_agrees_with_canonical_forms(n):
    # graph_match is decided on bracelet codes; the printed canonical forms must agree
    for p in range(2, n // 2 + 1):
        for direction in ("max", "min"):
            r = verify(p, n - p, direction)
            assert r.graph_match == (r.predicted_canon in {w.canon for w in r.optimizers})
            assert r.uniqueness == (len(r.optimizers) == 1)


def test_verify_both_reaches_order_fifteen():
    mx, mn = verify_both(7, 8)
    assert mx.ok and mn.ok
    assert mx.classes == 25102  # data/class_stream_n13_16.json


@pytest.mark.parametrize(
    "call",
    [lambda: verify(8, 9, "max"), lambda: verify_both(8, 9)],
    ids=["verify", "verify_both"],
)
def test_orders_above_sixteen_are_rejected(call):
    with pytest.raises(ValueError, match="exceeds the canonical-form limit 16"):
        call()


def test_verify_rejects_an_unknown_direction():
    with pytest.raises(ValueError):
        verify(3, 4, "both")
