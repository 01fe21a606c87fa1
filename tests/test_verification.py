"""Extremal reports, structural consequences, lemma harness, table."""

import pytest

from wiener_unicyclic import (
    OnionParams,
    build_cycle,
    build_min_extremal,
    build_onion,
    canonical_form,
    check_structural_consequences,
    cycle_vertices,
    extremal_table,
    graph6_decode,
    lemma_harness,
    structural_checks,
    verify_both,
)
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
        checks = check_structural_consequences(2, 2)
        assert len(checks) == 1
        c = checks[0]
        assert c.cycle_length_four and c.antipodal_degree_two and c.attached_trees_are_brooms
        assert c.pendants_in_larger_part is None
        assert c.all_pass

    def test_three_five_maximizer(self):
        checks = check_structural_consequences(3, 5)
        assert len(checks) == 1
        assert checks[0].all_pass
        assert checks[0].pendants_in_larger_part is True

    def test_four_four_skips_pendant_check(self):
        checks = check_structural_consequences(4, 4)
        assert len(checks) == 1
        assert checks[0].all_pass
        assert checks[0].pendants_in_larger_part is None

    def test_cycle_vertices_on_onion(self):
        g = build_onion(OnionParams(2, 3, 1))
        assert cycle_vertices(g) == [0, 1, 2, 3]

    def test_detects_long_cycle(self):
        c = structural_checks(build_cycle(6))
        assert not c.cycle_length_four
        assert not c.all_pass

    def test_detects_non_broom_attachment(self):
        # spider: central 4-cycle vertex with two length-2 legs is not a broom
        from wiener_unicyclic import Graph

        g = Graph.from_edges(
            9,
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (0, 6), (6, 7), (5, 8)],
        )
        c = structural_checks(g)
        assert c.cycle_length_four
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

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            lemma_harness(seed=1, trials=0)


class TestExtremalTable:
    def test_row_values(self):
        rows = {(r.p, r.q): r for r in extremal_table(n_max=7)}
        assert rows[(2, 2)].min_wiener == 8 and rows[(2, 2)].max_wiener == 8
        assert rows[(3, 3)].max_wiener == 29
        assert rows[(3, 4)].max_wiener == rows[(3, 4)].closed_form == 48
        assert all(r.ok for r in rows.values())
        assert not any(r.polynomial_match for r in rows.values())

    def test_bounds(self):
        rows = extremal_table(p_max=2, n_max=8)
        assert {(r.p, r.q) for r in rows} == {(2, q) for q in range(2, 7)}
        with pytest.raises(ValueError):
            extremal_table(n_max=20, max_n=14)


def test_verify_both_shares_one_enumeration():
    mx, mn = verify_both(3, 4)
    assert mx.classes == mn.classes == 8
    assert mx.direction == "max" and mn.direction == "min"
