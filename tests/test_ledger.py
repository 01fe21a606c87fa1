"""The enumerator against the frozen ledger in ``data/verified_n14.jsonl``.

The ledger was written by ``data/make_ledger.py`` from the tree-plus-edge
enumerator; it changes only with a stated reason. Orders up to 12 are
checked always, 13 and 14 when ``WU_ACCEPT_N13`` is set to a non-empty
value.
"""

import hashlib
import json
import os

import pytest

from wiener_unicyclic import (
    EnumSpec,
    build_min_extremal,
    build_onion,
    canonical_form,
    enumerate_unicyclic_bipartite,
    extremal_onion_params,
    extremal_table,
    verify_both,
)

LEDGER = os.path.join(os.path.dirname(__file__), "data", "verified_n14.jsonl")

with open(LEDGER) as _fh:
    RECORDS = [json.loads(line) for line in _fh]


def _n_max() -> int:
    return 14 if os.environ.get("WU_ACCEPT_N13") else 12


def test_ledger_covers_every_pair_up_to_fourteen():
    pairs = [(r["p"], r["q"]) for r in RECORDS]
    assert pairs == [(p, n - p) for n in range(4, 15) for p in range(2, n // 2 + 1)]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: f"{r['p']}-{r['q']}")
def test_enumerator_matches_ledger(record):
    p, q = record["p"], record["q"]
    if p + q > _n_max():
        pytest.skip("orders 13 and 14 need WU_ACCEPT_N13")
    forms = [canonical_form(g) for g, _ in enumerate_unicyclic_bipartite(EnumSpec(p, q))]
    assert forms == sorted(set(forms))
    assert len(forms) == record["classes"]
    assert hashlib.sha256(b"".join(forms)).hexdigest() == record["classes_sha256"]
    mx, mn = verify_both(p, q)
    assert mx.classes == record["classes"]
    assert (mx.optimum, mn.optimum) == (record["max"], record["min"])
    assert [w.canon.hex() for w in mx.optimizers] == record["max_optimizers"]
    assert [w.canon.hex() for w in mn.optimizers] == record["min_optimizers"]


@pytest.fixture(scope="module")
def table_rows():
    return {(r.p, r.q): r for r in extremal_table(n_max=_n_max())}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: f"{r['p']}-{r['q']}")
def test_table_rows_match_ledger(record, table_rows):
    # the table decides on bracelet codes; the ledger holds the optimizers' canonical forms
    p, q = record["p"], record["q"]
    if p + q > _n_max():
        pytest.skip("orders 13 and 14 need WU_ACCEPT_N13")
    row = table_rows[(p, q)]
    onion = canonical_form(build_onion(extremal_onion_params(p, q))).hex()
    least = canonical_form(build_min_extremal(p, q)).hex()
    assert (row.classes, row.max_wiener, row.min_wiener) == (
        record["classes"],
        record["max"],
        record["min"],
    )
    assert row.max_graph_match == (onion in record["max_optimizers"])
    assert row.min_graph_match == (least in record["min_optimizers"])
    assert row.max_unique == (len(record["max_optimizers"]) == 1)
