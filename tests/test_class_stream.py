"""The class stream at orders 13 to 16 against ``data/class_stream_n13_16.json``.

The record was written by ``data/make_class_stream.py``: its orders 15 and
16 before the search pruned bead choices by colour count, its orders 13 and
14 before the penultimate bead closed each bracelet. It pins, per (p, q),
the class count and the SHA-256 of every (W, tree ids) pair in stream
order; the ledger pins class sets, not their order, and the brute-force
bracelet oracle stops at p + q = 12. Orders 13 and 14 take about a third of
a second and always run; orders 15 and 16 take about ten seconds, so they
run only when ``WU_ACCEPT_N13`` is set to a non-empty value.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "data"))

from make_class_stream import ORDERS, stream_record  # noqa: E402

RECORD = os.path.join(os.path.dirname(__file__), "data", "class_stream_n13_16.json")

with open(RECORD) as _fh:
    RECORDS = json.load(_fh)


def test_record_covers_every_pair_of_orders_thirteen_to_sixteen():
    pairs = [(r["p"], r["q"]) for r in RECORDS]
    assert ORDERS == (13, 14, 15, 16)
    assert pairs == [(p, n - p) for n in ORDERS for p in range(2, n // 2 + 1)]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: f"{r['p']}-{r['q']}")
def test_class_stream_matches_record(record):
    if record["p"] + record["q"] > 14 and not os.environ.get("WU_ACCEPT_N13"):
        pytest.skip("orders 15 and 16 need WU_ACCEPT_N13")
    assert stream_record(record["p"], record["q"]) == record
