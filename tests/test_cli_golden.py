"""Replay the golden CLI record in ``data/cli_golden.json``.

The record pins stdout bytes (by SHA-256) and the exit code of each
subcommand in each format, including the ``verify`` CSV column order and
the ``harness`` and ``onion`` JSON. It was written by
``data/make_cli_golden.py``; it changes only with a stated reason.

The benchmark's record, ``bench/expected.json``, pins the stdout of every
``verify --max p q --format json`` with p + q <= 13 and of every
``table --n-max N --format csv`` with N from 4 to 12; this module replays
those invocations too, reading that record and writing nothing.
"""

import hashlib
import json
import os

import pytest

from wiener_unicyclic.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")

with open(os.path.join(DATA, "cli_golden.json")) as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: " ".join(e["argv"]))
def test_cli_output_matches_golden_record(entry, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    code = main(entry["argv"])
    out = capsys.readouterr().out
    assert code == entry["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == entry["stdout_sha256"]


with open(os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "expected.json")) as _fh:
    BENCH = json.load(_fh)

BENCH_RUNS = [
    (
        ["verify", "--max", str(r["p"]), str(r["q"]), "--threads", "1", "--format", "json"],
        r["verify_max_json_sha256"],
    )
    for r in BENCH["pairs"]
] + [
    (["table", "--n-max", n, "--threads", "1", "--format", "csv"], digest)
    for n, digest in BENCH["table_csv_sha256"].items()
]


def test_bench_record_covers_its_workloads():
    pairs = {(r["p"], r["q"]) for r in BENCH["pairs"]}
    assert pairs == {(p, q) for p in range(2, 7) for q in range(p, 14 - p)}
    assert set(BENCH["table_csv_sha256"]) == {str(n) for n in range(4, 13)}


@pytest.mark.parametrize("argv, digest", [pytest.param(a, d, id=" ".join(a)) for a, d in BENCH_RUNS])
def test_cli_output_matches_bench_record(argv, digest, capsys):
    code = main(argv)
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
