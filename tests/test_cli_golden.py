"""Replay the golden CLI record in ``data/cli_golden.json``.

The record pins stdout bytes (by SHA-256) and the exit code of each
subcommand in each format, including the ``verify`` CSV column order and
the ``harness`` and ``onion`` JSON. It was written by
``data/make_cli_golden.py``; it changes only with a stated reason.
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
