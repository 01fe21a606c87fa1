"""Write the golden CLI record: stdout SHA-256 and exit code per invocation.

Each entry of ``cli_golden.json`` is one command line, the SHA-256 of
what it writes to stdout and its exit code. ``tests/test_cli_golden.py``
replays them, running in ``tests/data`` so that ``wiener_golden.g6``
resolves. The record pins output bytes, so it changes only with a stated
reason. Run from the repository root::

    PYTHONPATH=src python3 tests/data/make_cli_golden.py > tests/data/cli_golden.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

from wiener_unicyclic.cli import main as cli_main

PAIRS = [(2, 2), (3, 3), (2, 5), (4, 6)]


def invocations() -> list[list[str]]:
    """The command lines the record covers."""
    argvs = []
    for side in ("--max", "--min"):
        for p, q in PAIRS:
            for fmt in ("text", "csv", "json"):
                argvs.append(["verify", side, str(p), str(q), "--format", fmt])
    argvs += [["enumerate", "3", "4", "--format", fmt] for fmt in ("graph6", "text", "json")]
    argvs += [["table", "--n-max", "8", "--format", fmt] for fmt in ("text", "csv", "json")]
    argvs += [["harness", "--trials", "200", "--format", fmt] for fmt in ("text", "json")]
    argvs += [["onion", "1", "3", "1", "--format", fmt] for fmt in ("text", "csv", "json", "graph6")]
    argvs += [["wiener", "wiener_golden.g6", "--format", fmt] for fmt in ("text", "csv", "json")]
    return argvs


def run(argv: list[str]) -> tuple[str, int]:
    """stdout SHA-256 and exit code of one invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def main() -> None:
    os.chdir(os.path.dirname(os.path.abspath(__file__)))
    records = []
    for argv in invocations():
        digest, code = run(argv)
        records.append({"argv": argv, "exit": code, "stdout_sha256": digest})
    print("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]")


if __name__ == "__main__":
    main()
