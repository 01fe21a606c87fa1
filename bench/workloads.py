"""The four workloads: their CLI invocations, inputs and output checks.

Every workload runs through ``wiener_unicyclic.cli.main`` exactly as a
user's command line would. An operation is one isomorphism class
verified (``verify-n13``, ``table-n12``), one graph6 line evaluated
(``wiener-stream``) or one lemma trial (``lemma-harness``). A check
returns how many of an iteration's operations failed: an invocation
whose exit code is not 0, whose stdout bytes differ from the expected
record, or whose values disagree with the record or with the
independent reference fails every operation it carries.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import reference

NAMES = ("verify-n13", "table-n12", "wiener-stream", "lemma-harness")

# Sizes per scale. "full" is what the benchmark measures; "smoke" is the
# tiny version the benchmark's own smoke test runs in a few seconds.
SIZES = {
    "full": {"verify_n": 13, "table_n": 12, "wiener_lines": 3000, "trials": 10000},
    "smoke": {"verify_n": 9, "table_n": 9, "wiener_lines": 50, "trials": 100},
}
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
WIENER_ORDERS = (16, 64)
WIENER_KINDS = ("tree", "unicyclic", "dense")


@dataclass
class Workload:
    ops: int  # operations per iteration
    argvs: list[list[str]]  # one cli.main call each
    check: Callable[[list[tuple[int, str]]], int] = field(repr=False)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        record = json.load(fh)
    record["by_pair"] = {(r["p"], r["q"]): r for r in record["pairs"]}
    return record


def part_sizes(n_max: int, exact: bool) -> list[tuple[int, int]]:
    """(p, q) with 2 <= p <= q and p + q == n_max (exact) or <= n_max."""
    return [
        (p, q)
        for p in range(2, n_max // 2 + 1)
        for q in range(p, n_max - p + 1)
        if not exact or p + q == n_max
    ]


def _verify(expected: dict, n: int) -> Workload:
    pairs = part_sizes(n, exact=True)
    rows = [expected["by_pair"][pq] for pq in pairs]

    def check(outputs: list[tuple[int, str]]) -> int:
        failed = 0
        for row, (code, out) in zip(rows, outputs):
            rec = json.loads(out) if code == 0 and out.count("\n") == 1 else {}
            ok = (
                sha256(out) == row["verify_max_json_sha256"]
                and rec.get("classes") == row["classes"]
                and rec.get("optimum") == row["max"]
                and rec.get("predicted_value_closed_form") == row["max"]
                and rec.get("value_match") is True
                and rec.get("graph_match") is True
                and rec.get("uniqueness") is True
            )
            failed += 0 if ok else row["classes"]
        return failed

    argvs = [["verify", "--max", str(p), str(q), "--threads", "1", "--format", "json"] for p, q in pairs]
    return Workload(sum(r["classes"] for r in rows), argvs, check)


def _table(expected: dict, n_max: int) -> Workload:
    rows = [expected["by_pair"][pq] for pq in part_sizes(n_max, exact=False)]
    total = sum(r["classes"] for r in rows)
    want_sha = expected["table_csv_sha256"][str(n_max)]

    def check(outputs: list[tuple[int, str]]) -> int:
        (code, out), = outputs
        if code != 0 or sha256(out) != want_sha:
            return total
        got = {(int(r["p"]), int(r["q"])): r for r in csv.DictReader(io.StringIO(out))}
        failed = 0
        for row in rows:
            rec = got.get((row["p"], row["q"]))
            ok = rec is not None and (
                int(rec["classes"]) == row["classes"]
                and int(rec["max_wiener"]) == row["max"]
                and int(rec["closed_form"]) == row["max"]
                and int(rec["min_wiener"]) == row["min"]
                and all(
                    rec[c] == "True"
                    for c in ("max_value_match", "max_graph_match", "max_unique", "min_graph_match")
                )
            )
            failed += 0 if ok else row["classes"]
        return failed

    argvs = [["table", "--n-max", str(n_max), "--threads", "1", "--format", "csv"]]
    return Workload(total, argvs, check)


def _wiener(seed: int, lines: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    graphs = [
        reference.random_graph(rng, WIENER_KINDS[i % len(WIENER_KINDS)], *WIENER_ORDERS)
        for i in range(lines)
    ]
    path = os.path.join(workdir, f"wiener-{seed}-{lines}.g6")
    with open(path, "w") as fh:
        fh.writelines(reference.graph6_line(n, edges) + "\n" for n, edges in graphs)
    want: list[dict] = []  # filled on the first check, outside the timed region

    def check(outputs: list[tuple[int, str]]) -> int:
        if not want:
            want.extend(reference.expected_record(i, n, e) for i, (n, e) in enumerate(graphs, 1))
        (code, out), = outputs
        got = [json.loads(s) for s in out.splitlines()] if code == 0 else []
        if len(got) != len(want):
            return lines
        return sum(g != w for g, w in zip(got, want))

    return Workload(lines, [["wiener", path, "--format", "json"]], check)


def _harness(seed: int, trials: int) -> Workload:
    def check(outputs: list[tuple[int, str]]) -> int:
        (code, out), = outputs
        rec = json.loads(out) if code == 0 and out.count("\n") == 1 else {}
        ok = (
            rec.get("seed") == seed
            and rec.get("trials") == trials
            and rec.get("identity_checked") == trials
            and rec.get("monotonicity_checked") == trials
            and rec.get("counterexamples") == []
        )
        return 0 if ok else trials

    argvs = [["harness", "--seed", str(seed), "--trials", str(trials), "--format", "json"]]
    return Workload(trials, argvs, check)


def make(name: str, seed: int, scale: str, workdir: str) -> Workload:
    """Build a workload's inputs; this is the work ``setup_s`` times."""
    size = SIZES[scale]
    if name == "verify-n13":
        return _verify(load_expected(), size["verify_n"])
    if name == "table-n12":
        return _table(load_expected(), size["table_n"])
    if name == "wiener-stream":
        return _wiener(seed, size["wiener_lines"], workdir)
    if name == "lemma-harness":
        return _harness(seed, size["trials"])
    raise ValueError(f"unknown workload {name!r}")
