"""Regenerate ``bench/expected.json``, the record the benchmark checks against.

For every (p, q) with p + q <= 13 it stores the class count, the max
and min Wiener optimum, and the SHA-256 of the stdout of
``verify --max p q --threads 1 --format json``; for every n_max from 4
to 12 the SHA-256 of ``table --n-max n_max --format csv``. Before
writing, each optimum is cross-checked against a second route: the max
against ``onion_wiener_closed_form`` and the min against
``wiener_index(build_min_extremal(p, q))``; any disagreement aborts.

Usage (from the repository root)::

    python3 bench/make_expected.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from wiener_unicyclic import (  # noqa: E402
    build_min_extremal,
    extremal_onion_params,
    onion_wiener_closed_form,
    verify_both,
    wiener_index,
)
from wiener_unicyclic.cli import main as cli_main  # noqa: E402

VERIFY_N_MAX = 13
TABLE_N_MAX = 12


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return buf.getvalue()


def main() -> int:
    pairs = []
    for p, q in workloads.part_sizes(VERIFY_N_MAX, exact=False):
        mx, mn = verify_both(p, q, workers=1)
        closed_form = onion_wiener_closed_form(extremal_onion_params(p, q))
        min_construction = wiener_index(build_min_extremal(p, q))
        if mx.optimum != closed_form or mn.optimum != min_construction:
            raise SystemExit(
                f"({p}, {q}): max {mx.optimum} vs closed form {closed_form},"
                f" min {mn.optimum} vs min construction {min_construction}"
            )
        out = _stdout(["verify", "--max", str(p), str(q), "--threads", "1", "--format", "json"])
        pairs.append(
            {
                "p": p,
                "q": q,
                "classes": mx.classes,
                "max": mx.optimum,
                "min": mn.optimum,
                "verify_max_json_sha256": workloads.sha256(out),
            }
        )
    tables = {
        str(n): workloads.sha256(_stdout(["table", "--n-max", str(n), "--threads", "1", "--format", "csv"]))
        for n in range(4, TABLE_N_MAX + 1)
    }
    record = {"git_sha": run._git_sha(), "pairs": pairs, "table_csv_sha256": tables}
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
