"""Write the frozen ledger of exhaustive results, one JSON line per (p, q).

Each record holds, for connected unicyclic bipartite graphs with part
sizes (p, q): the number of isomorphism classes, the SHA-256 of their
sorted canonical forms (concatenated; forms of one order all have the
same length), the maximum and minimum Wiener index, and the canonical
forms (hex) of every graph attaining them.

The classes come from the tree-plus-edge route in ``tests/oracles.py``,
which is the enumerator the ledger was first written with, so the
ledger never depends on the enumerator it is used to check. Run from the
repository root::

    PYTHONPATH=src python3 tests/data/make_ledger.py --n-max 14 > tests/data/verified_n14.jsonl
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from oracles import tree_plus_edge_classes  # noqa: E402

from wiener_unicyclic import wiener_index  # noqa: E402
from wiener_unicyclic.canon import graph_from_canonical  # noqa: E402


def record(p: int, q: int, forms: set[bytes]) -> dict:
    """The ledger line for (p, q) given the canonical forms of its classes."""
    ordered = sorted(forms)
    values = [wiener_index(graph_from_canonical(f)) for f in ordered]
    hi, lo = max(values), min(values)
    return {
        "p": p,
        "q": q,
        "classes": len(ordered),
        "classes_sha256": hashlib.sha256(b"".join(ordered)).hexdigest(),
        "max": hi,
        "min": lo,
        "max_optimizers": [f.hex() for f, w in zip(ordered, values) if w == hi],
        "min_optimizers": [f.hex() for f, w in zip(ordered, values) if w == lo],
    }


def pairs(n_max: int) -> list[tuple[int, int]]:
    """(p, q) with 2 <= p <= q and p + q <= n_max, by order, then p."""
    return [(p, n - p) for n in range(4, n_max + 1) for p in range(2, n // 2 + 1)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n-max", type=int, default=14)
    args = ap.parse_args()
    for p, q in pairs(args.n_max):
        sys.stdout.write(json.dumps(record(p, q, tree_plus_edge_classes(p, q)), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
