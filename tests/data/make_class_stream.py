"""Write the class-stream record for orders 13 to 16, one entry per (p, q).

Each entry holds the number of classes ``unicyclic_classes`` yields for
(p, q) and the SHA-256 of the stream itself: one line ``W id id ...`` per
class, in stream order. Tree ids are those of ``RootedTrees(p + q - 3)``.
The ledger (``verified_n14.jsonl``) stops at p + q = 14 and pins class
sets, not their order; this record pins the order, the tree ids and the
Wiener indices of the four largest orders the canonical-form guard
allows. The entries of orders 15 and 16 were written from the search
before the colour-bound pruning, those of orders 13 and 14 from the
search before the penultimate bead closed each bracelet itself; the
record changes only with a stated reason. Run from the repository root::

    PYTHONPATH=src python3 tests/data/make_class_stream.py > tests/data/class_stream_n13_16.json
"""

from __future__ import annotations

import hashlib
import json
import sys

from wiener_unicyclic import EnumSpec, unicyclic_classes

ORDERS = (13, 14, 15, 16)


def stream_record(p: int, q: int) -> dict:
    """Class count and stream digest of (p, q)."""
    digest = hashlib.sha256()
    classes = 0
    for w, ids in unicyclic_classes(EnumSpec(p, q)):
        digest.update((" ".join(map(str, (w, *ids))) + "\n").encode())
        classes += 1
    return {"p": p, "q": q, "classes": classes, "stream_sha256": digest.hexdigest()}


def main() -> int:
    records = [stream_record(p, n - p) for n in ORDERS for p in range(2, n // 2 + 1)]
    json.dump(records, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
