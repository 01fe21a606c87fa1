"""Isomorphism-free enumeration of unicyclic bipartite graphs.

For part sizes (3, 4) there are exactly eight isomorphism classes of
connected unicyclic bipartite graphs. We list them with the Wiener
index the stream carries for each, and dump the graphs to a graph6 file,
one line per class, in a temporary directory that is removed afterwards.
"""

import os
import tempfile

from wiener_unicyclic import (
    EnumSpec,
    count_classes,
    cycle_vertices,
    enumerate_unicyclic_bipartite,
    graph6_encode,
)

spec = EnumSpec(3, 4)
print(f"classes with part sizes (3,4): {count_classes(spec)}")
print()
print("graph6      W   cycle length")
for g, w in enumerate_unicyclic_bipartite(spec):
    print(f"{graph6_encode(g):10s} {w:3d}   {len(cycle_vertices(g))}")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "classes_3_4.g6")
    lines = [graph6_encode(g) + "\n" for g, _ in enumerate_unicyclic_bipartite(spec)]
    with open(path, "w") as fh:
        fh.writelines(lines)
    with open(path) as fh:
        first = fh.readline().strip()
print()
print(f"wrote {len(lines)} graph6 lines to a temporary file, the first {first}")
print("the same stream is available from the command line:")
print("  wiener-unicyclic enumerate 3 4")
