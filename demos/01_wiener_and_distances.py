"""Tour of the basic invariants: distances, Wiener index, transmissions.

The Wiener index of a connected graph is the sum of shortest-path
distances over all unordered vertex pairs, or equivalently half the sum
of the per-vertex transmissions. This script computes both on a few
named families and prints every vertex's transmission on a small onion.
"""

from wiener_unicyclic import (
    OnionParams,
    bipartition,
    build_cycle,
    build_onion,
    build_path,
    build_star,
    transmission,
    transmissions,
    wiener_index,
)

for name, g in [
    ("path P_6", build_path(6)),
    ("cycle C_6", build_cycle(6)),
    ("star K_{1,5}", build_star(5)),
]:
    ts = transmissions(g)
    bp = bipartition(g)
    parts = f"({bp.p},{bp.q})" if bp else "not bipartite"
    print(f"{name}: n={g.n} W={wiener_index(g)} transmissions={list(ts)} parts={parts}")

print()
print("transmissions of the onion On(1, 2, 1), by vertex:")
onion = build_onion(OnionParams(1, 2, 1))
for v, t in enumerate(transmissions(onion)):
    print(f"  t({v}) = {t}")

print()
print("the identity 2*W = sum of transmissions, on C_6:")
g = build_cycle(6)
print(f"  2*{wiener_index(g)} == {sum(transmission(g, v) for v in range(g.n))}")
