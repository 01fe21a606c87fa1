"""Onion graphs and their closed-form Wiener and transmission values.

An onion On(k, l, m) is a 4-cycle with k pendants at one antipodal
vertex and a path on l vertices at the other, ending in m more pendants.
The library ships exact closed forms for W, t(v) and t(u_l); here we
cross-check them against distances computed from the graph itself over a
sweep of parameters.
"""

from wiener_unicyclic import (
    OnionParams,
    bipartition,
    build_onion,
    onion_transmissions,
    onion_wiener_closed_form,
    transmission,
    wiener_index,
)

print("  k  l  m |  n   W(closed)  W(bfs)   t_v  t_ul  parts")
print("-" * 60)
for k, l, m in [(0, 1, 0), (1, 1, 1), (0, 3, 0), (2, 3, 1), (3, 4, 5), (1, 7, 2)]:
    params = OnionParams(k, l, m)
    g = build_onion(params)
    w_cf = onion_wiener_closed_form(params)
    w_bfs = wiener_index(g)
    t_v, t_ul = onion_transmissions(params)
    assert w_cf == w_bfs
    assert transmission(g, params.v_id) == t_v
    assert transmission(g, params.path_end_id) == t_ul
    bp = bipartition(g)
    print(
        f"  {k}  {l}  {m} | {g.n:3d} {w_cf:8d} {w_bfs:8d} {t_v:6d} {t_ul:5d}  ({bp.p},{bp.q})"
    )

print()
print("every agreement above is asserted, not just printed;")
print("the test suite repeats this for all parameter triples up to 14 vertices.")
