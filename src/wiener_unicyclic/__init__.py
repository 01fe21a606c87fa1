"""Wiener indices and extremal verification for unicyclic bipartite graphs.

A small exact-combinatorics toolkit: immutable bitmask graphs with
distance invariants, builders for the onion graphs and their
closed-form Wiener values, an isomorphism-free enumerator for connected
unicyclic bipartite graphs with given part sizes (bracelets of rooted
trees around an even cycle, each with its Wiener index), and brute-force
verifiers that compare the enumerated optima against the predicted
constructions.
"""

from .canon import CANONICAL_MAX_VERTICES, canonical_form
from .enumeration import (
    EnumSpec,
    count_classes,
    enumerate_unicyclic_bipartite,
    unicyclic_classes,
)
from .families import (
    OnionParams,
    build_cycle,
    build_min_extremal,
    build_onion,
    build_path,
    build_star,
    coalesce,
    extremal_onion_params,
    min_wiener_polynomial,
    onion_transmissions,
    onion_wiener_closed_form,
    theorem_polynomial,
)
from .graph6 import Graph6ParseError, graph6_decode, graph6_encode
from .graphs import (
    MAX_VERTICES,
    Bipartition,
    DisconnectedGraphError,
    Graph,
    bipartition,
    cycle_vertices,
    is_unicyclic,
    transmission,
    transmissions,
    wiener_index,
)
from .verification import (
    ExtremalReport,
    HarnessReport,
    OptimizerWitness,
    StructuralCheck,
    TableRow,
    extremal_table,
    lemma_harness,
    random_connected_graph,
    random_tree,
    structural_checks,
    verify,
    verify_both,
)

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "CANONICAL_MAX_VERTICES",
    "DisconnectedGraphError",
    "EnumSpec",
    "ExtremalReport",
    "Graph",
    "Graph6ParseError",
    "HarnessReport",
    "MAX_VERTICES",
    "OnionParams",
    "OptimizerWitness",
    "StructuralCheck",
    "TableRow",
    "bipartition",
    "build_cycle",
    "build_min_extremal",
    "build_onion",
    "build_path",
    "build_star",
    "canonical_form",
    "coalesce",
    "count_classes",
    "cycle_vertices",
    "enumerate_unicyclic_bipartite",
    "extremal_onion_params",
    "extremal_table",
    "graph6_decode",
    "graph6_encode",
    "is_unicyclic",
    "lemma_harness",
    "min_wiener_polynomial",
    "onion_transmissions",
    "onion_wiener_closed_form",
    "random_connected_graph",
    "random_tree",
    "structural_checks",
    "theorem_polynomial",
    "transmission",
    "transmissions",
    "unicyclic_classes",
    "verify",
    "verify_both",
    "wiener_index",
]
