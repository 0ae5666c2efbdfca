"""Well-coveredness of graphs and their Cartesian products.

A graph is well-covered when every maximal independent set has the same
cardinality.  This package decides well-coveredness by bit-parallel
enumeration and branch-and-bound search, constructs explicit
distinct-cardinality witnesses in products of suitable factor pairs, and
ships a CLI harness that verifies the product consistency claim
exhaustively over small-graph corpora.
"""

from .corpus import GENERATION_CAP, generate_all_graphs
from .graphs import (
    GRAPH6_MAX_ORDER,
    CapExceeded,
    Graph,
    Graph6Error,
    cartesian_product,
    from_graph6,
    is_connected,
    is_independent,
    is_maximal_independent,
    to_graph6,
)
from .independence import (
    DEFAULT_ENUMERATION_CAP,
    IsolatableWitness,
    WellCoveredReport,
    enumerate_maximal_independent_sets,
    is_well_covered,
    isolatable_vertices,
    mis_size_histogram,
)
from .theorem import (
    FactorAnalysis,
    PairVerdict,
    ProductWitness,
    build_product_witness,
    verify_pair,
    witness_invariants,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "DEFAULT_ENUMERATION_CAP",
    "FactorAnalysis",
    "GENERATION_CAP",
    "GRAPH6_MAX_ORDER",
    "Graph",
    "Graph6Error",
    "IsolatableWitness",
    "PairVerdict",
    "ProductWitness",
    "WellCoveredReport",
    "build_product_witness",
    "cartesian_product",
    "enumerate_maximal_independent_sets",
    "from_graph6",
    "generate_all_graphs",
    "is_connected",
    "is_independent",
    "is_maximal_independent",
    "is_well_covered",
    "isolatable_vertices",
    "mis_size_histogram",
    "to_graph6",
    "verify_pair",
    "witness_invariants",
]
