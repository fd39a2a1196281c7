"""Minimum-cut toolkit for weighted undirected graphs.

Exact max-flow and isolating-cut primitives, a randomized guided search
that bounds all source-to-terminal cut values along a Steiner tree, a
Gusfield-style Gomory-Hu tree builder, and exhaustive brute-force oracles
for validating everything on small instances.
"""

from .gomoryhu import (
    GHViolation,
    GomoryHuTree,
    build_gusfield,
    format_gh_tree,
    load_gh_tree,
    parse_gh_tree,
    save_gh_tree,
    verify_gomory_hu,
)
from .graph import (
    GENERATOR_KINDS,
    WEIGHT_CAP,
    ContractionMap,
    Cut,
    Graph,
    GraphFormatError,
    InvalidCutError,
    connected_components,
    contract,
    cut_value,
    format_graph,
    generate,
    load_graph,
    parse_graph,
    save_graph,
)
from .isolating import GroupCut, isolating_cuts
from .maxflow import FlowResult, max_flow, max_flow_multi
from .oracle import (
    ORACLE_MAX_N,
    ORACLE_MAX_N_ISOLATING,
    OracleAnswer,
    brute_isolating_cuts,
    brute_leaf_respecting_min_cut,
    brute_min_cut,
    brute_respecting_min_cut,
    brute_steiner_min_cut,
)
from .steiner import (
    Decomposition,
    SteinerTree,
    centroid,
    decompose,
    format_tree,
    load_tree,
    parse_tree,
    prune_sample,
    random_spanning_tree,
    random_steiner_tree,
    respects_count,
    save_tree,
)
from .treemincuts import (
    BASE_TREE_SIZE,
    CandidateCuts,
    RecursionStats,
    leaf_mincuts,
    sstcv_verify,
    tree_mincuts,
)

__version__ = "0.1.0"

__all__ = [
    "BASE_TREE_SIZE",
    "CandidateCuts",
    "ContractionMap",
    "Cut",
    "Decomposition",
    "FlowResult",
    "GENERATOR_KINDS",
    "GHViolation",
    "GomoryHuTree",
    "Graph",
    "GraphFormatError",
    "GroupCut",
    "InvalidCutError",
    "ORACLE_MAX_N",
    "ORACLE_MAX_N_ISOLATING",
    "OracleAnswer",
    "RecursionStats",
    "SteinerTree",
    "WEIGHT_CAP",
    "brute_isolating_cuts",
    "brute_leaf_respecting_min_cut",
    "brute_min_cut",
    "brute_respecting_min_cut",
    "brute_steiner_min_cut",
    "build_gusfield",
    "centroid",
    "connected_components",
    "contract",
    "cut_value",
    "decompose",
    "format_gh_tree",
    "format_graph",
    "format_tree",
    "generate",
    "isolating_cuts",
    "leaf_mincuts",
    "load_gh_tree",
    "load_graph",
    "load_tree",
    "max_flow",
    "max_flow_multi",
    "parse_gh_tree",
    "parse_graph",
    "parse_tree",
    "prune_sample",
    "random_spanning_tree",
    "random_steiner_tree",
    "respects_count",
    "save_gh_tree",
    "save_graph",
    "save_tree",
    "sstcv_verify",
    "tree_mincuts",
    "verify_gomory_hu",
    "__version__",
]
