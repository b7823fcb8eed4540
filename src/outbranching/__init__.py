"""Out-branching and directed-path solvers for sparse digraphs.

The package splits into a structural layer (digraph, connectivity), a
tree-decomposition layer (treewidth, treedp), three solver pipelines
(leaf_pipeline, internal_pipeline, ballcover), brute-force oracles
(oracle), and instance tooling (generators, analysis, cli).
"""

from .digraph import (
    Digraph,
    UndirectedGraph,
    OutTree,
    ParseError,
    underlying_graph,
    contract_arc_directed,
    identify_arc_endpoints,
    bfs_layers,
    parse_digraph,
    parse_instance,
    serialize_instance,
    validate_out_tree,
)
from .connectivity import (
    reachable,
    is_rooted_2connected,
    cut_profile,
    nice_vertices,
    high_indegree_vertices,
    arcs_disconnecting_two,
    CutProfile,
)
from .errors import BudgetError, DPInvariantError, KernelContractError, RootDisconnected
from .oracle import (
    enum_arborescences,
    count_arborescences,
    brute_max_leaves,
    brute_max_internal,
    brute_max_internal_tree,
    brute_longest_path,
    enum_out_trees,
)
from .treewidth import (
    TreeDecomposition,
    NiceDecomposition,
    greedy_decomposition,
    exact_treewidth_small,
    treewidth_upper_bound,
    validate_decomposition,
    make_nice,
)
from .treedp import dp_max_leaves, dp_max_internal_outtree, dp_longest_path
from .leaf_pipeline import (
    GuaranteedYes,
    Reduced,
    StructureReport,
    LeafSearchResult,
    reduce_lob,
    solve_lob,
)
from .internal_pipeline import (
    LayerPartition,
    SubInstance,
    InternalSearchResult,
    kernel_stage,
    build_partitions,
    generate_collection,
    expand_minimal_tree,
    solve_iob,
)
from .ballcover import (
    BallCoverConfig,
    PathSearchResult,
    ball,
    solve_kpath_ballcover,
)
from .generators import GeneratorSpec, generate
from .analysis import analyze, bench, rows_to_csv

__all__ = [name for name in dir() if not name.startswith("_")]
