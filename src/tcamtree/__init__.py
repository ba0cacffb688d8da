"""Longest-prefix-match lookup as a tree of fixed-grain TCAM blocks.

Planner, resource estimator, and functional simulator: parse a prefix
database, build a fixed-stride tree of match tables, optionally convert
near-aligned tables to SRAM, pack the rest into tagged super-tables, map
them onto pipeline stages, and check all of it against a reference lookup
and closed-form bounds.
"""

from .bounds import (
    BoundsReport,
    TilingCondition,
    lower_bound_bits,
    max_savings_factor,
    single_tcam_baseline,
    tiling_condition,
)
from .packing import (
    HybridizationConfig,
    ResourceReport,
    SramPageSpec,
    SuperTable,
    hybridize,
    resource_totals,
    tag_and_pack,
)
from .pipeline import (
    OverflowBuffer,
    PipelinePlan,
    PipelineProfile,
    PipelineState,
    map_to_pipeline,
)
from .prefixdb import (
    DEFAULT_NEXT_HOP,
    Prefix,
    PrefixDatabase,
    max_threshold_length,
    oracle_lookup,
    parse_database,
    parse_file,
    serialize,
)
from .tiler import (
    GrainSpec,
    StrideList,
    TcamTree,
    TreeTable,
    blocks_for_table,
    build_tree,
)
from .trie import (
    LeanLevelTable,
    build_unibit_trie,
    compute_lean_levels,
    lean_row,
)

__all__ = [
    "BoundsReport",
    "DEFAULT_NEXT_HOP",
    "GrainSpec",
    "HybridizationConfig",
    "LeanLevelTable",
    "OverflowBuffer",
    "PipelinePlan",
    "PipelineProfile",
    "PipelineState",
    "Prefix",
    "PrefixDatabase",
    "ResourceReport",
    "SramPageSpec",
    "StrideList",
    "SuperTable",
    "TcamTree",
    "TilingCondition",
    "TreeTable",
    "blocks_for_table",
    "build_tree",
    "build_unibit_trie",
    "compute_lean_levels",
    "hybridize",
    "lean_row",
    "lower_bound_bits",
    "map_to_pipeline",
    "max_savings_factor",
    "max_threshold_length",
    "oracle_lookup",
    "parse_database",
    "parse_file",
    "resource_totals",
    "serialize",
    "single_tcam_baseline",
    "tag_and_pack",
    "tiling_condition",
]

__version__ = "0.1.0"
