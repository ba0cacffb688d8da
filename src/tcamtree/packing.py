"""SRAM hybridization of tree tables and tag-based packing into super-tables.

Hybridization trades ternary rows for exact-match rows: a table whose
controlled prefix expansion stays within a conversion-factor budget is
re-marked as SRAM, and its expanded rows are pooled into page accounting.
The expansion is counted from the rows the table already holds: its
outermost terminals (those no shorter terminal covers) expand to the
table's longest length, and each stub that no terminal covers adds one
exact row of its own.
Packing groups the remaining TCAM tables of each level into tagged
super-tables so that fragmentation is amortized over whole block sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from ._util import ceil_div
from .errors import TagOverflow
from .tiler import SRAM, TCAM, ExpandedRoot, GrainSpec, TcamTree, TreeTable, blocks_for_table


@dataclass(frozen=True)
class SramPageSpec:
    """Geometry of one SRAM page: row width in bits x rows."""

    page_width: int = 128
    page_depth: int = 1024

    def __post_init__(self):
        if self.page_width < 1 or self.page_depth < 1:
            raise ValueError("SRAM page width and depth must be >= 1")

    def __str__(self):
        return f"{self.page_width}x{self.page_depth}"


VALUE_BITS = 16   # assumed result width per pooled SRAM row; not published


@dataclass(frozen=True)
class HybridizationConfig:
    factor: Fraction = Fraction(3)          # expansion budget: expanded <= factor * rows
    sram_spec: SramPageSpec = SramPageSpec()

    def __post_init__(self):
        object.__setattr__(self, "factor", Fraction(str(self.factor)) if isinstance(self.factor, float) else Fraction(self.factor))
        if self.factor < 1:
            raise ValueError("conversion factor must be >= 1")


def hybridize(tree: TcamTree, cfg: HybridizationConfig, tag_bits: int) -> list[int]:
    """Re-mark eligible tables as SRAM, in place; returns the pooled rows per
    level.

    Runs before tagging.  A table qualifies when an expanded row (`tag_bits`
    + key + `VALUE_BITS`) fits the page width and the expansion of its
    outermost terminals to the local maximum length is at most factor times
    its current row count.  `sram_rows_for_table` counts each such table
    once; a table with no terminal expands to nothing and stays TCAM:
    expanding pure pointer tables saves nothing.  A converted root is
    replaced by an `ExpandedRoot`, which keeps that expansion built, so each
    search reads it with one exact-match probe; other SRAM tables keep their
    per-length probes.
    """
    level_rows = [0] * len(tree.levels)
    # expanded <= factor * rows, in integers
    num, den = cfg.factor.numerator, cfg.factor.denominator
    for level_index, tables in enumerate(tree.levels):
        for table in tables:
            if tag_bits + table.max_local_length() + VALUE_BITS > cfg.sram_spec.page_width:
                continue
            expanded, rows = sram_rows_for_table(table)
            if expanded == 0 or expanded * den > num * table.entry_count:
                continue
            table.kind = SRAM
            if table is tree.root:
                tree.root = ExpandedRoot(table)
                tree.levels[0] = {tree.root: None}
            level_rows[level_index] += rows
    return level_rows


def sram_rows_for_table(table: TreeTable) -> tuple[int, int]:
    """(expanded, rows) for the table's controlled prefix expansion to its
    live expansion width, `max_local_length()`, the one the lookup path uses,
    counted in one pass over its rows with no key listed or sorted.

    A table's keys are prefixes, nested or disjoint, so the expansion is the
    union of its outermost terminals' ranges: `expanded` sums `2 ** (target
    - l)` over each terminal of length `l` that no shorter terminal covers,
    one `local_lpm` probe of its tagged key less one bit.  `rows`, the
    exact-match rows a converted table occupies, adds the rows with a child
    that no terminal covers, those whose child's `bmp_local_len` is -1."""
    target = table.max_local_length()
    expanded = uncovered = 0
    for tagged, e in table.by_key.items():
        l = tagged.bit_length() - 1
        if e.__class__ is str or e.bmp_local_len == l:
            if table.local_lpm(tagged >> 1, l - 1)[1] < 0:
                expanded += 1 << (target - l)
        elif e.bmp_local_len < 0:
            uncovered += 1
    return expanded, expanded + uncovered


class SuperTable:
    """Same-level tables packed onto one block set, told apart by a tag prefix.

    `members` is the tables, in the order they joined: an insertion-ordered
    dict used as a set.  A `tag_bits`-bit tag tells at most 2**tag_bits
    members apart, and only that count is modelled, not which tag each one
    holds.  `total_entries` is kept by the updates that change a member's
    rows, so it is not recounted over the members.
    """

    def __init__(self, level_index: int, tag_bits: int, members, grain: GrainSpec):
        self.level_index = level_index
        self.tag_bits = tag_bits
        self.members: dict[TreeTable, None] = dict.fromkeys(members)
        self.grain = grain
        if len(self.members) > (1 << tag_bits):
            raise TagOverflow(
                f"{len(self.members)} members cannot be told apart by {tag_bits} tag bits"
            )
        # Same-level tables share one stride width.
        self.effective_width = tag_bits + next(iter(self.members)).stride_width
        self.total_entries = sum(t.entry_count for t in self.members)
        # Entry capacity as mapped; updates may extend it a block row at a time.
        self.allocated_rows = ceil_div(self.total_entries, grain.depth)

    @property
    def block_count(self) -> int:
        return blocks_for_table(self.effective_width, self.total_entries, self.grain)

    @property
    def horizontal_blocks(self) -> int:
        return ceil_div(self.effective_width, self.grain.width)

    @property
    def allocated_blocks(self) -> int:
        return self.horizontal_blocks * self.allocated_rows

    @property
    def entry_capacity(self) -> int:
        return self.allocated_rows * self.grain.depth

    @property
    def empty_entries(self) -> int:
        return self.entry_capacity - self.total_entries

    def __repr__(self):
        return (
            f"<SuperTable level={self.level_index} members={len(self.members)}"
            f" entries={self.total_entries} blocks={self.block_count}>"
        )


def _emit_group(level_index, group, tag_bits, grain, out):
    """One super-table for the group, unless the tag tax makes separate
    untagged tables cheaper; a lone table never needs a tag (nothing shares
    its block set), which also keeps post-tag <= pre-tag on narrow grains."""
    if len(group) == 1:
        out.append(SuperTable(level_index, 0, group, grain))
        return
    packed = SuperTable(level_index, tag_bits, group, grain)
    separate = sum(
        blocks_for_table(t.stride_width, t.entry_count, grain) for t in group
    )
    if packed.block_count <= separate:
        out.append(packed)
    else:
        out.extend(SuperTable(level_index, 0, [t], grain) for t in group)


def tag_and_pack(tree: TcamTree, grain: GrainSpec, tag_bits: int) -> list[SuperTable]:
    """Group each level's TCAM tables into super-tables.

    Tables are taken largest-first, ties in level order, and each run of
    2**tag_bits consecutive tables in that order is one group.  The root stays
    alone and untagged, since level 0 holds only the root and `_emit_group`
    packs a lone table untagged; SRAM tables are never tagged.
    """
    result: list[SuperTable] = []
    size = 1 << tag_bits
    for level_index, tables in enumerate(tree.levels):
        tcams = [t for t in tables if t.kind == TCAM]
        # a stable sort, so ties stay in level order
        tcams.sort(key=lambda t: -t.entry_count)
        for i in range(0, len(tcams), size):
            _emit_group(level_index, tcams[i : i + size], tag_bits, grain, result)
    return result


@dataclass(frozen=True)
class ResourceReport:
    tcam_blocks_pre_tag: int
    tcam_blocks_post_tag: int
    sram_pages: int
    tcam_bits: int
    sram_entries: int
    baseline_blocks: int
    improvement_factor: Optional[Fraction]   # None means infinite (no TCAM used)

    def __post_init__(self):
        if self.tcam_blocks_post_tag > self.tcam_blocks_pre_tag:
            raise ValueError("tagging must not increase the block count")
        for name in ("tcam_blocks_pre_tag", "tcam_blocks_post_tag", "sram_pages",
                     "tcam_bits", "sram_entries", "baseline_blocks"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def resource_totals(
    supertables: Iterable[SuperTable],
    sram_entry_total: int,
    grain: GrainSpec,
    sram_spec: SramPageSpec,
    baseline_blocks: int,
) -> ResourceReport:
    """Block, page, and bit totals for a packed plan, against a stated baseline."""
    supertables = list(supertables)
    post = sum(st.block_count for st in supertables)
    pre = sum(
        blocks_for_table(t.stride_width, t.entry_count, grain)
        for st in supertables
        for t in st.members
    )
    pages = ceil_div(sram_entry_total, sram_spec.page_depth)
    if post == 0:
        improvement = None if baseline_blocks > 0 else Fraction(1)
    else:
        improvement = Fraction(baseline_blocks, post)
    return ResourceReport(
        tcam_blocks_pre_tag=pre,
        tcam_blocks_post_tag=post,
        sram_pages=pages,
        tcam_bits=post * grain.bits,
        sram_entries=sram_entry_total,
        baseline_blocks=baseline_blocks,
        improvement_factor=improvement,
    )
