"""Stage mapping and the runtime model: search, insert, delete, overflow.

Placement honors one hard constraint, stated per level: every level's
blocks and pages sit after every stage of the level above (the RMT stage
dependency), and `PipelinePlan.place` is the one way to take stage space.
`search` checks an address and turns it into an int once
(`prefixdb.address_value`) and walks the tree from the root's `lookup`:
match/action per level, in the one loop of `TreeTable.lookup`, which an SRAM
root's `ExpandedRoot.lookup` enters below its own level.
Entries that the planned structure cannot hold (too long for the stride
coverage, or no block space left) sit in the overflow buffer, one tree table
as wide as the address, which the same lookup searches; its matches are
compared against the tree's by explicit prefix length, overflow winning
ties, and an empty buffer is not consulted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._util import ceil_div, paused_gc
from .errors import (
    CapacityExceeded,
    DuplicatePrefix,
    LengthOutOfRange,
    OverflowFull,
    StageDepthExceeded,
)
from .packing import (
    HybridizationConfig,
    SuperTable,
    hybridize,
    sram_rows_for_table,  # noqa: F401 -- never called here; perfbench/tracer.py patches this name
    tag_and_pack,
)
from .prefixdb import DEFAULT_NEXT_HOP, Prefix, PrefixDatabase, address_value
from .tiler import (
    SRAM,
    GrainSpec,
    StrideList,
    TcamTree,
    TreeTable,
    build_tree,
    tree_delete,
    tree_insert,
)

MAX_STAGE_COUNT = 4096   # stage usage is an array, scanned first fit


@dataclass(frozen=True)
class PipelineProfile:
    """Per-stage block/page capacities.  The default is a synthetic layout
    (16 stages x 24 TCAM blocks, 16 x 80 SRAM pages); vendor stage layouts
    are not published, so reports label it as such."""

    stage_count: int = 16
    tcam_blocks_per_stage: int = 24
    sram_pages_per_stage: int = 80

    def __post_init__(self):
        if self.stage_count < 1:
            raise ValueError("stage_count must be >= 1")
        if self.stage_count > MAX_STAGE_COUNT:
            raise ValueError(f"stage_count must be <= {MAX_STAGE_COUNT}, got {self.stage_count}")
        if self.tcam_blocks_per_stage < 0 or self.sram_pages_per_stage < 0:
            raise ValueError("per-stage block and page capacities must be >= 0")

    @property
    def is_synthetic_default(self) -> bool:
        return self == PipelineProfile()


SYNTHETIC_PROFILE_NOTE = (
    "pipeline profile is a synthetic default (16x24 TCAM blocks, 16x80 SRAM pages);"
    " per-stage capacities of real chips are not published"
)


@dataclass(frozen=True)
class Span:
    stage: int       # 1-based
    start: int       # first block/page index within the stage
    count: int


class PipelinePlan:
    """Placements for every super-table and per-level SRAM pool, plus free space."""

    def __init__(self, profile: PipelineProfile):
        self.profile = profile
        self.placements: list[list[Span]] = []
        self.sram_spans: dict[int, list[Span]] = {}
        self.extra_spans: dict[SuperTable, list[Span]] = {}   # growth during updates
        self._tcam_next = [0] * (profile.stage_count + 1)   # index 0 unused
        self._sram_next = [0] * (profile.stage_count + 1)
        self.level_stages: dict[int, tuple[int, int]] = {}   # level -> (first, last) stage

    # -- capacity ------------------------------------------------------------

    def _free(self, stage: int, sram: bool) -> int:
        per = self.profile.sram_pages_per_stage if sram else self.profile.tcam_blocks_per_stage
        used = self._sram_next[stage] if sram else self._tcam_next[stage]
        return per - used

    def window(self, level: int) -> tuple[int, int]:
        """Stages a level-`level` placement may legally occupy right now: after
        every stage of the shallower levels, before every stage of the deeper."""
        above = [hi for l, (_, hi) in self.level_stages.items() if l < level]
        below = [lo for l, (lo, _) in self.level_stages.items() if l > level]
        return max(above, default=0) + 1, min(below, default=self.profile.stage_count + 1) - 1

    def place(self, level: int, amount: int, sram: bool) -> Optional[list[Span]]:
        """Take `amount` blocks (or SRAM pages) for level `level`: contiguous
        per-stage spans over consecutive stages of the level's window, first
        fit, noted in the level's stage bounds.  None when no start stage in
        the window can hold the amount."""
        if amount == 0:
            return []
        first, last = self.window(level)
        for start in range(first, last + 1):
            takes = []
            remaining = amount
            stage = start
            while remaining > 0 and stage <= last:
                take = min(self._free(stage, sram), remaining)
                if take <= 0:
                    break
                takes.append((stage, take))
                remaining -= take
                stage += 1
            if remaining == 0:
                lo, hi = self.level_stages.get(level, (start, stage - 1))
                self.level_stages[level] = min(lo, start), max(hi, stage - 1)
                nxt = self._sram_next if sram else self._tcam_next
                spans = []
                for stage, take in takes:
                    spans.append(Span(stage, nxt[stage], take))
                    nxt[stage] += take
                return spans
        return None

    def stages_used(self) -> int:
        return max((hi for _, hi in self.level_stages.values()), default=0)


def map_to_pipeline(
    supertables: list[SuperTable],
    sram_pools: dict[int, int],
    profile: PipelineProfile,
) -> PipelinePlan:
    """Level by level, shallowest first: each level's super-tables, then its
    SRAM pool, placed first fit through `PipelinePlan.place`."""
    plan = PipelinePlan(profile)
    plan.placements = [[] for _ in supertables]
    by_level: dict[int, list[int]] = {}
    for i, st in enumerate(supertables):
        by_level.setdefault(st.level_index, []).append(i)
    for level in sorted(set(by_level) | set(sram_pools)):
        indices = by_level.get(level, [])
        pages = sram_pools.get(level, 0)
        if not pages and not any(supertables[i].allocated_blocks for i in indices):
            continue
        first, last = plan.window(level)
        if first > profile.stage_count:
            raise StageDepthExceeded(
                f"level {level} needs a stage after {first - 1},"
                f" but the profile has only {profile.stage_count}"
            )
        for i in indices:
            blocks = supertables[i].allocated_blocks
            spans = plan.place(level, blocks, sram=False)
            if spans is None:
                free = sum(plan._free(s, False) for s in range(first, last + 1))
                raise CapacityExceeded(
                    f"cannot place {blocks} blocks for a level-{level}"
                    f" super-table; {free} blocks free in stages {first}..{last}",
                    blocks_short=max(0, blocks - free),
                )
            plan.placements[i] = spans
        if pages:
            spans = plan.place(level, pages, sram=True)
            if spans is None:
                free = sum(plan._free(s, True) for s in range(first, last + 1))
                raise CapacityExceeded(
                    f"cannot place {pages} SRAM pages for level {level};"
                    f" {free} pages free in stages {first}..{last}",
                    pages_short=max(0, pages - free),
                )
            plan.sram_spans[level] = spans
    placed = sorted(plan.level_stages.items())
    for (above, (_, reach)), (below, (start, _)) in zip(placed, placed[1:]):
        if reach >= start:
            raise AssertionError(
                f"level {above} reaches stage {reach}, level {below} starts in stage {start}"
            )
    return plan


# -- runtime ------------------------------------------------------------------


class OverflowBuffer:
    """Side table for entries the planned structure cannot hold: one
    `TreeTable`, `table`, whose stride is the address width.  Each entry is a
    row, its next hop, under the tree's tagged key `(1 << length) | value`;
    `entries` is the table's row dict.  A search is the table's own lookup,
    one probe per length present, longest first."""

    capacity = 512   # the default: entries held before an insert is refused

    def __init__(self, address_width: int, capacity: int = capacity):
        self.table = TreeTable(address_width)
        self.entries = self.table.by_key
        self.length_sets: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.capacity = capacity

    def __len__(self):
        return len(self.entries)

    def contains(self, bits: str) -> bool:
        return (int(bits or "0", 2) | (1 << len(bits))) in self.entries

    def add(self, length: int, value: int, hop: str):
        """Hold a new entry, absent from the buffer."""
        if len(self.entries) >= self.capacity:
            raise OverflowFull(
                f"overflow buffer at capacity {self.capacity}; reconfigure to proceed"
            )
        self.table.add_row(length, value | (1 << length), hop, self.length_sets)

    def remove(self, length: int, value: int) -> bool:
        tagged = value | (1 << length)
        if tagged not in self.entries:
            return False
        self.table.remove_row(length, tagged, self.length_sets)
        return True

    def lpm(self, key: int) -> tuple[Optional[str], int]:
        """The longest entry matching the address whose int value is `key`:
        (next hop, length) or (None, -1)."""
        return self.table.lookup(key, self.table.stride_width)


class PipelineState:
    """A deployable lookup structure: tree, packing, optional placement, overflow.

    `sram_rows` is the plan's pooled SRAM row count, as hybridized; updates
    do not change it yet, though they add and drop rows of SRAM tables
    (defect (a), ROADMAP item 2).
    """

    def __init__(
        self,
        tree: TcamTree,
        overflow: OverflowBuffer,
        *,
        grain: GrainSpec,
        tag_bits: int,
        supertables: list[SuperTable],
        sram_rows: int,
        plan: Optional[PipelinePlan] = None,
    ):
        self.tree = tree
        self.overflow = overflow
        self.grain = grain
        self.tag_bits = tag_bits
        self.supertables = supertables
        self.plan = plan
        self.sram_rows = sram_rows
        self._st_of: dict[TreeTable, SuperTable] = {}
        for st in supertables:
            for t in st.members:
                self._st_of[t] = st

    # -- construction --------------------------------------------------------

    @classmethod
    def planned(
        cls,
        db: PrefixDatabase,
        strides: StrideList,
        *,
        grain: GrainSpec = GrainSpec(),
        tag_bits: Optional[int] = None,
        profile: Optional[PipelineProfile] = None,
        hybrid: Optional[HybridizationConfig] = None,
        overflow_capacity: int = OverflowBuffer.capacity,
    ) -> "PipelineState":
        """The one constructor: tree, optional hybridization, packing,
        placement when a profile is given, and an overflow buffer holding the
        entries beyond the stride coverage.  Without a profile, updates count
        block rows but never refuse one.  `tag_bits` (default: the grain's) is the
        plan's one tag width, for super-tables and pooled SRAM rows alike."""
        with paused_gc:
            tag = grain.tag_width(tag_bits)
            tree = build_tree(db.restricted(strides.coverage), strides)
            level_rows: list[int] = []
            if hybrid is not None:
                level_rows = hybridize(tree, hybrid, tag)
            supertables = tag_and_pack(tree, grain, tag)
            plan = None
            if profile is not None:
                pools = {}
                for level_index, rows in enumerate(level_rows):
                    if rows:
                        pools[level_index] = ceil_div(rows, hybrid.sram_spec.page_depth)
                plan = map_to_pipeline(supertables, pools, profile)
            overflow = OverflowBuffer(db.address_width, overflow_capacity)
            for length, prefixes in db.by_length:
                if length > strides.coverage:
                    for value, hop in prefixes.items():
                        overflow.add(length, value, hop)
            return cls(
                tree,
                overflow,
                grain=grain,
                tag_bits=tag,
                supertables=supertables,
                sram_rows=sum(level_rows),
                plan=plan,
            )

    # -- lookup ----------------------------------------------------------------

    def search(self, address: str) -> str:
        """The next hop of `address`; the overflow buffer wins ties by prefix length."""
        return self.search_value(address_value(address, self.tree.address_width))

    def search_value(self, key: int) -> str:
        """`search` of an address given as its int value, unchecked.  The
        overflow buffer is searched only when it holds entries."""
        tree = self.tree
        value, length = tree.root.lookup(key, tree.address_width)
        if self.overflow.entries:
            over_value, over_len = self.overflow.lpm(key)
            if over_len >= length:
                value = over_value
        return value if value is not None else DEFAULT_NEXT_HOP

    # -- updates -----------------------------------------------------------------

    def insert(self, prefix: Prefix):
        """Add one prefix: insert it into the tree and place the rows it added.
        A prefix beyond the stride coverage, or one whose rows find no stage
        room (the tree insert is rolled back), spills to the overflow buffer."""
        tree = self.tree
        if prefix.length > tree.address_width:
            raise LengthOutOfRange(
                f"prefix {prefix} longer than address width {tree.address_width}"
            )
        key = int(prefix.bits or "0", 2)
        if self.overflow.entries and (key | (1 << prefix.length)) in self.overflow.entries:
            raise DuplicatePrefix(f"prefix {prefix} already present")
        if prefix.length <= tree.coverage:
            if self._place(tree_insert(tree, key, prefix.length, prefix.next_hop)):
                return
            tree_delete(tree, key, prefix.length)
        self.overflow.add(prefix.length, key, prefix.next_hop)

    def delete(self, prefix: Prefix):
        """Remove one prefix from the tree or the overflow buffer."""
        key = int(prefix.bits or "0", 2)
        if self.overflow.entries and self.overflow.remove(prefix.length, key):
            return
        shrunk = tree_delete(self.tree, key, prefix.length)
        for table in shrunk:
            st = self._st_of.get(table)
            if st is None:
                continue
            st.total_entries -= 1
            if table.entry_count == 0 and table is not self.tree.root:
                # collected: it leaves its super-table, whose blocks stay
                # allocated until a replan; an emptied super-table stays in
                # `supertables`, in its planned position, and can be rejoined
                del self._st_of[table]
                del st.members[table]

    # -- capacity bookkeeping ------------------------------------------------------

    def _place(self, grown: list[tuple[int, TreeTable]]) -> bool:
        """Place the rows an insert added, shallowest table first, or change
        nothing and return False when a block row finds no stage room.

        Each (level, table) in `grown` gained one row; no two share a level.
        The row goes to its table's super-table; a new table's row goes to the
        last super-table of its level with room for another member, or else to
        a new one of its own, whose constructor counts the row and its first
        block row.  A row takes one block row when its super-table is full or
        new, and never more: capacity never falls below `total_entries`.  When
        a host finds no stage room, no new super-table is tried: its tag is no
        narrower and its level window the same, and `place` fits no more
        blocks where fewer did not fit.  Only the stage map changes until
        every block row is placed, so a failure restores just its snapshot,
        taken before the first placement.  Without a stage map rows are
        counted, never refused.
        """
        plan = self.plan
        saved = None
        rows = []   # (super-table, table joining it or None, opened, new block row's spans or None)
        for level, table in grown:
            if table.kind == SRAM:
                continue
            st = self._st_of.get(table)
            joins = st is None
            if joins:
                st = self._host_for_level(level)
            opened = st is None
            if opened:
                st = SuperTable(level, self.tag_bits, [table], self.grain)
            spans = None
            if opened or st.empty_entries == 0:
                spans = []
                if plan is not None:
                    if saved is None:
                        saved = dict(plan.level_stages), list(plan._tcam_next)
                    spans = plan.place(level, st.horizontal_blocks, sram=False)
                    if spans is None:
                        plan.level_stages, plan._tcam_next = saved
                        return False
            rows.append((st, table if joins else None, opened, spans))
        for st, table, opened, spans in rows:
            if opened:
                self.supertables.append(st)
            else:
                st.total_entries += 1
                st.allocated_rows += spans is not None
                if table is not None:
                    st.members[table] = None
            if table is not None:
                self._st_of[table] = st
            if spans:
                plan.extra_spans.setdefault(st, []).extend(spans)
        return True

    def _host_for_level(self, level: int) -> Optional[SuperTable]:
        """The last of the level's super-tables with room for another member,
        read off `supertables` from the end; None when none has room."""
        for st in reversed(self.supertables):
            if st.level_index == level and len(st.members) < 1 << st.tag_bits:
                return st
        return None

