"""Fixed-stride trees of match tables: construction, block costs, stride search.

A tree table holds ternary entries of its stride width.  An original prefix
that ends inside a level becomes a terminal entry padded with trailing
don't-cares; a prefix that crosses the level boundary is represented by a
fully-specified stub entry that carries a pointer to a child table and
inherits the value of the stub key's best match among the table's own
terminal entries.

Keys are unique within a table and prefix-shaped, so at most one entry of
each specified length matches a segment, and the longest such entry is the
first match of a priority-ordered ternary scan.  TCAM and SRAM tables
therefore share one lookup: probe the entry dict once per specified length
present, longest first (per-length hashing, as in Waldvogel et al. and
Srinivasan & Varghese).  The index is kept current by the writes that add or
remove a row, so searches are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

from ._util import ceil_div, ceil_log2
from .errors import BudgetZero, DuplicatePrefix, NotFound, PrefixExceedsCoverage
from .prefixdb import PrefixDatabase
from .trie import LeanLevelTable

TCAM = "tcam"
SRAM = "sram"


@dataclass(frozen=True)
class GrainSpec:
    """Geometry of one physical TCAM block: ternary width x entry depth."""

    width: int = 44
    depth: int = 512

    def __post_init__(self):
        if self.width < 1 or self.depth < 1:
            raise ValueError("grain width and depth must be >= 1")

    @property
    def bits(self) -> int:
        return self.width * self.depth

    @property
    def default_tag_bits(self) -> int:
        return ceil_log2(self.depth)

    def tag_width(self, tag_bits: Optional[int]) -> int:
        """A plan's one tag width: `tag_bits` when given, else the grain's default."""
        return self.default_tag_bits if tag_bits is None else tag_bits

    def __str__(self):
        return f"{self.width}x{self.depth}"


@dataclass(frozen=True)
class StrideList:
    """Ordered per-level bit consumptions; their sum is the coverage length."""

    strides: tuple[int, ...]

    def __post_init__(self):
        if not self.strides:
            raise ValueError("at least one stride is required")
        if any(s < 1 for s in self.strides):
            raise ValueError("every stride must be >= 1")

    @property
    def coverage(self) -> int:
        return sum(self.strides)

    @property
    def boundaries(self) -> tuple[int, ...]:
        acc, out = 0, []
        for s in self.strides:
            acc += s
            out.append(acc)
        return tuple(out)

    def start_bit(self, level: int) -> int:
        return sum(self.strides[:level])

    def __len__(self):
        return len(self.strides)

    def __getitem__(self, i):
        return self.strides[i]

    @classmethod
    def parse(cls, text: str) -> "StrideList":
        try:
            strides = tuple(int(part) for part in text.split("-"))
        except ValueError:
            raise ValueError(f"strides must be dash-separated integers, got {text!r}") from None
        return cls(strides)

    def __str__(self):
        return "-".join(str(s) for s in self.strides)


def blocks_for_table(table_width: int, table_depth: int, grain: GrainSpec) -> int:
    """Blocks to tile one table: horizontal stitches times vertical stitches."""
    if table_width < 0 or table_depth < 0:
        raise ValueError("width and depth must be >= 0")
    return ceil_div(table_width, grain.width) * ceil_div(table_depth, grain.depth)


class TableEntry:
    """One ternary row: key, optional value (with the local length that produced
    it), optional child pointer.  `is_terminal` marks values that belong to a
    database prefix ending in this table, as opposed to values inherited by a
    stub from the table's own terminals."""

    __slots__ = ("key_bits", "bmp_value", "bmp_local_len", "is_terminal", "child")

    def __init__(self, key_bits, bmp_value, bmp_local_len, is_terminal, child):
        self.key_bits = key_bits
        self.bmp_value = bmp_value
        self.bmp_local_len = bmp_local_len
        self.is_terminal = is_terminal
        self.child = child

    @property
    def specified_len(self) -> int:
        star = self.key_bits.find("*")
        return len(self.key_bits) if star < 0 else star

    def __repr__(self):
        mark = "T" if self.is_terminal else "s"
        return f"<{self.key_bits} {mark} {self.bmp_value} child={self.child is not None}>"


class TreeTable:
    """One node of the tree: a ternary table over `stride_width` bits.

    The lookup index is `_entries` plus `_lengths`, the distinct specified
    lengths present, longest first; `put` and `remove` keep it current, and
    `build_tree` writes both directly, one level at a time.
    A `remove` checks whether a length lost its last row by probing that
    length's keys.  Once the probes would outnumber the rows left (and some
    are left), the table counts its rows per specified length in `_counts`
    and keeps the counts from then on; tables that only grow never pay for
    them.
    """

    __slots__ = ("level_index", "stride_width", "start_bit", "kind",
                 "_entries", "_lengths", "_counts")

    def __init__(self, level_index: int, stride_width: int, start_bit: int):
        self.level_index = level_index
        self.stride_width = stride_width
        self.start_bit = start_bit
        self.kind = TCAM
        self._entries: dict[str, TableEntry] = {}
        self._lengths: tuple[int, ...] = ()
        self._counts: Optional[dict[int, int]] = None

    # -- structure ---------------------------------------------------------

    def put(self, entry: TableEntry):
        """Store `entry` under its key, replacing any row there."""
        length = entry.specified_len
        if self._counts is not None and entry.key_bits not in self._entries:
            self._counts[length] = self._counts.get(length, 0) + 1
        self._entries[entry.key_bits] = entry
        if length not in self._lengths:
            self._lengths = tuple(sorted(self._lengths + (length,), reverse=True))

    def remove(self, key_bits: str):
        entries = self._entries
        length = entries[key_bits].specified_len
        if self._counts is None and 1 < len(entries) <= (1 << length):
            self._counts = counts = {}
            for e in entries.values():
                l = e.specified_len
                counts[l] = counts.get(l, 0) + 1
        del entries[key_bits]
        counts = self._counts
        if counts is None:
            last = next(self.rows_under("", length), None) is None
        else:
            counts[length] -= 1
            last = not counts[length]
            if last:
                del counts[length]
        # A row's specified length never changes, so a length leaves the
        # index only with its last row.
        if last:
            self._lengths = tuple(l for l in self._lengths if l != length)

    def rows_under(self, bits: str, length: int):
        """Rows of specified length `length` whose keys start with `bits`:
        probes each candidate key, or scans the table when it holds fewer
        rows than there are candidates."""
        free = length - len(bits)
        pad = "*" * (self.stride_width - length)
        entries = self._entries
        if (1 << free) <= len(entries):
            for tail in product("01", repeat=free):
                e = entries.get(bits + "".join(tail) + pad)
                if e is not None:
                    yield e
        else:
            for e in entries.values():
                if e.key_bits.startswith(bits) and e.specified_len == length:
                    yield e

    def get(self, key_bits: str) -> Optional[TableEntry]:
        return self._entries.get(key_bits)

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    def entries(self) -> list[TableEntry]:
        """Entries in match priority order: descending specified bits, then key.
        Same-length keys are disjoint, so the key order never decides a match."""
        return sorted(self._entries.values(), key=lambda e: (-e.specified_len, e.key_bits))

    def raw_entries(self):
        return self._entries.values()

    def terminal_prefixes(self) -> list[tuple[str, int, str]]:
        """(bits, length, value) for database prefixes that end in this table."""
        out = []
        for e in self._entries.values():
            if e.is_terminal:
                out.append((e.key_bits[: e.bmp_local_len], e.bmp_local_len, e.bmp_value))
        return out

    def stub_count(self) -> int:
        """Child-bearing entries: the pointer overhead charged to this table."""
        return sum(1 for e in self._entries.values() if e.child is not None)

    def pure_stub_count(self) -> int:
        """Child-bearing entries that are not also terminals: the rows the
        tree holds beyond the database entries themselves."""
        return sum(
            1 for e in self._entries.values() if e.child is not None and not e.is_terminal
        )

    def max_local_length(self) -> int:
        """Expansion target for SRAM conversion: the full stride when any stub
        exists (stub keys must stay exact), else the longest terminal."""
        if any(e.child is not None for e in self._entries.values()):
            return self.stride_width
        return max((e.bmp_local_len for e in self._entries.values() if e.is_terminal), default=0)

    def local_lpm(self, key: str):
        """Longest terminal entry matching the first len(key) bits of a
        segment: (value, local length), or (None, None) when nothing does."""
        s = self.stride_width
        for l in self._lengths:
            if l <= len(key):
                e = self._entries.get(key[:l] + "*" * (s - l))
                if e is not None and e.is_terminal:
                    return e.bmp_value, l
        return None, None

    # -- lookup ------------------------------------------------------------

    def lookup(self, segment: str):
        """(hit, value, value_local_len, child) for one stride segment.

        The first hit, longest length first, is the longest local match.  Both
        kinds answer alike: an SRAM table's exact-match rows expand its
        terminals, and a stub's inherited value is the longest terminal
        matching its key, which is what the expansion stores there.
        """
        s = self.stride_width
        entries = self._entries
        for l in self._lengths:
            e = entries.get(segment[:l] + "*" * (s - l))
            if e is not None:
                return True, e.bmp_value, e.bmp_local_len, e.child
        return False, None, None, None

    def __repr__(self):
        return (
            f"<TreeTable level={self.level_index} stride={self.stride_width}"
            f" entries={self.entry_count} kind={self.kind}>"
        )


class TcamTree:
    """The built tree: root table, per-level tables, entry accounting.

    Each level is an insertion-ordered dict used as a set, so iterating it
    gives the tables in creation order and dropping one is O(1).
    """

    def __init__(self, stride_list: StrideList, address_width: int):
        self.stride_list = stride_list
        self.address_width = address_width
        self.levels: list[dict[TreeTable, None]] = [{} for _ in stride_list.strides]
        self.root = self.new_table(0)

    def new_table(self, level_index: int) -> TreeTable:
        t = TreeTable(
            level_index,
            self.stride_list[level_index],
            self.stride_list.start_bit(level_index),
        )
        self.levels[level_index][t] = None
        return t

    def drop_table(self, table: TreeTable):
        del self.levels[table.level_index][table]

    def all_tables(self) -> list[TreeTable]:
        return [t for level in self.levels for t in level]

    @property
    def coverage(self) -> int:
        return self.stride_list.coverage

    @property
    def terminal_count(self) -> int:
        return sum(
            1 for t in self.all_tables() for e in t.raw_entries() if e.is_terminal
        )

    @property
    def total_entries(self) -> int:
        return sum(t.entry_count for t in self.all_tables())

    def stub_counts(self) -> dict[int, int]:
        """Pointer overhead per level boundary: child-bearing entries, which
        equal the unibit trie's non-leaf counts at those depths."""
        out = {}
        for level_index, tables in enumerate(self.levels):
            boundary = self.stride_list.boundaries[level_index]
            out[boundary] = sum(t.stub_count() for t in tables)
        return out

    def pure_stub_counts(self) -> dict[int, int]:
        """Rows held beyond the database entries, per level boundary: a stub
        merged with a terminal occupies no extra row and is not counted."""
        out = {}
        for level_index, tables in enumerate(self.levels):
            boundary = self.stride_list.boundaries[level_index]
            out[boundary] = sum(t.pure_stub_count() for t in tables)
        return out

    def structure(self):
        """Deterministic nested dump, used for equality and report assertions."""

        def dump(table):
            return {
                "kind": table.kind,
                "entries": [
                    (
                        e.key_bits,
                        e.bmp_value,
                        e.bmp_local_len,
                        e.is_terminal,
                        dump(e.child) if e.child is not None else None,
                    )
                    for e in table.entries()
                ],
            }

        return dump(self.root)


# -- construction and edits -------------------------------------------------


def walk(tree: TcamTree, bits: str):
    """Follow a prefix down the strides: (path, table, rest).

    The walk stops at the table where the prefix ends (`rest`, the bits left
    there, fits its stride) or at the first missing stub row or child (`rest`
    is longer).  `path` holds the (table, stub row) pairs passed through.
    """
    path: list[tuple[TreeTable, TableEntry]] = []
    table = tree.root
    while len(bits) > table.stride_width:
        s = table.stride_width
        entry = table.get(bits[:s])
        if entry is None or entry.child is None:
            break
        path.append((table, entry))
        table, bits = entry.child, bits[s:]
    return path, table, bits


def tree_insert(tree: TcamTree, bits: str, value: str) -> list[TreeTable]:
    """Insert one prefix, creating stub/child chains as needed: the update
    path of a built tree (`build_tree` builds a whole database in one sweep).

    Returns the tables that gained a row, shallowest first.  Safe under
    arbitrary insertion order: a new terminal refreshes the inherited values
    of the stubs under it, and a new stub inherits from the terminals already
    present.
    """
    if len(bits) > tree.coverage:
        raise PrefixExceedsCoverage(
            f"prefix of length {len(bits)} exceeds coverage {tree.coverage}"
        )
    _, table, rest = walk(tree, bits)
    grown = []
    while len(rest) > table.stride_width:
        s = table.stride_width
        stub_key = rest[:s]
        child = tree.new_table(table.level_index + 1)
        entry = table.get(stub_key)
        if entry is None:
            inherited_value, inherited_len = table.local_lpm(stub_key)
            table.put(TableEntry(stub_key, inherited_value, inherited_len, False, child))
            grown.append(table)
        else:
            entry.child = child
        table, rest = child, rest[s:]
    s = table.stride_width
    key = rest.ljust(s, "*")
    entry = table.get(key)
    if entry is not None and entry.is_terminal:
        raise DuplicatePrefix(f"prefix {bits}/{len(bits)} already present")
    if entry is not None:
        entry.is_terminal = True
        entry.bmp_value = value
        entry.bmp_local_len = len(rest)
    else:
        table.put(TableEntry(key, value, len(rest), True, None))
        grown.append(table)
    for other in table.rows_under(rest, s):
        if not other.is_terminal and (
            other.bmp_local_len is None or other.bmp_local_len < len(rest)
        ):
            other.bmp_value = value
            other.bmp_local_len = len(rest)
    return grown


def tree_delete(tree: TcamTree, bits: str) -> list[TreeTable]:
    """Remove one prefix; empty child tables and their stubs are collected.

    Returns the tables that lost a row, deepest first.  Those left without
    rows, other than the root, are the collected ones.
    """
    path, table, rest = walk(tree, bits)
    s = table.stride_width
    key = rest.ljust(s, "*")
    entry = table.get(key)
    if entry is None or not entry.is_terminal:
        raise NotFound(f"prefix {bits}/{len(bits)} not in tree")
    shrunk = []
    if entry.child is not None:
        entry.is_terminal = False
    else:
        table.remove(key)
        shrunk.append(table)
    # Only stubs under the prefix that inherited from it change, and all of
    # them fall back to the next shorter terminal above it.
    value, length = table.local_lpm(rest[:-1]) if rest else (None, None)
    for other in table.rows_under(rest, s):
        if not other.is_terminal and other.bmp_local_len == len(rest):
            other.bmp_value, other.bmp_local_len = value, length
    # lazy upward collection of emptied tables
    while table.entry_count == 0 and path:
        parent, entry = path.pop()
        tree.drop_table(table)
        entry.child = None
        if not entry.is_terminal:
            parent.remove(entry.key_bits)
            shrunk.append(parent)
        table = parent
    return shrunk


def build_tree(db: PrefixDatabase, strides: StrideList) -> TcamTree:
    """Build the fixed-stride tree for a whole database, one sweep per level.

    The sweep runs over the prefixes stably sorted by length, so (length,
    file) order.  At each level, the prefixes that end there become terminal
    rows of their table; each longer one keys a child table by its bits up to
    the level's end, created at that key's first occurrence.  So each level's
    tables come out in (length, file) order of their first prefix, which
    packing follows, and the tree equals the one `tree_insert` grows from the
    same order.  All of a table's terminals come before any of its stubs in
    that order, so each new stub row takes its inherited value from one
    `local_lpm` call and no row is ever refreshed.
    """
    if strides.coverage > db.address_width:
        raise ValueError(
            f"strides cover {strides.coverage} bits but addresses have {db.address_width}"
        )
    too_long = [p for p in db.entries if p.length > strides.coverage]
    if too_long:
        raise PrefixExceedsCoverage(
            f"{len(too_long)} entries exceed coverage {strides.coverage}"
            f" (first: {too_long[0]})"
        )
    tree = TcamTree(strides, db.address_width)
    # The prefixes still alive at a level, and beside them the table each
    # one has reached: two parallel lists, not a tuple per prefix, because
    # every container object the sweep allocates beyond the rows themselves
    # brings the garbage collector's passes closer.
    alive = sorted(db.entries, key=lambda p: p.length)
    owners = [tree.root] * len(alive)
    end = 0
    for level_index, s in enumerate(strides.strides):
        start, end = end, end + s
        deeper, deeper_owners = [], []
        for p, table in zip(alive, owners):
            bits = p.bits
            if len(bits) > end:
                deeper.append(p)
                deeper_owners.append(table)
                continue
            rest = bits[start:]
            local = len(rest)
            key = rest + "*" * (s - local)
            table._entries[key] = TableEntry(key, p.next_hop, local, True, None)
            # Lengths arrive in ascending order, so the tuple stays longest first.
            lengths = table._lengths
            if not lengths or lengths[0] != local:
                table._lengths = (local,) + lengths
        for j, p in enumerate(deeper):
            table = deeper_owners[j]
            key = p.bits[start:end]
            entry = table._entries.get(key)
            if entry is None:
                value, length = table.local_lpm(key)
                child = tree.new_table(level_index + 1)
                table._entries[key] = TableEntry(key, value, length, False, child)
                if s not in table._lengths:
                    table._lengths = (s,) + table._lengths
            elif entry.child is None:   # a full-length terminal takes the stub's child
                child = entry.child = tree.new_table(level_index + 1)
            else:
                child = entry.child
            deeper_owners[j] = child
        alive, owners = deeper, deeper_owners
    return tree


# -- stride search ------------------------------------------------------------


@dataclass(frozen=True)
class StrideSearchConfig:
    height: int                    # number of strides in the tree
    coverage: int                  # total bits the strides must add up to
    budget: int                    # acceptable-overhead threshold (entry count)
    grain: GrainSpec = GrainSpec()
    tag_bits: Optional[int] = None

    def __post_init__(self):
        if self.height < 1:
            raise ValueError("height must be >= 1")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")


@dataclass(frozen=True)
class ScoredStrides:
    strides: StrideList
    levels: tuple[int, ...]
    overhead: int


@dataclass(frozen=True)
class StrideSearchResult:
    config: StrideSearchConfig
    items: tuple[ScoredStrides, ...]
    # The printed recurrence reuses the last chosen level's pointer count for
    # the final segment; we keep that reading and say so wherever scores are shown.
    convention_note: str = (
        "final-segment overhead term uses the pointer count of the last chosen level"
    )


def choose_strides(
    db: PrefixDatabase, cfg: StrideSearchConfig, lean: LeanLevelTable
) -> StrideSearchResult:
    """Enumerate split-level combinations and keep those under the overhead budget.

    For each (height-1)-subset of levels 1..coverage-1, the overhead charge per
    chosen level is (ceil((level + tag - prev) / grain_width) + 1) * nonleaf(level),
    plus the same form once more for the final segment up to the coverage length.
    Results are sorted by ascending overhead.
    """
    if cfg.height < 2:
        raise ValueError("stride search needs height >= 2; height 1 is the single-table baseline")
    if lean.max_depth < cfg.coverage - 1:
        raise ValueError("lean-level table does not reach the coverage length")
    levels = range(1, cfg.coverage)
    if cfg.budget == 0 and any(lean.nonleaf(l) > 0 for l in levels):
        raise BudgetZero("no split can satisfy a zero overhead budget")
    tag = cfg.grain.tag_width(cfg.tag_bits)
    w = cfg.grain.width
    accepted = []
    for combo in combinations(levels, cfg.height - 1):
        overhead = 0
        prev = 0
        for lvl in combo:
            overhead += (ceil_div(lvl + tag - prev, w) + 1) * lean.nonleaf(lvl)
            prev = lvl
        last = combo[-1]
        overhead += (ceil_div(cfg.coverage + tag - prev, w) + 1) * lean.nonleaf(last)
        if overhead < cfg.budget:
            strides = []
            prev = 0
            for lvl in combo:
                strides.append(lvl - prev)
                prev = lvl
            strides.append(cfg.coverage - prev)
            accepted.append(
                ScoredStrides(StrideList(tuple(strides)), combo, overhead)
            )
    accepted.sort(key=lambda s: (s.overhead, s.levels))
    return StrideSearchResult(cfg, tuple(accepted))
