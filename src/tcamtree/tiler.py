"""Fixed-stride trees of match tables: construction and block costs.

A tree table holds ternary entries of its stride width.  An original prefix
that ends inside a level becomes a terminal entry padded with trailing
don't-cares; a prefix that crosses the level boundary is represented by a
fully-specified stub entry that carries a pointer to a child table and
inherits the value of the stub key's best match among the table's own
terminal entries.  One descent (`descend`) makes the stub entries and child
tables a prefix needs, for the bulk build and for an insert alike.

Keys are unique within a table and prefix-shaped, so at most one entry of
each specified length matches a segment, and the longest such entry is the
first match of a priority-ordered ternary scan.  TCAM and SRAM tables
therefore share one lookup: each table keeps one map per specified length,
keyed by the int value of the specified bits, and a lookup probes them
longest first with the segment shifted down to each length (per-length
hashing, as in Waldvogel et al.; int keys as in Srinivasan & Varghese's
controlled prefix expansion), and returns the first row it hits.  Keys and
segments are ints throughout; the ternary text of a key (`key_text`) is made
only for dumps.  The maps are kept current by the writes that add or remove
a row, so searches are read-only.

A row is one of two kinds.  A terminal with no child is stored as its next
hop alone, a `str`: its local length is the length of the map that files
it, so nothing else needs keeping (results kept out of the trie's nodes, as
in Eatherton et al.'s Tree Bitmap).  A row with a child is a `Stub` object
that carries the child, the value it inherits and that value's local
length; a terminal that gains a child becomes a `Stub` whose local length
is its own, and turns back into its next hop when the child is collected.
Most rows are childless terminals, and the database keeps each distinct
next hop once, so those rows cost one map slot each.

An update changes inherited values only in the full-length rows under its
prefix, and of those only the stubs: a full-length terminal matches itself
at the full stride, so no shorter prefix takes its place.  Each table keeps
the sorted keys of its `Stub` rows, `stub_keys`, and an update reads the
stubs in its prefix's key range, found by two bisections: its work follows
the rows it can change, not the table's size (update work bounded by what
changes, as in Shah & Gupta's TCAM update algorithms).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ._util import ceil_div, ceil_log2, parse_decimal, paused_gc
from .errors import DuplicatePrefix, NotFound, PrefixExceedsCoverage
from .prefixdb import PrefixDatabase, bits_of

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
            strides = tuple(parse_decimal(part) for part in text.split("-"))
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


class Stub:
    """A full-length row with a child: the child table, and the value of the
    longest of its table's terminals that matches the row's key, with that
    terminal's local length (None, None when none does).  The row is itself
    a terminal, a database prefix ending in this table, exactly when that
    local length is the stride.  Every other row is a childless terminal,
    stored as its next-hop `str`."""

    __slots__ = ("bmp_value", "bmp_local_len", "child")

    def __init__(self, bmp_value, bmp_local_len, child: TreeTable):
        self.bmp_value = bmp_value
        self.bmp_local_len = bmp_local_len
        self.child = child

    def __repr__(self):
        return f"<Stub {self.bmp_value}/{self.bmp_local_len}>"


# A row: a childless terminal's next hop, a `Stub`, or None for no row.
Row = Union[str, Stub, None]


def key_text(key: int, length: int, width: int) -> str:
    """A row's key as ternary text, for dumps: its `length` specified bits,
    then don't-cares up to `width`."""
    return (format(key, f"0{length}b") if length else "") + "*" * (width - length)


class LengthRows(dict):
    """The rows of one specified length, `length`: the int value of each
    row's specified bits mapped to the row, a next-hop `str` or a `Stub`."""

    __slots__ = ("length",)


class TreeTable:
    """One node of the tree: a ternary table over `stride_width` bits.

    The lookup index is `by_length`, one `LengthRows` map per specified
    length present, longest first.  It is read-only: writes go through
    `rows_for` and `remove`.  A length enters with its first row and leaves
    when its map empties, so no write counts or probes anything to keep the
    index current.  Stubs are full-length rows, so they all sit in the
    stride's own map.

    A row is a `Stub` exactly when its key is in `stub_keys`, the sorted
    keys of the child-bearing rows: `add_stub` files a stub and its key,
    and `clear_child` takes both back; no other code files or drops a
    `Stub`.  Every other row is a childless terminal, stored as its next
    hop; no update above a full-length one changes its value, so
    `rows_under` never needs to read it.  A table that never had a stub, as
    every last-level table, holds the shared empty tuple instead of a list
    of its own.
    """

    __slots__ = ("level_index", "stride_width", "start_bit", "kind", "by_length", "stub_keys")

    def __init__(self, level_index: int, stride_width: int, start_bit: int):
        self.level_index = level_index
        self.stride_width = stride_width
        self.start_bit = start_bit
        self.kind = TCAM
        self.by_length: tuple[LengthRows, ...] = ()
        self.stub_keys: Sequence[int] = ()   # a list from the first stub on

    # -- structure ---------------------------------------------------------

    def _rows_of(self, length: int) -> Optional[LengthRows]:
        for rows in self.by_length:
            if rows.length == length:
                return rows
        return None

    def rows_for(self, length: int) -> LengthRows:
        """The map of `length`, added to the index if missing; the caller
        stores a row in it, so no map is left empty."""
        maps = self.by_length
        i = 0
        while i < len(maps) and maps[i].length > length:
            i += 1
        if i < len(maps) and maps[i].length == length:
            return maps[i]
        rows = LengthRows()
        rows.length = length
        self.by_length = (*maps[:i], rows, *maps[i:])
        return rows

    def remove(self, length: int, key: int):
        rows = self._rows_of(length)
        del rows[key]
        if not rows:
            self.by_length = tuple(filter(None, self.by_length))

    def get(self, length: int, key: int) -> Row:
        rows = self._rows_of(length)
        return None if rows is None else rows.get(key)

    def add_stub(self, rows: LengthRows, key: int, stub: Stub, in_order: bool):
        """File `stub` at `key` in `rows`, the stride's own map, over the
        terminal there if any, and index its key: in place when `in_order`,
        else appended, for `build_tree` to sort once."""
        rows[key] = stub
        keys = self.stub_keys
        if not keys:
            self.stub_keys = [key]
        elif in_order:
            insort(keys, key)
        else:
            keys.append(key)

    def clear_child(self, key: int, stub: Stub):
        """Drop the child of `stub`, filed at `key`: a terminal stub turns
        back into its next hop, any other leaves the table."""
        keys = self.stub_keys
        del keys[bisect_left(keys, key)]
        s = self.stride_width
        if stub.bmp_local_len == s:
            self._rows_of(s)[key] = stub.bmp_value
        else:
            self.remove(s, key)

    def rows_under(self, key: int, length: int) -> list[Stub]:
        """The stubs whose keys start with the `length`-bit `key`: those of
        `stub_keys` in `[key << free, (key + 1) << free)`, `free` being the
        stride's bits below the prefix, found by bisection (at full length,
        the row at `key` when it is a stub)."""
        keys = self.stub_keys
        if not keys:
            return []
        free = self.stride_width - length
        low = key << free
        rows = self._rows_of(self.stride_width)
        return [
            rows[k]
            for k in keys[bisect_left(keys, low) : bisect_left(keys, low + (1 << free))]
        ]

    @property
    def entry_count(self) -> int:
        return sum(map(len, self.by_length))

    def rows(self) -> list[tuple[int, int, Row]]:
        """(length, key, row) in match priority order: descending specified
        length, then key.  Same-length keys are disjoint, so the key order
        never decides a match."""
        return [(rows.length, k, rows[k]) for rows in self.by_length for k in sorted(rows)]

    def stubs(self) -> list[tuple[int, Stub]]:
        """(key, stub) for the child-bearing rows, all of them full length."""
        rows = self._rows_of(self.stride_width)
        return [(k, rows[k]) for k in self.stub_keys]

    def stub_count(self) -> int:
        """Child-bearing entries: the pointer overhead charged to this table."""
        return len(self.stub_keys)

    def max_local_length(self) -> int:
        """Expansion target for SRAM conversion: the longest specified length,
        which is the full stride when any stub exists (stub keys must stay
        exact), else the longest terminal."""
        return self.by_length[0].length if self.by_length else 0

    def local_lpm(self, key: int, length: int):
        """Longest terminal entry matching the `length`-bit `key`, the first
        bits of a segment: (value, local length), or (None, None) when
        nothing does."""
        for rows in self.by_length:
            l = rows.length
            if l <= length:
                e = rows.get(key >> (length - l))
                if e is not None:
                    if e.__class__ is str:
                        return e, l
                    if e.bmp_local_len == l:
                        return e.bmp_value, l
        return None, None

    # -- lookup ------------------------------------------------------------

    def lookup(self, segment: int) -> tuple[Row, int]:
        """The row one stride segment matches and the specified length it
        is filed at, or (None, 0).

        The first hit, longest length first, is the longest local match.  Both
        kinds answer alike: an SRAM table's exact-match rows expand its
        terminals, and a stub's inherited value is the longest terminal
        matching its key, which is what the expansion stores there.
        """
        s = self.stride_width
        for rows in self.by_length:
            l = rows.length
            key = segment >> (s - l)
            if key in rows:   # a miss costs no method call
                return rows[key], l
        return None, 0

    def __repr__(self):
        return (
            f"<TreeTable level={self.level_index} stride={self.stride_width}"
            f" entries={self.entry_count} kind={self.kind}>"
        )


class TcamTree:
    """The built tree: root table and per-level tables.

    Each level is an insertion-ordered dict used as a set, so iterating it
    gives the tables in creation order and dropping one is O(1).
    `coverage` is the strides' sum, the longest prefix the tree holds.
    """

    def __init__(self, stride_list: StrideList, address_width: int):
        self.stride_list = stride_list
        self.address_width = address_width
        self.coverage = stride_list.coverage
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

    def structure(self):
        """Deterministic nested dump, used for equality and report assertions:
        (key text, value, local length, is terminal, child dump) per row, a
        childless terminal and a stub alike."""

        def row(text, l, e):
            if e.__class__ is str:
                return text, e, l, True, None
            return text, e.bmp_value, e.bmp_local_len, e.bmp_local_len == l, dump(e.child)

        def dump(table):
            s = table.stride_width
            return {
                "kind": table.kind,
                "entries": [row(key_text(k, l, s), l, e) for l, k, e in table.rows()],
            }

        return dump(self.root)


# -- construction and edits -------------------------------------------------


def walk(tree: TcamTree, key: int, length: int):
    """Follow the `length`-bit prefix `key` down the strides: (path, table,
    key, length), the last two being the bits left at `table`.

    The walk stops at the table where the prefix ends (the bits left fit its
    stride) or at the first row that is missing or has no child (they do
    not).  `path` holds the (table, stub key, stub) triples passed through,
    for `tree_delete` to collect emptied tables; unlike `descend`, it makes
    nothing.
    """
    path: list[tuple[TreeTable, int, Stub]] = []
    table = tree.root
    while length > table.stride_width:
        rest = length - table.stride_width
        key_at = key >> rest
        stub = table.get(table.stride_width, key_at)
        if stub is None or stub.__class__ is str:
            break
        path.append((table, key_at, stub))
        table, key, length = stub.child, key & ((1 << rest) - 1), rest
    return path, table, key, length


def descend(tree: TcamTree, key: int, length: int, grown: Optional[list]):
    """Follow the `length`-bit prefix `key` down from the root, making each
    missing stub and child table on the way: (table, key, length), the last
    two being the bits left where the prefix ends.

    A new stub inherits its key's longest terminal in its table, from one
    `local_lpm` call; a full-length terminal in its place becomes a stub
    that keeps its own value.  Each table that gains a row is appended to
    `grown`; when `grown` is None, as in the bulk build, stub keys are
    appended unsorted for `build_tree` to sort.
    """
    table = tree.root
    while length > table.stride_width:
        s = table.stride_width
        length -= s
        key_at, key = key >> length, key & ((1 << length) - 1)
        rows = table.rows_for(s)
        row = rows.get(key_at)
        if row is None:
            value, local_len = table.local_lpm(key_at, s)
            row = Stub(value, local_len, tree.new_table(table.level_index + 1))
            table.add_stub(rows, key_at, row, grown is not None)
            if grown is not None:
                grown.append(table)
        elif row.__class__ is str:
            row = Stub(row, s, tree.new_table(table.level_index + 1))
            table.add_stub(rows, key_at, row, grown is not None)
        table = row.child
    return table, key, length


def tree_insert(tree: TcamTree, bits: str, value: str) -> list[TreeTable]:
    """Insert one prefix into a built tree: the update path.  `descend` makes
    the stubs and child tables it needs, as it does for `build_tree`.

    Returns the tables that gained a row, shallowest first.  Safe under
    arbitrary insertion order: a new terminal refreshes the inherited values
    of the stubs under it, and a new stub inherits from the terminals already
    present.
    """
    if len(bits) > tree.coverage:
        raise PrefixExceedsCoverage(
            f"prefix of length {len(bits)} exceeds coverage {tree.coverage}"
        )
    grown: list[TreeTable] = []
    table, key, length = descend(tree, int(bits or "0", 2), len(bits), grown)
    row = table.get(length, key)
    if row is None:
        table.rows_for(length)[key] = value
        grown.append(table)
    elif row.__class__ is str or row.bmp_local_len == length:
        raise DuplicatePrefix(f"prefix {bits}/{len(bits)} already present")
    # Stubs under the prefix whose best terminal is shorter take its value: a
    # stub at the prefix's own key becomes the terminal this way.  The
    # full-length terminals under it are at least as long, so they keep theirs.
    for stub in table.rows_under(key, length):
        local_len = stub.bmp_local_len
        if local_len is None or local_len < length:
            stub.bmp_value = value
            stub.bmp_local_len = length
    return grown


def tree_delete(tree: TcamTree, bits: str) -> list[TreeTable]:
    """Remove one prefix; empty child tables and their stubs are collected.

    Returns the tables that lost a row, deepest first.  Those left without
    rows, other than the root, are the collected ones.
    """
    path, table, key, length = walk(tree, int(bits or "0", 2), len(bits))
    row = table.get(length, key)
    shrunk = []
    if row.__class__ is str:
        table.remove(length, key)
        shrunk.append(table)
    elif row is None or row.bmp_local_len != length:
        raise NotFound(f"prefix {bits}/{len(bits)} not in tree")
    # Only stubs under the prefix that took its value change, and all of them
    # fall back to the next shorter terminal above it; a terminal kept for
    # its child is one of them, and so becomes a pure stub.
    value, value_len = table.local_lpm(key >> 1, length - 1) if length else (None, None)
    for stub in table.rows_under(key, length):
        if stub.bmp_local_len == length:
            stub.bmp_value, stub.bmp_local_len = value, value_len
    # lazy upward collection of emptied tables
    while table.entry_count == 0 and path:
        parent, key_at, stub = path.pop()
        tree.drop_table(table)
        parent.clear_child(key_at, stub)
        if stub.bmp_local_len != parent.stride_width:   # a pure stub, not a terminal
            shrunk.append(parent)
        table = parent
    return shrunk


def build_tree(db: PrefixDatabase, strides: StrideList) -> TcamTree:
    """Build the fixed-stride tree for a whole database: each prefix in
    (length, file) order goes down by `descend` and becomes a terminal row,
    its next hop, where it ends.

    The database's length index, read shortest first, gives that order, and
    the tree equals the one `tree_insert` grows from it: each level's tables
    come out in (length, file) order of their first prefix, which packing
    follows.  All of a table's terminals are shorter than any prefix that
    passes through it, so they come before any of its stubs: each new stub
    takes its inherited value from one `local_lpm` call, no terminal lands
    on an existing row, and no row is ever refreshed.  Stub keys are
    appended as the stubs are made and each table's are sorted once at the
    end.
    """
    with paused_gc:
        coverage = strides.coverage
        if coverage > db.address_width:
            raise ValueError(
                f"strides cover {coverage} bits but addresses have {db.address_width}"
            )
        if db.max_length() > coverage:
            for length, value, _ in db.in_order():
                if length > coverage:
                    beyond = len(db) - len(db.restricted(coverage))
                    raise PrefixExceedsCoverage(
                        f"{beyond} entries exceed coverage {coverage}"
                        f" (first: {bits_of(value, length)}/{length})"
                    )
        tree = TcamTree(strides, db.address_width)
        for length, prefixes in reversed(db.by_length):
            for prefix, hop in prefixes.items():
                table, key, local_len = descend(tree, prefix, length, None)
                table.rows_for(local_len)[key] = hop
        for level in tree.levels[:-1]:
            for table in level:
                if table.stub_keys:
                    table.stub_keys.sort()
        return tree
