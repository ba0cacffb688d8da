"""Fixed-stride trees of match tables: construction and block costs.

A tree table holds ternary entries of its stride width.  An original prefix
that ends inside a level becomes a terminal entry padded with trailing
don't-cares; a prefix that crosses the level boundary is represented by a
fully-specified stub entry, filed as the child table it points to, that
inherits the value of the stub key's best match among the table's own
terminal entries.  One descent (`descend`) follows a prefix down the
strides for every insert and delete, and once per table for the bulk
build: for the build and an insert it makes the stub entries and child
tables the prefix needs; for a delete it makes nothing.

Keys are unique within a table and prefix-shaped, so at most one entry of
each specified length matches a segment, and the longest such entry is the
first match of a priority-ordered ternary scan.  TCAM and SRAM tables
therefore share one lookup.  Each table keeps its rows in one plain dict
keyed by the tagged key `(1 << l) | bits` of a row of specified length `l`
(the marker bit keeps lengths apart, as in a heap-numbered unibit trie),
beside the lengths present, longest first.  The search walk,
`TreeTable.lookup`, runs down the tree in one loop: at each level it tags
the address's segment once, probes it shifted down to each length, longest
first (per-length hashing, as in Waldvogel et al.; int keys as in Srinivasan
& Varghese's controlled prefix expansion), and takes the first row it hits.
An SRAM root, the one table hybridization expands whole, is an
`ExpandedRoot`, which also keeps that expansion: one exact-match dict from
the slots of its longest length to the tagged keys of the rows answering
them, probed once per search, like the direct-indexed first level of Gupta,
Lin & McKeown's DIR-24-8; the rows themselves stay in the dict.  A child
table found there takes the walk on, handed the bits the root consumed and
the value it passes down, so that one loop makes every answer.  Keys and
segments are ints; the ternary text of a key (`key_text`) is made only for
dumps.  The writes that add or remove a row keep the dict, the lengths and
the expansion current, so searches are read-only.

A row is one of two kinds.  A terminal with no child is stored as its next
hop alone, a `str`: its local length is the length its key is tagged with,
so nothing else needs keeping (results kept out of the trie's nodes, as in
Eatherton et al.'s Tree Bitmap).  A row with a child is the child table
itself, which carries the value the row inherits and that value's local
length; a terminal that gains a child keeps its value there with its own
length as the local one, and turns back into its next hop when the child
is collected.  Most rows are childless terminals, and the database keeps
each distinct next hop once, so those rows cost one dict slot each.

An update changes inherited values only in the full-length rows under its
prefix, and of those only the rows with a child: a full-length terminal
matches itself at the full stride, so no shorter prefix takes its place.
Each table keeps the sorted tagged keys of its child-bearing rows,
`stub_keys`, and an update reads the children in its prefix's key range,
found by two bisections: its work follows the rows it can change, not the
table's size (update work bounded by what changes, as in Shah & Gupta's
TCAM update algorithms).  A delete looks up the shorter terminal its rows
fall back to once, and only when a row under the prefix held the deleted
value.
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


# A row: a childless terminal's next hop, the child table of a row with a
# child, or None for no row.
Row = Union[str, "TreeTable", None]


def key_text(key: int, length: int, width: int) -> str:
    """A row's key as ternary text, for dumps: its `length` specified bits,
    then don't-cares up to `width`."""
    return (format(key, f"0{length}b") if length else "") + "*" * (width - length)


class TreeTable:
    """One node of the tree: a ternary table over `stride_width` bits.

    Every slot is paid once per table, so a table keeps no level of its own:
    the edits that make and collect tables know their depth.

    The rows are one plain dict, `by_key`, keyed by the tagged key
    `(1 << l) | bits` of a row whose `l` specified bits are `bits`.  The
    marker bit keeps keys of different lengths apart, as in a heap-numbered
    unibit trie, and a tagged key shifted right by one is the tagged key of
    its prefix one bit shorter.  A row is its next hop, a `str`, when it is
    a terminal with no child, and the child `TreeTable` when it has a child.

    `lengths` holds the specified lengths present, longest first: one tuple
    shared by every table of the tree with the same lengths
    (`TcamTree.length_sets`).  While the table holds more than one length,
    `counts` holds each length's row count in `lengths` order; with one
    length it is None, the dict's size being that count.  Writes go through
    `add_row` and `remove_row`, so a length enters with its first row and
    leaves with its last, and no write scans the table.

    A row is a child table exactly when its tagged key is in `stub_keys`,
    the sorted tagged keys of the child-bearing rows (for a row made with
    its child, the same int object as the dict's key): `add_stub` files a
    child and its key, and `clear_child` takes both back; no other code
    files or drops a child.  Child-bearing rows are full length.  Every
    other row is a childless terminal; no update above a full-length one
    changes its value, so `rows_under` never needs to read it.  A table
    that never had a stub, as every last-level table, holds the shared
    empty tuple instead of a list of its own.

    A child table also holds what the row that points at it inherits (a row
    and its child are one-to-one): `bmp_value`, the value of the longest of
    the parent's terminals matching the row's key, and `bmp_local_len`, that
    terminal's local length: (None, -1), the walk's own "no match", when
    none does, and for the root.
    The row is itself a terminal, a database prefix ending in the parent,
    exactly when that local length is the parent's stride.

    A root that `hybridize` makes SRAM is replaced by an `ExpandedRoot`;
    every other table is a plain `TreeTable`.
    """

    __slots__ = (
        "stride_width", "kind", "by_key", "lengths", "counts", "stub_keys", "bmp_value",
        "bmp_local_len",
    )

    def __init__(self, stride_width: int, bmp_value: Optional[str] = None,
                 bmp_local_len: int = -1):
        self.stride_width = stride_width
        self.kind = TCAM
        self.by_key: dict[int, Row] = {}
        self.lengths: tuple[int, ...] = ()
        self.counts: Optional[list[int]] = None
        self.stub_keys: Sequence[int] = ()   # a list from the first stub on
        self.bmp_value = bmp_value
        self.bmp_local_len = bmp_local_len

    # -- structure ---------------------------------------------------------

    def add_row(self, length: int, tagged: int, row: Row, shared: dict):
        """File a new row of specified length `length` at `tagged`.  A new
        length takes its place in `lengths`, interned through `shared`, and
        its count of 1 is inserted into `counts`; otherwise its count goes up
        in place."""
        self.by_key[tagged] = row
        lengths, counts = self.lengths, self.counts
        if counts is not None:
            if length in lengths:
                counts[lengths.index(length)] += 1
                return
        elif not lengths:
            self.lengths = shared.setdefault((length,), (length,))
            return
        elif lengths[0] == length:
            return
        else:
            counts = self.counts = [len(self.by_key) - 1]
        i = 0
        while i < len(lengths) and lengths[i] > length:
            i += 1
        grown = (*lengths[:i], length, *lengths[i:])
        self.lengths = shared.setdefault(grown, grown)
        counts.insert(i, 1)

    def remove_row(self, length: int, tagged: int, shared: dict):
        """Drop the row of specified length `length` at `tagged`; its length
        leaves `lengths` when this was its last row."""
        by_key = self.by_key
        del by_key[tagged]
        counts = self.counts
        if counts is None:
            if not by_key:
                self.lengths = ()
            return
        lengths = self.lengths
        i = lengths.index(length)
        if counts[i] > 1:
            counts[i] -= 1
            return
        rest = lengths[:i] + lengths[i + 1 :]
        self.lengths = shared.setdefault(rest, rest)
        self.counts = counts[:i] + counts[i + 1 :] if len(rest) > 1 else None

    def add_stub(self, tagged: int, child: TreeTable, in_order: bool, shared: dict):
        """File `child` at the full-length `tagged` key, over the terminal
        there if any, and index its key: in place when `in_order`, else
        appended, for `build_tree` to sort once."""
        by_key = self.by_key
        if tagged in by_key:
            by_key[tagged] = child
        else:
            self.add_row(self.stride_width, tagged, child, shared)
        keys = self.stub_keys
        if not keys:
            self.stub_keys = [tagged]
        elif in_order:
            insort(keys, tagged)
        else:
            keys.append(tagged)

    def clear_child(self, tagged: int, child: TreeTable, shared: dict):
        """Drop `child`, filed at `tagged`: a terminal row turns back into
        its next hop, any other leaves the table."""
        keys = self.stub_keys
        del keys[bisect_left(keys, tagged)]
        if child.bmp_local_len == self.stride_width:
            self.by_key[tagged] = child.bmp_value
        else:
            self.remove_row(self.stride_width, tagged, shared)

    def rows_under(self, tagged: int, length: int) -> list[TreeTable]:
        """The child tables of the rows whose keys start with the
        `length`-bit prefix tagged `tagged`: those of `stub_keys` in
        `[tagged << free, (tagged + 1) << free)`, `free` being the stride's
        bits below the prefix, found by bisection (at full length, the row
        at `tagged` when it has a child)."""
        keys = self.stub_keys
        if not keys:
            return []
        free = self.stride_width - length
        by_key = self.by_key
        return [
            by_key[k]
            for k in keys[bisect_left(keys, tagged << free) : bisect_left(keys, (tagged + 1) << free)]
        ]

    @property
    def entry_count(self) -> int:
        return len(self.by_key)

    def rows(self) -> list[tuple[int, int, Row]]:
        """(length, key, row) in match priority order: descending specified
        length, then key.  Same-length keys are disjoint, so the key order
        never decides a match."""
        rows = [(t.bit_length() - 1, t, row) for t, row in self.by_key.items()]
        rows.sort(key=lambda r: (-r[0], r[1]))
        return [(l, t ^ (1 << l), row) for l, t, row in rows]

    def stub_count(self) -> int:
        """Child-bearing entries: the pointer overhead charged to this table."""
        return len(self.stub_keys)

    def max_local_length(self) -> int:
        """Expansion target for SRAM conversion: the longest specified length,
        which is the full stride when any stub exists (stub keys must stay
        exact), else the longest terminal."""
        return self.lengths[0] if self.lengths else 0

    def local_lpm(self, tagged: int, length: int):
        """Longest terminal entry matching the `length`-bit prefix tagged
        `tagged`, the first bits of a segment: (value, local length), or
        (None, -1) when nothing does.  `length` is below the stride, so
        every row it can meet is a childless terminal, its next hop."""
        by_key = self.by_key
        for l in self.lengths:
            if l <= length:
                e = by_key.get(tagged >> (length - l))
                if e is not None:
                    return e, l
        return None, -1

    # -- lookup ------------------------------------------------------------

    def lookup(self, key: int, bits: int, start: int = 0, value: Optional[str] = None,
               vlen: int = -1) -> tuple[Optional[str], int]:
        """Walk down from this table over the `bits`-bit value `key`: (value,
        matched length) or (None, -1).  The walk's state at this table is
        `start`, the address bits consumed above it, and `value`, the value
        passed down to it, matched at length `vlen`; the defaults start a
        walk at the root.

        Each level shifts its segment out of `key`, tags it once and probes
        it shifted down to each length, longest first; the first hit is the
        longest local match, for both kinds of table (an SRAM table's
        exact-match rows expand its terminals, and a child's inherited value
        is the longest terminal matching its key, which is what the
        expansion stores there).  A childless terminal, a next hop, ends the
        walk with its own value; a row with a child is that child table,
        which passes the row's inherited value down.  A miss ends the walk
        with the last value passed down.
        """
        table = self
        while True:
            s = table.stride_width
            bits -= s
            tagged = (key >> bits) | (1 << s)
            by_key = table.by_key
            for l in table.lengths:
                k = tagged >> (s - l)
                if k in by_key:   # a miss costs no method call
                    row = by_key[k]
                    break
            else:
                return value, vlen
            if row.__class__ is str:
                return row, start + l
            if row.bmp_value is not None:
                value, vlen = row.bmp_value, start + row.bmp_local_len
            key &= (1 << bits) - 1
            start += s
            table = row

    def __repr__(self):
        return (
            f"<{type(self).__name__} stride={self.stride_width}"
            f" entries={self.entry_count} kind={self.kind}>"
        )


class ExpandedRoot(TreeTable):
    """A root that `hybridize` made SRAM, which it replaces: the same table
    plus `expansion`, the rows' controlled prefix expansion to the longest
    length held, `lengths[0]`.  Each tagged slot of that length maps to the
    tagged key of the longest row covering it, whose row is read from
    `by_key`: exactly the SRAM rows the plan charges.  A full-length row
    covers only its own slot, with or without a child, so a row gaining or
    losing its child changes no slot, and only `add_row` and `remove_row`
    keep the expansion current: a row of length `l` rewrites at most
    `2 ** (lengths[0] - l)` slots, and a change of the longest length
    rebuilds it.
    """

    __slots__ = ("expansion",)

    def __init__(self, table: TreeTable):
        for name in TreeTable.__slots__:
            setattr(self, name, getattr(table, name))
        self.expansion = self.expanded()

    def expanded(self) -> dict[int, int]:
        """The expansion built whole; a slot nothing covers is absent."""
        top = self.max_local_length()
        expansion: dict[int, int] = {}
        for tagged in sorted(self.by_key):   # shortest first, so longer rows win
            free = top + 1 - tagged.bit_length()
            lo = tagged << free
            expansion.update(dict.fromkeys(range(lo, lo + (1 << free)), tagged))
        return expansion

    def add_row(self, length: int, tagged: int, row: Row, shared: dict):
        """Point the slots under the new row that nothing or a shorter row
        filled at it."""
        before = self.max_local_length()
        super().add_row(length, tagged, row, shared)
        top = self.lengths[0]
        if top > before:
            self.expansion = self.expanded()
            return
        expansion = self.expansion
        free = top - length
        lo = tagged << free
        for slot in range(lo, lo + (1 << free)):
            # an absent slot reads 0; a shorter row's tagged key is
            # smaller, a longer one's larger
            if expansion.get(slot, 0) < tagged:
                expansion[slot] = tagged

    def remove_row(self, length: int, tagged: int, shared: dict):
        """Point the slots holding the row at the longest shorter terminal
        matching its key, or drop them when there is none; returns that
        terminal, (value, local length) or (None, -1), for `tree_delete`
        to reuse, or None when the expansion was rebuilt instead.  A next
        hop's is one `local_lpm` call, which at length 0 meets nothing; a
        row with a child leaves only when `clear_child` collects a pure
        stub, whose child already holds that terminal."""
        row = self.by_key[tagged]
        top = self.lengths[0]
        super().remove_row(length, tagged, shared)
        if self.max_local_length() < top:
            self.expansion = self.expanded()
            return None
        if row.__class__ is str:
            fallback = self.local_lpm(tagged >> 1, length - 1)
        else:
            fallback = row.bmp_value, row.bmp_local_len
        new = None if fallback[1] < 0 else tagged >> (length - fallback[1])
        expansion = self.expansion
        free = top - length
        lo = tagged << free
        for slot in range(lo, lo + (1 << free)):
            if expansion.get(slot) == tagged:
                if new is None:
                    del expansion[slot]
                else:
                    expansion[slot] = new
        return fallback

    def lookup(self, key: int, bits: int) -> tuple[Optional[str], int]:
        """`TreeTable.lookup` with the root's level read by one probe of the
        expansion, which names the answering row in `by_key`.  A child table
        there takes the walk on by the plain `TreeTable.lookup`, handed the
        root's stride as the bits consumed and the row's inherited value."""
        expansion = self.expansion
        if not expansion:   # a root with no rows
            return None, -1
        top = self.lengths[0]
        tagged = expansion.get((key >> (bits - top)) | (1 << top))
        if tagged is None:
            return None, -1
        row = self.by_key[tagged]
        if row.__class__ is str:
            return row, tagged.bit_length() - 1
        bits -= self.stride_width
        return row.lookup(key & ((1 << bits) - 1), bits, self.stride_width, row.bmp_value,
                          row.bmp_local_len)


class TcamTree:
    """The built tree: root table and per-level tables.

    Each level is an insertion-ordered dict used as a set, so iterating it
    gives the tables in creation order and dropping one is O(1).
    `coverage` is the strides' sum, the longest prefix the tree holds.
    `length_sets` interns the tables' `lengths` tuples, so tables with the
    same lengths share one.
    """

    def __init__(self, stride_list: StrideList, address_width: int):
        self.stride_list = stride_list
        self.address_width = address_width
        self.coverage = stride_list.coverage
        self.levels: list[dict[TreeTable, None]] = [{} for _ in stride_list.strides]
        self.length_sets: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.root = self.new_table(0)

    def new_table(self, level_index: int, bmp_value: Optional[str] = None,
                  bmp_local_len: int = -1) -> TreeTable:
        t = TreeTable(self.stride_list[level_index], bmp_value, bmp_local_len)
        self.levels[level_index][t] = None
        return t

    def all_tables(self) -> list[TreeTable]:
        return [t for level in self.levels for t in level]

    def structure(self):
        """Deterministic nested dump, used for equality and report assertions:
        (key text, value, local length, is terminal, child dump) per row, a
        childless terminal and a row with a child alike."""

        def row(text, l, e):
            if e.__class__ is str:
                return text, e, l, True, None
            return text, e.bmp_value, e.bmp_local_len, e.bmp_local_len == l, dump(e)

        def dump(table):
            s = table.stride_width
            return {
                "kind": table.kind,
                "entries": [row(key_text(k, l, s), l, e) for l, k, e in table.rows()],
            }

        return dump(self.root)


# -- construction and edits -------------------------------------------------


def descend(tree: TcamTree, key: int, length: int, grown: Optional[list],
            path: Optional[list] = None):
    """Follow the `length`-bit prefix `key` down the strides from the root:
    (level, table, key, length), the level and table where the prefix ends
    and the bits left there.

    With no `path`, as for the bulk build and an insert, each missing child
    table on the way is made.  A new child inherits its key's longest
    terminal in its table, from one `local_lpm` call; a full-length terminal
    in its place keeps its own value.  Each table that gains a row is
    appended to `grown` with its level; when `grown` is None, as in the bulk
    build, stub keys are appended unsorted for `build_tree` to sort.

    With a `path` list, as for a delete, nothing is made: the (table, tagged
    key) pair of each row passed through is appended to `path`, and the
    table returned is None when a row on the way is missing or has no child.
    """
    table = tree.root
    shared = tree.length_sets
    level = 0
    while length > table.stride_width:
        s = table.stride_width
        length -= s
        tagged, key = (key >> length) | (1 << s), key & ((1 << length) - 1)
        row = table.by_key.get(tagged)
        if row is None or row.__class__ is str:
            if path is not None:
                return level, None, key, length
            if row is None:
                row = tree.new_table(level + 1, *table.local_lpm(tagged >> 1, s - 1))
                if grown is not None:
                    grown.append((level, table))
            else:
                row = tree.new_table(level + 1, row, s)
            table.add_stub(tagged, row, grown is not None, shared)
        elif path is not None:
            path.append((table, tagged))
        table = row
        level += 1
    return level, table, key, length


def tree_insert(tree: TcamTree, key: int, length: int, value: str) -> list[tuple[int, TreeTable]]:
    """Insert the `length`-bit prefix `key` into a built tree: the update
    path.  `descend` makes the child tables it needs, as for `build_tree`.

    Returns (level, table) for each table that gained a row, shallowest
    first.  Safe under arbitrary insertion order: a new terminal refreshes
    the inherited values of the rows with a child under it, and a new child
    inherits from the terminals already present.
    """
    if length > tree.coverage:
        raise PrefixExceedsCoverage(
            f"prefix of length {length} exceeds coverage {tree.coverage}"
        )
    grown: list[tuple[int, TreeTable]] = []
    level, table, rest, rest_len = descend(tree, key, length, grown)
    tagged = rest | (1 << rest_len)
    row = table.by_key.get(tagged)
    if row is None:
        table.add_row(rest_len, tagged, value, tree.length_sets)
        grown.append((level, table))
    elif row.__class__ is str or row.bmp_local_len == rest_len:
        raise DuplicatePrefix(f"prefix {bits_of(key, length)}/{length} already present")
    # Rows under the prefix whose best terminal is shorter take its value: a
    # row with a child at the prefix's own key becomes the terminal this way.
    # The full-length terminals under it are at least as long, so they keep theirs.
    for child in table.rows_under(tagged, rest_len):
        if child.bmp_local_len < rest_len:
            child.bmp_value = value
            child.bmp_local_len = rest_len
    return grown


def tree_delete(tree: TcamTree, key: int, length: int) -> list[TreeTable]:
    """Remove the `length`-bit prefix `key`; empty child tables and their
    rows are collected, along the path `descend` notes.  An absent prefix
    raises `NotFound` and changes nothing.

    Returns the tables that lost a row, deepest first.  Those left without
    rows, other than the root, are the collected ones.
    """
    path: list[tuple[TreeTable, int]] = []
    _, table, rest, rest_len = descend(tree, key, length, None, path)
    shared = tree.length_sets
    tagged = rest | (1 << rest_len)
    row = None if table is None else table.by_key.get(tagged)
    shrunk = []
    # Only rows under the prefix that took its value change, and all of them
    # fall back to the next shorter terminal above it; a terminal kept for
    # its child is one of them, and so becomes a pure stub.  That fallback is
    # looked up once, when such a row exists or an `ExpandedRoot`'s slots do.
    fallback = None
    if row.__class__ is str:
        fallback = table.remove_row(rest_len, tagged, shared)
        shrunk.append(table)
    elif row is None or row.bmp_local_len != rest_len:
        raise NotFound(f"prefix {bits_of(key, length)}/{length} not in tree")
    for child in table.rows_under(tagged, rest_len):
        if child.bmp_local_len == rest_len:
            if fallback is None:
                fallback = table.local_lpm(tagged >> 1, rest_len - 1) if rest_len else (None, -1)
            child.bmp_value, child.bmp_local_len = fallback
    # lazy upward collection of emptied tables
    while not table.by_key and path:
        parent, tagged = path.pop()
        del tree.levels[len(path) + 1][table]   # the parent's level is len(path)
        parent.clear_child(tagged, table, shared)
        if table.bmp_local_len != parent.stride_width:   # a pure stub, not a terminal
            shrunk.append(parent)
        table = parent
    return shrunk


def build_tree(db: PrefixDatabase, strides: StrideList) -> TcamTree:
    """Build the fixed-stride tree for a whole database: each prefix in
    (length, file) order becomes a terminal row, its next hop, in the table
    where it ends.

    The database's length index, read shortest first, gives that order, and
    the tree equals the one `tree_insert` grows from it: each level's tables
    come out in (length, file) order of their first prefix, which packing
    follows.  Only each table's first prefix goes down by `descend`, which
    makes the table; a dict per level, keyed by the prefix bits above the
    level, files the rest with one probe each (per-length hashing, as in
    Waldvogel et al.), since a build drops no table.  All of a table's
    terminals are shorter than any prefix that passes through it, so they
    come before any of its children: each new child takes its inherited
    value from one `local_lpm` call, no terminal lands on an existing row,
    and no row is ever refreshed.  Stub keys are appended as the children
    are made and each table's are sorted once at the end.
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
        shared = tree.length_sets
        above = (0, *strides.boundaries)
        level, tables = 0, {}
        for length, prefixes in reversed(db.by_length):
            while length > above[level + 1]:
                level, tables = level + 1, {}
            local_len = length - above[level]
            marker = 1 << local_len
            mask = marker - 1
            for prefix, hop in prefixes.items():
                table = tables.get(prefix >> local_len)
                if table is None:
                    _, table, _, _ = descend(tree, prefix, length, None)
                    tables[prefix >> local_len] = table
                table.add_row(local_len, (prefix & mask) | marker, hop, shared)
        for level_tables in tree.levels[:-1]:
            for table in level_tables:
                if table.stub_keys:
                    table.stub_keys.sort()
        return tree
