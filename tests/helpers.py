"""Shared test machinery: fixtures, random generators, independent oracles,
and a vectorized full-address-space evaluator for exhaustive equivalence runs.

The evaluator reproduces the level-by-level walk with numpy gathers so that
checking every address of a 16-bit space takes milliseconds.  It is itself
validated against the scalar search path in test_vectoreval.py; the oracle
side (`oracle_vector`) is a third, independent longest-match implementation
based on range assignment in ascending length order.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from tcamtree import Prefix, PrefixDatabase, StrideList, blocks_for_table, parse_database
from tcamtree.errors import DuplicatePrefix, PlannerError
from tcamtree.packing import sram_rows_for_table
from tcamtree.pipeline import PipelineProfile, PipelineState
from tcamtree.prefixdb import DEFAULT_NEXT_HOP
from tcamtree.tiler import SRAM, TCAM, TcamTree, key_text, tree_insert

DATA_DIR = Path(__file__).parent / "data"

# Room for any plan a test makes, so `build_plan`'s stage map refuses none.
ROOMY_PROFILE = PipelineProfile(64, 4096, 4096)


class TargetTooShort(PlannerError):
    """An expansion asked for a target shorter than one of its entries."""

TABLE1_TEXT = (DATA_DIR / "table1.txt").read_text()


def table1_db() -> PrefixDatabase:
    return parse_database(TABLE1_TEXT, 6)


def all_addresses(width: int):
    for value in range(1 << width):
        yield format(value, f"0{width}b")


def scan_overflow_lpm(entries, address: str) -> tuple[Optional[str], int]:
    """Reference for `OverflowBuffer.lpm`: scan `Prefix` entries as bit
    strings against the address's and keep the longest match, as
    (next hop, length) or (None, -1)."""
    best, best_len = None, -1
    for p in entries:
        if p.length > best_len and address.startswith(p.bits):
            best, best_len = p.next_hop, p.length
    return best, best_len


def key_of(bits: str) -> tuple[int, int]:
    """A prefix's bit string as the (value, length) the tree edits take."""
    return int(bits or "0", 2), len(bits)


def linear_scan_lookup(db: PrefixDatabase, address: str) -> str:
    """Deliberately naive reference: scan every entry, keep the longest match."""
    best, best_len = DEFAULT_NEXT_HOP, -1
    for p in db.entries:
        if p.length > best_len and address.startswith(p.bits):
            best, best_len = p.next_hop, p.length
    return best


class RowView(NamedTuple):
    """What a walk reads from a row: its value, that value's local length
    and its child, for a childless terminal (a next-hop `str`) and a row
    with a child (the child table) alike."""

    bmp_value: Optional[str]
    bmp_local_len: int
    child: object


def row_fields(row, length: int) -> Optional[RowView]:
    """The `RowView` of a row filed at specified length `length`, or None
    for no row: a next hop is a terminal of that length with no child."""
    if row is None:
        return None
    if row.__class__ is str:
        return RowView(row, length, None)
    return RowView(row.bmp_value, row.bmp_local_len, row)


def untag(tagged: int) -> tuple[int, int]:
    """(length, key) of a tagged row key `(1 << length) | key`."""
    length = tagged.bit_length() - 1
    return length, tagged ^ (1 << length)


def buffered(state: PipelineState) -> list[tuple[int, int, str]]:
    """The overflow buffer's entries as sorted (length, value, next hop),
    decoded from their tagged keys."""
    return sorted((*untag(tagged), hop) for tagged, hop in state.overflow.entries.items())


def row_at(table, length: int, key: int):
    """The row of `table` filed at the `length`-bit `key`, or None."""
    return table.by_key.get((1 << length) | key)


def stubs(table) -> list:
    """(key, child table) for the child-bearing rows, all of them full
    length, in key order."""
    s = table.stride_width
    return [(k ^ (1 << s), table.by_key[k]) for k in table.stub_keys]


def ternary_rows(table):
    """(key text, row view) for every row of `table`, in the priority order
    of `TreeTable.rows()`: the ternary view the int-keyed index stands for."""
    return [
        (key_text(key, length, table.stride_width), row_fields(e, length))
        for length, key, e in table.rows()
    ]


def ordered_scan_lookup(ordered_rows, segment: str):
    """Reference for `probe`: the first of the `ternary_rows` whose
    key matches the segment, don't-cares matching either bit, or None."""
    for text, e in ordered_rows:
        if all(k in ("*", b) for k, b in zip(text, segment)):
            return e
    return None


def scan_local_lpm(table, key: str):
    """Reference for a stub's inherited value: the longest of the table's
    terminal rows matching `key`, found by scanning every row, or (None, -1)."""
    best_val, best_len = None, -1
    for bits, length, value in terminal_prefixes(table):
        bits = key_text(bits, length, length)
        if length > best_len and key.startswith(bits):
            best_val, best_len = value, length
    return best_val, best_len


def is_terminal(entry, length: int) -> bool:
    """Whether a row or row view filed at specified length `length` is a
    database prefix ending in its table: a next hop is, and any other
    terminal's local length is its own."""
    return entry.__class__ is str or entry.bmp_local_len == length


def terminal_prefixes(table) -> list[tuple[int, int, str]]:
    """(key, length, value) for database prefixes that end in `table`."""
    return [
        (key, length, row_fields(e, length).bmp_value)
        for (length, key), e in ((untag(t), e) for t, e in table.by_key.items())
        if is_terminal(e, length)
    ]


def recounted_stub_keys(table) -> list[int]:
    """Reference for `TreeTable.stub_keys`: the sorted tagged keys of the
    rows with a child, read from the whole dict."""
    return sorted(t for t, e in table.by_key.items() if e.__class__ is not str)


def recounted_lengths(table) -> tuple[tuple[int, ...], Optional[list[int]]]:
    """Reference for a table's `lengths` and `counts`: the lengths of its
    keys, longest first, and each one's row count when there is more than
    one length (else None), recounted from the dict."""
    per_length = Counter(untag(t)[0] for t in table.by_key)
    lengths = tuple(sorted(per_length, reverse=True))
    return lengths, [per_length[l] for l in lengths] if len(lengths) > 1 else None


def terminal_count(tree) -> int:
    """Terminal rows over the whole tree, by walking every row."""
    return sum(len(terminal_prefixes(t)) for t in tree.all_tables())


def total_entries(tree) -> int:
    """Rows over the whole tree, terminals and stubs alike."""
    return sum(t.entry_count for t in tree.all_tables())


def covered_ranges(entries, target_length: int) -> list[tuple[int, int]]:
    """Disjoint ascending [lo, hi) ranges of the keys that the expansion of the
    (key, length, value) entries to `target_length` bits covers, computed
    without enumerating keys."""
    intervals = []
    for key, length, _ in entries:
        if length > target_length:
            raise TargetTooShort(
                f"entry of length {length} cannot expand to {target_length} bits"
            )
        base = key << (target_length - length)
        intervals.append((base, base + (1 << (target_length - length))))
    intervals.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def reference_sram_rows(table) -> int:
    """Reference for `sram_rows_for_table`'s rows: the merged ranges of the
    table's terminals expanded to `max_local_length()`, plus each stub that
    bisects into no range."""
    ranges = covered_ranges(terminal_prefixes(table), table.max_local_length())
    starts = [lo for lo, _ in ranges]
    rows = sum(hi - lo for lo, hi in ranges)
    for key, _ in stubs(table):
        i = bisect_right(starts, key) - 1
        if i < 0 or key >= ranges[i][1]:
            rows += 1
    return rows


def reference_expansion(table) -> dict:
    """Reference for an SRAM root's `expansion`, slot by slot: each tagged
    slot of the longest length held maps to its own key when a row with a
    child is filed there, else to the tagged key of the longest terminal
    whose key starts it, found by trying each shorter length in turn."""
    top = max((untag(t)[0] for t in table.by_key), default=None)
    if top is None:
        return {}
    terminals = {(1 << length) | key for key, length, _ in terminal_prefixes(table)}
    expansion = {}
    for slot in range(1 << top, 2 << top):
        row = table.by_key.get(slot)
        if row is not None and row.__class__ is not str:
            expansion[slot] = slot
            continue
        for free in range(top + 1):
            if slot >> free in terminals:
                expansion[slot] = slot >> free
                break
    return expansion


def check_expansion_counts(tree) -> int:
    """Each SRAM table's expansion, rebuilt slot by slot, holds as many slots
    as the SRAM rows `sram_rows_for_table` charges for it; returns the count
    of SRAM tables checked."""
    sram = [t for t in tree.all_tables() if t.kind == SRAM]
    for t in sram:
        assert len(reference_expansion(t)) == sram_rows_for_table(t)[1], t
    return len(sram)


def stub_counts(tree, pure: bool = False) -> dict[int, int]:
    """Child-bearing rows per level boundary, which equal the unibit trie's
    non-leaf counts at those depths.  With `pure`, only the rows the tree
    holds beyond the database entries: a stub merged with a terminal
    occupies no extra row."""
    return {
        boundary: sum(
            1
            for t in tables
            for _, e in stubs(t)
            if not (pure and is_terminal(e, t.stride_width))
        )
        for boundary, tables in zip(tree.stride_list.boundaries, tree.levels)
    }


def tree_search(tree, address: str) -> str:
    """Longest-prefix match through a bare tree, without an overflow buffer."""
    value, _ = tree.root.lookup(int(address, 2), tree.address_width)
    return value if value is not None else DEFAULT_NEXT_HOP


def probe(table, segment: int):
    """One table's match on one stride segment, the reference per-table
    step of `TreeTable.lookup`: the row the segment matches and the
    specified length it is filed at, or (None, 0).  The first hit, longest
    length first, is the longest local match."""
    s = table.stride_width
    tagged = segment | (1 << s)
    for l in table.lengths:
        key = tagged >> (s - l)
        if key in table.by_key:
            return table.by_key[key], l
    return None, 0


def reference_walk(tree, key: int, visited: Optional[list] = None) -> tuple[Optional[str], int]:
    """Reference for `TreeTable.lookup` from the root: one `probe` per level
    visited, on the segment shifted out of the address's int value `key`,
    as (value, matched prefix length) or (None, -1).  A childless terminal,
    a next hop, ends the walk with its own value; a row with a child is
    that child table, which passes the row's inherited value down.  Each
    table probed is appended to `visited` when given."""
    table = tree.root
    value, vlen = None, -1
    rest = key
    rest_len = tree.address_width
    start = 0   # the bits consumed above `table`
    while True:
        if visited is not None:
            visited.append(table)
        s = table.stride_width
        rest_len -= s
        row, length = probe(table, rest >> rest_len)
        if row is None:
            return value, vlen
        if row.__class__ is str:
            return row, start + length
        rest &= (1 << rest_len) - 1
        if row.bmp_value is not None:
            value, vlen = row.bmp_value, start + row.bmp_local_len
        start += s
        table = row


class TrieNode:
    __slots__ = ("depth", "zero", "one", "value")

    def __init__(self, depth: int):
        self.depth = depth
        self.zero: Optional[TrieNode] = None
        self.one: Optional[TrieNode] = None
        self.value: Optional[str] = None

    @property
    def children(self):
        return [c for c in (self.zero, self.one) if c is not None]


def build_pointer_trie(db: PrefixDatabase) -> TrieNode:
    """Reference unibit trie: one node per distinct prefix path; a node's
    value is set where an entry ends."""
    root = TrieNode(0)
    for p in db.entries:
        node = root
        for bit in p.bits:
            if bit == "1":
                if node.one is None:
                    node.one = TrieNode(node.depth + 1)
                node = node.one
            else:
                if node.zero is None:
                    node.zero = TrieNode(node.depth + 1)
                node = node.zero
        node.value = p.next_hop
    return root


def dfs_nonleaf_counts(root: TrieNode, max_depth: Optional[int] = None) -> list[int]:
    """Reference for `compute_lean_levels`: nodes with at least one child at
    every depth 0..max_depth (default: the deepest node), by walking the trie."""
    counts: dict[int, int] = {}
    deepest = 0
    stack = [root]
    while stack:
        node = stack.pop()
        deepest = max(deepest, node.depth)
        kids = node.children
        if kids:
            counts[node.depth] = counts.get(node.depth, 0) + 1
            stack.extend(kids)
    if max_depth is None:
        max_depth = deepest
    return [counts.get(depth, 0) for depth in range(max_depth + 1)]


def trie_child(node, bit: str):
    return node.one if bit == "1" else node.zero


def trie_lookup(root, address: str) -> str:
    """Walk a unibit trie on `address`, returning the deepest stored value seen."""
    best = DEFAULT_NEXT_HOP
    node = root
    if node.value is not None:
        best = node.value
    for bit in address:
        node = trie_child(node, bit)
        if node is None:
            break
        if node.value is not None:
            best = node.value
    return best


def expand_prefixes(entries, target_length: int) -> dict[str, str]:
    """Reference for the expansion that `covered_ranges` measures: rewrite
    each entry as all its `target_length`-bit completions, longer originals
    winning.

    Exact-match lookup on the result equals longest-prefix-match on the input
    for every target_length-bit key that some entry covers.
    """
    items = sorted(entries, key=lambda e: (e[1], e[0]))
    out: dict[str, str] = {}
    seen: set[str] = set()
    for bits, length, value in items:
        if len(bits) != length:
            raise ValueError("entry bits must match the stated length")
        if length > target_length:
            raise TargetTooShort(
                f"entry of length {length} cannot expand to {target_length} bits"
            )
        if bits in seen:
            raise DuplicatePrefix(f"duplicate entry {bits}/{length} in expansion input")
        seen.add(bits)
        span = 1 << (target_length - length)
        base = int(bits, 2) << (target_length - length) if bits else 0
        for key in range(base, base + span):
            out[format(key, f"0{target_length}b")] = value
    return out


def build_tree_by_inserts(db: PrefixDatabase, strides: StrideList) -> TcamTree:
    """Reference for `build_tree`: one `tree_insert` per prefix, in (length,
    file) order, through the update path."""
    tree = TcamTree(strides, db.address_width)
    for p in sorted(db.entries, key=lambda p: p.length):
        tree_insert(tree, *key_of(p.bits), p.next_hop)
    return tree


def pre_tag_blocks(tree, grain) -> int:
    """Block cost if every TCAM table were tiled on its own, untagged."""
    return sum(
        blocks_for_table(t.stride_width, t.entry_count, grain)
        for t in tree.all_tables()
        if t.kind == TCAM
    )


# -- random inputs -------------------------------------------------------------


def random_database(
    rng: random.Random, width: int, max_entries: int = 2000, max_length: int = None
) -> PrefixDatabase:
    if max_length is None:
        max_length = width
    target = rng.randint(1, max_entries)
    seen = set()
    entries = []
    for _ in range(target * 2):
        if len(entries) >= target:
            break
        length = rng.randint(0, max_length)
        bits = format(rng.getrandbits(length), f"0{length}b") if length else ""
        if bits in seen:
            continue
        seen.add(bits)
        entries.append(Prefix(bits, length, f"h{rng.randint(0, 30)}"))
    return PrefixDatabase(width, entries)


def random_strides(rng: random.Random, coverage: int) -> StrideList:
    cuts = sorted(rng.sample(range(1, coverage), rng.randint(0, min(3, coverage - 1))))
    strides = []
    prev = 0
    for c in cuts:
        strides.append(c - prev)
        prev = c
    strides.append(coverage - prev)
    return StrideList(tuple(strides))


# -- vectorized full-space evaluation ------------------------------------------


class HopIds:
    """Stable label -> small-int mapping shared by both sides of a comparison."""

    def __init__(self):
        self._ids = {DEFAULT_NEXT_HOP: 0}

    def get(self, label) -> int:
        if label not in self._ids:
            self._ids[label] = len(self._ids)
        return self._ids[label]

    def label(self, idx: int) -> str:
        for label, i in self._ids.items():
            if i == idx:
                return label
        raise KeyError(idx)


def oracle_vector(entries, width: int, hops: HopIds) -> np.ndarray:
    """Full-space next-hop ids by ascending-length range assignment."""
    size = 1 << width
    val = np.zeros(size, dtype=np.int32)
    for bits, length, hop in sorted(entries, key=lambda e: e[1]):
        lo = (int(bits, 2) << (width - length)) if bits else 0
        val[lo : lo + (1 << (width - length))] = hops.get(hop)
    return val


def db_oracle_vector(db: PrefixDatabase, hops: HopIds) -> np.ndarray:
    return oracle_vector(
        [(p.bits, p.length, p.next_hop) for p in db.entries], db.address_width, hops
    )


def state_vector(state: PipelineState, hops: HopIds) -> np.ndarray:
    """Full-space next-hop ids produced by the planned structure.

    Walks the tree level by level over the whole covered space at once, then
    overlays the overflow buffer with explicit length comparison (overflow
    wins length ties, mirroring the scalar path).
    """
    tree = state.tree
    width = tree.address_width
    coverage = tree.coverage
    cov_size = 1 << coverage

    gid = {id(t): i for i, t in enumerate(tree.all_tables())}
    n_tables = len(gid)
    cur = np.full(cov_size, -1, dtype=np.int64)
    cur[:] = gid[id(tree.root)]
    val = np.zeros(cov_size, dtype=np.int32)
    vlen = np.full(cov_size, -1, dtype=np.int32)

    boundaries = tree.stride_list.boundaries
    for level, tables in enumerate(tree.levels):
        if not tables:
            break
        s = tree.stride_list[level]
        start_bit = boundaries[level] - s
        seg_count = 1 << s
        V = np.zeros((len(tables), seg_count), dtype=np.int32)
        L = np.full((len(tables), seg_count), -1, dtype=np.int32)
        C = np.full((len(tables), seg_count), -1, dtype=np.int64)
        H = np.zeros((len(tables), seg_count), dtype=np.int8)
        row_of = np.full(n_tables, -1, dtype=np.int64)
        for row, t in enumerate(tables):
            row_of[gid[id(t)]] = row
            for p, key, stored in reversed(t.rows()):
                e = row_fields(stored, p)
                lo = key << (s - p)
                hi = lo + (1 << (s - p))
                H[row, lo:hi] = 1
                if e.bmp_value is not None:
                    V[row, lo:hi] = hops.get(e.bmp_value)
                    L[row, lo:hi] = e.bmp_local_len
                else:
                    V[row, lo:hi] = 0
                    L[row, lo:hi] = -1
                C[row, lo:hi] = gid[id(e.child)] if e.child is not None else -1
        idx = np.nonzero(cur >= 0)[0]
        if idx.size == 0:
            break
        seg = (idx >> (coverage - boundaries[level])) & (seg_count - 1)
        rows = row_of[cur[idx]]
        h = H[rows, seg]
        v = V[rows, seg]
        got_value = (h == 1) & (v != 0)
        val[idx[got_value]] = v[got_value]
        vlen[idx[got_value]] = start_bit + L[rows, seg][got_value]
        cur[idx] = np.where(h == 1, C[rows, seg], -1)

    if width > coverage:
        rep = 1 << (width - coverage)
        val = np.repeat(val, rep)
        vlen = np.repeat(vlen, rep)

    if state.overflow.entries:
        size = 1 << width
        oval = np.zeros(size, dtype=np.int32)
        olen = np.full(size, -1, dtype=np.int32)
        for length, value, hop in buffered(state):
            lo = value << (width - length)
            hi = lo + (1 << (width - length))
            oval[lo:hi] = hops.get(hop)
            olen[lo:hi] = length
        take = (olen >= 0) & (olen >= vlen)
        val = np.where(take, oval, val)
    return val


def full_space_mismatches(db_entries, state: PipelineState, limit: int = 5):
    """(count, samples) of addresses where the state disagrees with the oracle."""
    hops = HopIds()
    width = state.tree.address_width
    want = oracle_vector(db_entries, width, hops)
    got = state_vector(state, hops)
    bad = np.nonzero(want != got)[0]
    samples = [
        (format(int(a), f"0{width}b"), hops.label(int(got[a])), hops.label(int(want[a])))
        for a in bad[:limit]
    ]
    return int(bad.size), samples


def db_entry_tuples(db: PrefixDatabase):
    return [(p.bits, p.length, p.next_hop) for p in db.entries]
