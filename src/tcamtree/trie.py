"""Unibit trie construction, lean-level statistics, and controlled prefix expansion."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from ._util import fixed_decimal_str
from .errors import EmptyDatabase, LevelOutOfRange, TargetTooShort
from .prefixdb import PrefixDatabase


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


def build_unibit_trie(db: PrefixDatabase) -> TrieNode:
    """One node per distinct prefix path; a node's value is set where an entry ends."""
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


@dataclass(frozen=True)
class LeanLevelRow:
    depth: int
    nonleaf_count: int
    b: Fraction                  # 100 * nonleaf_count / N, kept exact
    worst_overhead: Fraction     # 2 * b: pointer waste plus packing waste


class LeanLevelTable:
    """Per-depth non-leaf counts; low counts mark cheap places to cut the trie."""

    def __init__(self, rows: Iterable[LeanLevelRow], total_prefixes: int):
        self.rows = tuple(rows)
        self.total_prefixes = total_prefixes
        self._by_depth = {r.depth: r for r in self.rows}

    @property
    def max_depth(self) -> int:
        return self.rows[-1].depth if self.rows else 0

    def row(self, depth: int) -> LeanLevelRow:
        try:
            return self._by_depth[depth]
        except KeyError:
            raise LevelOutOfRange(f"no lean-level row for depth {depth}") from None

    def nonleaf(self, depth: int) -> int:
        return self.row(depth).nonleaf_count

    def b(self, depth: int) -> Fraction:
        return self.row(depth).b

    def to_csv(self, min_level: int = 1, max_level: Optional[int] = None) -> str:
        if max_level is None:
            max_level = self.max_depth
        lines = ["level,b_percent,worst_overhead_percent"]
        for depth in range(min_level, max_level + 1):
            r = self.row(depth)
            # four places, trailing zeros and a trailing dot trimmed
            b, worst = (
                fixed_decimal_str(v, 4).rstrip("0").rstrip(".") for v in (r.b, r.worst_overhead)
            )
            lines.append(f"{depth},{b},{worst}")
        return "".join(line + "\n" for line in lines)


def compute_lean_levels(
    root: TrieNode, total_prefixes: int, max_depth: Optional[int] = None
) -> LeanLevelTable:
    """Count nodes with at least one child at every depth 0..max_depth."""
    if total_prefixes < 1:
        raise EmptyDatabase("lean levels need at least one prefix")
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
    rows = []
    for depth in range(max_depth + 1):
        n = counts.get(depth, 0)
        b = Fraction(100 * n, total_prefixes)
        rows.append(LeanLevelRow(depth, n, b, 2 * b))
    return LeanLevelTable(rows, total_prefixes)


def covered_ranges(
    entries: Iterable[tuple[str, int, str]], target_length: int
) -> list[tuple[int, int]]:
    """Disjoint ascending [lo, hi) ranges of the keys that the entries' expansion
    to `target_length` bits covers, computed without enumerating keys."""
    intervals = []
    for bits, length, _ in entries:
        if length > target_length:
            raise TargetTooShort(
                f"entry of length {length} cannot expand to {target_length} bits"
            )
        base = int(bits, 2) << (target_length - length) if bits else 0
        intervals.append((base, base + (1 << (target_length - length))))
    intervals.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def expanded_size(entries: Iterable[tuple[str, int, str]], target_length: int) -> int:
    """Distinct-key count of that expansion: the size of an interval union,
    which stays cheap even when the expansion itself would not."""
    return sum(hi - lo for lo, hi in covered_ranges(entries, target_length))
