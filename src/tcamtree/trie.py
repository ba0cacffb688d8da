"""Lean-level statistics of the unibit trie.

The lean levels are the per-depth counts of trie nodes with a child.  They
are counted bottom-up over sets of ints, one depth at a time, from the
entries grouped by length; no trie node is ever allocated.  `lean_row`
counts a single depth straight from the entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ._util import fixed_decimal_str
from .errors import EmptyDatabase, LevelOutOfRange
from .prefixdb import PrefixDatabase


def build_unibit_trie(db: PrefixDatabase) -> list[list[int]]:
    """The unibit trie's marked nodes by depth: `[d]` holds the entries of
    length d as ints, up to the deepest entry.  The whole trie is the prefix
    closure of these nodes; `compute_lean_levels` counts it without a node
    object."""
    marked: list[list[int]] = [[] for _ in range(db.max_length() + 1)]
    for length, table in db.by_length:
        marked[length] = list(table)
    return marked


@dataclass(frozen=True)
class LeanLevelRow:
    depth: int
    nonleaf_count: int
    b: Fraction                  # 100 * nonleaf_count / N, kept exact
    worst_overhead: Fraction     # 2 * b: pointer waste plus packing waste

    @classmethod
    def counted(cls, depth: int, nonleaf_count: int, total_prefixes: int) -> "LeanLevelRow":
        b = Fraction(100 * nonleaf_count, total_prefixes)
        return cls(depth, nonleaf_count, b, 2 * b)


class LeanLevelTable:
    """Per-depth non-leaf counts; low counts mark cheap places to cut the trie."""

    def __init__(self, rows: Iterable[LeanLevelRow]):
        self.rows = tuple(rows)
        self._by_depth = {r.depth: r for r in self.rows}

    def row(self, depth: int) -> LeanLevelRow:
        try:
            return self._by_depth[depth]
        except KeyError:
            raise LevelOutOfRange(f"no lean-level row for depth {depth}") from None

    def to_csv(self, min_level: int, max_level: int) -> str:
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
    marked: Sequence[Iterable[int]], total_prefixes: int, max_depth: Optional[int] = None
) -> LeanLevelTable:
    """Count nodes with at least one child at every depth 0..max_depth.

    Sweeps up from the deepest entry over sets of ints: a depth-d node has a
    child exactly when it is the parent (x >> 1) of a depth-(d+1) node, and
    the depth-d nodes are those parents plus the entries of length d.  Only
    two depths' sets are alive at a time."""
    if total_prefixes < 1:
        raise EmptyDatabase("lean levels need at least one prefix")
    deepest = len(marked) - 1
    if max_depth is None:
        max_depth = deepest
    counts = [0] * (max_depth + 1)
    nodes: set[int] = set()
    for depth in range(deepest, -1, -1):
        parents = {x >> 1 for x in nodes}
        if depth <= max_depth:
            counts[depth] = len(parents)
        parents.update(marked[depth])
        nodes = parents
    rows = (LeanLevelRow.counted(depth, n, total_prefixes) for depth, n in enumerate(counts))
    return LeanLevelTable(rows)


def lean_row(db: PrefixDatabase, depth: int) -> LeanLevelRow:
    """The lean level at one depth, equal to `compute_lean_levels`' row there:
    a depth-d node has a child exactly when it is the d-bit prefix of a longer
    entry, so count those prefixes without sweeping the other depths."""
    if len(db) < 1:
        raise EmptyDatabase("lean levels need at least one prefix")
    if depth < 0:
        raise LevelOutOfRange(f"no lean-level row for depth {depth}")
    nonleaf = len({
        value >> (length - depth)
        for length, table in db.by_length if length > depth
        for value in table
    })
    return LeanLevelRow.counted(depth, nonleaf, len(db))
