from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcamtree import (
    PrefixDatabase,
    Prefix,
    build_unibit_trie,
    compute_lean_levels,
    lean_row,
)
from tcamtree.errors import EmptyDatabase, LevelOutOfRange

from tests.helpers import (
    TargetTooShort,
    build_pointer_trie,
    covered_ranges,
    dfs_nonleaf_counts,
    expand_prefixes,
    table1_db,
    trie_child,
    trie_lookup,
)


def table1_trie():
    return build_unibit_trie(table1_db())


def distinct_prefixes(width, raw):
    """One Prefix per distinct (length, value) draw, value masked to length."""
    seen, entries = set(), []
    for length, value in raw:
        bits = format(value & ((1 << length) - 1), f"0{length}b") if length else ""
        if bits not in seen:
            seen.add(bits)
            entries.append(Prefix(bits, length, "x"))
    return PrefixDatabase(width, entries)


class TestBuildTrie:
    """The pointer trie in tests/helpers.py, the reference for the sweep."""

    def test_table1_shape(self):
        root = build_pointer_trie(table1_db())
        # depth-1 node "1" stores A; the only deeper branching follows 100
        assert root.one is not None and root.zero is None
        assert root.one.value == "A"
        node = root
        for bit in "100":
            node = trie_child(node, bit)
        assert node.zero is not None and node.one is not None  # 1000 and 1001

    def test_leaf_depths(self):
        root = build_pointer_trie(table1_db())
        deepest = []

        def walk(node):
            if not node.children:
                deepest.append(node.depth)
            for child in node.children:
                walk(child)

        walk(root)
        assert sorted(deepest) == [5, 5, 6, 6]

    def test_empty_database_gives_bare_root(self):
        root = build_pointer_trie(PrefixDatabase(6))
        assert root.children == [] and root.value is None

    def test_zero_length_entry_stored_at_root(self):
        root = build_pointer_trie(PrefixDatabase(6, [Prefix("", 0, "X")]))
        assert root.value == "X" and root.children == []

    def test_walk_matches_oracle(self):
        db = table1_db()
        root = build_pointer_trie(db)
        assert trie_lookup(root, "100110") == "E"
        assert trie_lookup(root, "011111") == "default"


class TestMarkedNodes:
    """`build_unibit_trie`: the entries as ints, grouped by length."""

    def test_table1_by_depth(self):
        # A is "1" at depth 1
        assert table1_trie() == [[], [1], [], [], [0b1000], [0b10001, 0b10010], [0b100110, 0b100111]]

    def test_zero_length_entry_is_depth_0(self):
        assert build_unibit_trie(PrefixDatabase(6, [Prefix("", 0, "X")])) == [[0]]

    def test_empty_database_has_no_marked_node(self):
        assert build_unibit_trie(PrefixDatabase(6)) == [[]]

    def test_stops_at_the_deepest_entry(self):
        db = PrefixDatabase(8, [Prefix("01", 2, "X"), Prefix("", 0, "Y")])
        assert build_unibit_trie(db) == [[0], [], [1]]


class TestLeanLevels:
    def test_table1_counts(self):
        lean = compute_lean_levels(table1_trie(), 6, max_depth=6)
        assert [r.nonleaf_count for r in lean.rows] == [1, 1, 1, 1, 2, 1, 0]

    def test_depth3_fraction_is_exact(self):
        lean = compute_lean_levels(table1_trie(), 6, max_depth=6)
        row = lean.row(3)
        assert row.b == Fraction(100, 6)
        assert row.worst_overhead == Fraction(200, 6)

    def test_deepest_level_has_no_nonleaves(self):
        lean = compute_lean_levels(table1_trie(), 6, max_depth=6)
        assert lean.row(6).nonleaf_count == 0

    def test_level_out_of_range(self):
        lean = compute_lean_levels(table1_trie(), 6, max_depth=6)
        with pytest.raises(LevelOutOfRange):
            lean.row(7)

    def test_requires_nonempty(self):
        with pytest.raises(EmptyDatabase):
            compute_lean_levels(table1_trie(), 0)

    def test_csv_layout(self):
        lean = compute_lean_levels(table1_trie(), 6, max_depth=6)
        lines = lean.to_csv(1, 6).splitlines()
        assert lines[0] == "level,b_percent,worst_overhead_percent"
        assert lines[3].startswith("3,16.6667,33.3333")
        assert len(lines) == 7

    @given(st.data())
    @settings(max_examples=40)
    def test_counts_bounded_by_width_and_entries(self, data):
        width = data.draw(st.integers(2, 8))
        raw = data.draw(st.lists(st.tuples(st.integers(0, width), st.integers(0, 255)), min_size=1, max_size=30))
        db = distinct_prefixes(width, raw)
        lean = compute_lean_levels(build_unibit_trie(db), len(db), max_depth=width)
        for row in lean.rows:
            assert row.nonleaf_count <= min(1 << row.depth, len(db))
            assert row.worst_overhead == 2 * row.b

    @given(st.data())
    @settings(max_examples=150)
    def test_sweep_equals_pointer_trie_dfs(self, data):
        width = data.draw(st.integers(1, 12))
        raw = data.draw(
            st.lists(st.tuples(st.integers(0, width), st.integers(0, 4095)), min_size=1, max_size=40)
        )
        if data.draw(st.booleans()):
            raw.append((0, 0))  # a /0 entry
        db = distinct_prefixes(width, raw)
        deepest = db.max_length()
        # None, below the deepest entry, at or above it, and above the width
        max_depth = data.draw(
            st.one_of(
                st.none(),
                st.integers(0, max(deepest - 1, 0)),
                st.integers(deepest, width),
                st.integers(width + 1, width + 4),
            )
        )
        lean = compute_lean_levels(build_unibit_trie(db), len(db), max_depth=max_depth)
        want = dfs_nonleaf_counts(build_pointer_trie(db), max_depth)
        assert [r.nonleaf_count for r in lean.rows] == want
        assert [r.depth for r in lean.rows] == list(range(len(want)))


class TestLeanRow:
    """`lean_row` counts one depth directly; the sweep is its reference."""

    def test_table1_depth3(self):
        assert lean_row(table1_db(), 3) == compute_lean_levels(table1_trie(), 6).row(3)

    def test_requires_nonempty_and_nonnegative_depth(self):
        with pytest.raises(EmptyDatabase):
            lean_row(PrefixDatabase(6), 3)
        with pytest.raises(LevelOutOfRange):
            lean_row(table1_db(), -1)

    @given(st.data())
    @settings(max_examples=150)
    def test_equals_the_sweep_at_every_depth(self, data):
        width = data.draw(st.integers(1, 12))
        raw = data.draw(
            st.lists(st.tuples(st.integers(0, width), st.integers(0, 4095)), min_size=1, max_size=40)
        )
        raw.append((0, 0))  # a /0 entry
        raw.append((width, data.draw(st.integers(0, 4095))))  # a full-width entry
        db = distinct_prefixes(width, raw)
        lean = compute_lean_levels(build_unibit_trie(db), len(db), max_depth=width)
        for depth in range(width + 1):
            assert lean_row(db, depth) == lean.row(depth)


def lpm_over(entries, key):
    best, best_len = None, -1
    for bits, length, value in entries:
        if length > best_len and key.startswith(bits):
            best, best_len = value, length
    return best


class TestExpandPrefixes:
    def test_collision_resolved_for_longer_prefix(self):
        out = expand_prefixes([("1000", 4, "B"), ("10001", 5, "C")], 6)
        assert out["100011"] == "C"
        assert out["100001"] == "B"

    def test_pure_expansion(self):
        out = expand_prefixes([("0", 1, "B")], 3)
        assert out == {"000": "B", "001": "B", "010": "B", "011": "B"}

    def test_child_table_of_3_3_tree(self):
        entries = [("0", 1, "B"), ("01", 2, "C"), ("10", 2, "D"), ("110", 3, "E"), ("111", 3, "F")]
        out = expand_prefixes(entries, 3)
        assert out == {
            "000": "B", "001": "B", "010": "C", "011": "C",
            "100": "D", "101": "D", "110": "E", "111": "F",
        }

    def test_target_too_short(self):
        with pytest.raises(TargetTooShort):
            expand_prefixes([("1000", 4, "B")], 3)

    @given(st.data())
    @settings(max_examples=60)
    def test_pointwise_equals_lpm_and_size_matches(self, data):
        target = data.draw(st.integers(1, 10))
        raw = data.draw(st.lists(st.tuples(st.integers(0, target), st.integers(0, 1023), st.integers(0, 4)), max_size=16))
        seen, entries = set(), []
        for length, value, hop in raw:
            bits = format(value & ((1 << length) - 1), f"0{length}b") if length else ""
            if bits not in seen:
                seen.add(bits)
                entries.append((bits, length, f"h{hop}"))
        out = expand_prefixes(entries, target)
        for key in (format(v, f"0{target}b") for v in range(1 << target)):
            assert out.get(key) == lpm_over(entries, key)
        # the interval-union size never enumerates but must agree exactly
        keyed = [(int(bits or "0", 2), length, hop) for bits, length, hop in entries]
        assert sum(hi - lo for lo, hi in covered_ranges(keyed, target)) == len(out)
        covered = sum(1 << (target - length) for _, length, _ in entries)
        assert len(out) <= covered
