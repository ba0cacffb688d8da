import random
import re
import sys
from collections import Counter
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcamtree import (
    GrainSpec,
    HybridizationConfig,
    Prefix,
    PrefixDatabase,
    StrideList,
    blocks_for_table,
    build_tree,
    build_unibit_trie,
    compute_lean_levels,
    hybridize,
    oracle_lookup,
    parse_file,
)
from tcamtree import tiler
from tcamtree.packing import sram_rows_for_table
from tcamtree.prefixdb import bits_of
from tcamtree.errors import DuplicatePrefix, NotFound, PrefixExceedsCoverage
from tcamtree.tiler import (
    SRAM,
    TCAM,
    ExpandedRoot,
    TreeTable,
    tree_delete,
    tree_insert,
)

from tests.helpers import (
    DATA_DIR,
    all_addresses,
    build_tree_by_inserts,
    is_terminal,
    key_of,
    ordered_scan_lookup,
    probe,
    random_database,
    random_strides,
    recounted_lengths,
    recounted_stub_keys,
    reference_expansion,
    reference_walk,
    row_at,
    row_fields,
    scan_local_lpm,
    stub_counts,
    stubs,
    table1_db,
    terminal_count,
    terminal_prefixes,
    ternary_rows,
    total_entries,
    tree_search,
)


def entry_view(table):
    return {
        text: (e.bmp_value, is_terminal(e, len(text.rstrip("*"))), e.child is not None)
        for text, e in ternary_rows(table)
    }


class TestStrideList:
    def test_parse_and_str(self):
        s = StrideList.parse("19-29-16")
        assert s.strides == (19, 29, 16)
        assert s.coverage == 64
        assert s.boundaries == (19, 48, 64)
        assert str(s) == "19-29-16"

    def test_rejects_zero_strides(self):
        with pytest.raises(ValueError):
            StrideList((3, 0, 3))


class TestBuildTree:
    def test_table1_3_3_matches_expected_shape(self):
        tree = build_tree(table1_db(), StrideList.parse("3-3"))
        assert entry_view(tree.root) == {
            "1**": ("A", True, False),
            "100": ("A", False, True),
        }
        (child,) = tree.levels[1]
        assert entry_view(child) == {
            "0**": ("B", True, False),
            "01*": ("C", True, False),
            "10*": ("D", True, False),
            "110": ("E", True, False),
            "111": ("F", True, False),
        }

    def test_table1_single_stride_is_flat(self):
        tree = build_tree(table1_db(), StrideList.parse("6"))
        assert len(tree.levels[0]) == 1
        assert tree.root.entry_count == 6
        assert tree.root.stub_count() == 0
        keys = [text for text, _ in ternary_rows(tree.root)]
        assert keys == ["100110", "100111", "10001*", "10010*", "1000**", "1*****"]

    def test_two_entry_1_1_tree(self):
        db = PrefixDatabase(2, [Prefix("0", 1, "X"), Prefix("01", 2, "Y")])
        tree = build_tree(db, StrideList.parse("1-1"))
        assert entry_view(tree.root) == {"0": ("X", True, True)}
        (child,) = tree.levels[1]
        assert entry_view(child) == {"1": ("Y", True, False)}
        for address in all_addresses(2):
            assert tree_search(tree, address) == oracle_lookup(db, address)

    def test_rejects_prefix_beyond_coverage(self):
        with pytest.raises(PrefixExceedsCoverage):
            build_tree(table1_db(), StrideList.parse("3-2"))

    def test_insert_beyond_coverage_is_refused_unchanged(self):
        tree = build_tree(table1_db().restricted(5), StrideList.parse("3-2"))
        before = tree.structure()
        with pytest.raises(PrefixExceedsCoverage, match="length 6 exceeds coverage 5"):
            tree_insert(tree, *key_of("100101"), "Z")
        assert tree.structure() == before

    def test_rejects_duplicates_on_insert(self):
        tree = build_tree(table1_db(), StrideList.parse("3-3"))
        with pytest.raises(DuplicatePrefix):
            tree_insert(tree, *key_of("1000"), "Z")

    def test_terminal_count_equals_database_size(self):
        db = table1_db()
        for spec in ("6", "3-3", "2-2-2", "1-1-1-1-1-1"):
            tree = build_tree(db, StrideList.parse(spec))
            assert terminal_count(tree) == len(db)

    def test_stub_counts_match_lean_levels(self):
        db = table1_db()
        lean = compute_lean_levels(build_unibit_trie(db), len(db), max_depth=6)
        for spec in ("3-3", "2-2-2", "1-1-1-1-1-1", "4-2", "1-5"):
            tree = build_tree(db, StrideList.parse(spec))
            for boundary, stubs in stub_counts(tree).items():
                if boundary < tree.coverage:
                    assert stubs == lean.row(boundary).nonleaf_count, (spec, boundary)
                else:
                    assert stubs == 0

    def test_deterministic_structure(self):
        db = table1_db()
        a = build_tree(db, StrideList.parse("2-2-2")).structure()
        b = build_tree(db, StrideList.parse("2-2-2")).structure()
        assert a == b

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_trees_equal_oracle_exhaustively(self, seed):
        rng = random.Random(seed)
        width = rng.randint(3, 8)
        db = random_database(rng, width, max_entries=40)
        strides = random_strides(rng, width)
        tree = build_tree(db, strides)
        assert terminal_count(tree) == len(db)
        assert total_entries(tree) == len(db) + sum(stub_counts(tree, pure=True).values())
        lean = compute_lean_levels(build_unibit_trie(db), max(len(db), 1), max_depth=width)
        for boundary, stubs in stub_counts(tree).items():
            if boundary < strides.coverage:
                assert stubs == lean.row(boundary).nonleaf_count
        for address in all_addresses(width):
            assert tree_search(tree, address) == oracle_lookup(db, address)


def build_view(tree):
    """What a build must reproduce: the nested rows, and per level, in table
    creation order, each table's lengths and counts, its sorted tagged keys,
    and its stub keys as stored."""
    return (
        tree.structure(),
        [[(t.lengths, t.counts, sorted(t.by_key), list(t.stub_keys)) for t in level]
         for level in tree.levels],
    )


def edge_case_database(rng, width, strides):
    """A random database plus the cases a build can get wrong: a
    length-0 prefix, a prefix ending on each stride boundary, and a longer
    prefix under each of those, whose stub merges with that full-length
    terminal.  File order is shuffled."""
    entries = {p.bits: p for p in random_database(rng, width, max_entries=40).entries}
    extra = [""]
    for boundary in strides.boundaries:
        head = format(rng.getrandbits(boundary), f"0{boundary}b")
        extra.append(head)
        if boundary < width:
            tail = rng.randint(1, width - boundary)
            extra.append(head + format(rng.getrandbits(tail), f"0{tail}b"))
    for bits in extra:
        entries.setdefault(bits, Prefix(bits, len(bits), f"x{rng.randint(0, 9)}"))
    order = list(entries.values())
    rng.shuffle(order)
    return PrefixDatabase(width, order)


class TestBulkBuild:
    """`build_tree` and `tree_insert` share one descent, so the insert-built
    tree alone would pass a defect in it: the oracle judges both trees'
    answers too."""

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_bulk_tree_equals_insert_built_tree_under_updates(self, seed, single_stride):
        rng = random.Random(seed)
        width = rng.randint(2, 12)
        strides = StrideList((width,)) if single_stride else random_strides(rng, width)
        db = edge_case_database(rng, width, strides)
        bulk, reference = build_tree(db, strides), build_tree_by_inserts(db, strides)
        assert build_view(bulk) == build_view(reference)
        for address in all_addresses(width):
            assert tree_search(bulk, address) == oracle_lookup(db, address)
        live = {p.bits: p.next_hop for p in db.entries}
        for _ in range(30):
            if live and rng.random() < 0.5:
                bits = rng.choice(sorted(live))
                del live[bits]
                for tree in (bulk, reference):
                    tree_delete(tree, *key_of(bits))
            else:
                length = rng.randint(0, width)
                bits = format(rng.getrandbits(length), f"0{length}b") if length else ""
                if bits in live:
                    continue
                hop = live[bits] = f"u{rng.randint(0, 9)}"
                for tree in (bulk, reference):
                    tree_insert(tree, *key_of(bits), hop)
        assert build_view(bulk) == build_view(reference)
        final = PrefixDatabase(width, [Prefix(b, len(b), h) for b, h in live.items()])
        for address in all_addresses(width):
            assert tree_search(bulk, address) == oracle_lookup(final, address)

    def test_build_walks_no_prefix_and_refreshes_no_row(self, monkeypatch):
        # only a table's first prefix descends; nor is a stub key list kept
        # sorted while it grows: each is sorted once
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        for name in ("tree_insert", "descend", "insort"):
            monkeypatch.setattr(tiler, name, counting(name, getattr(tiler, name)))
        for name in ("rows_under", "local_lpm"):
            monkeypatch.setattr(TreeTable, name, counting(name, getattr(TreeTable, name)))
        db = parse_file(DATA_DIR / "synthetic-ipv4-500.txt", 32)
        tree = build_tree(db, StrideList.parse("16-4-4-8"))
        stubs = sum(stub_counts(tree, pure=True).values())
        assert stubs > 0
        with_terminals = sum(1 for t in tree.all_tables() if terminal_prefixes(t))
        assert calls["descend"] == with_terminals < len(db)
        assert calls["tree_insert"] == calls["rows_under"] == 0
        assert calls["insort"] == 0
        assert calls["local_lpm"] <= stubs


def length_of(tagged: int) -> int:
    return tagged.bit_length() - 1


class CountingDict(dict):
    """A table's row dict that counts the rows a lookup or an update reads,
    per specified length in `reads`.  Every probe and every read of a row
    counts, except that `rows[key]` right after `key in rows` reads the row
    that probe found, and counts with it."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = Counter()
        self.probed = None   # the key of the last `in` probe, until a read follows it

    def get(self, key, default=None):
        self.reads[length_of(key)] += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.reads[length_of(key)] += 1
        self.probed = key
        return super().__contains__(key)

    def __getitem__(self, key):
        if self.probed != key:
            self.reads[length_of(key)] += 1
        self.probed = None
        return super().__getitem__(key)

    def values(self):
        self.reads.update(map(length_of, dict.keys(self)))
        return super().values()

    def items(self):
        self.reads.update(map(length_of, dict.keys(self)))
        return super().items()


class WatchedRows(dict):
    """A table's row dict that counts the rows it hands out, per specified
    length in `reads`, probes that miss aside."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = Counter()

    def get(self, key, default=None):
        row = super().get(key, default)
        if row is not None:
            self.reads[length_of(key)] += 1
        return row

    def __getitem__(self, key):
        self.reads[length_of(key)] += 1
        return super().__getitem__(key)

    def values(self):
        self.reads.update(map(length_of, dict.keys(self)))
        return super().values()

    def items(self):
        self.reads.update(map(length_of, dict.keys(self)))
        return super().items()

    def __iter__(self):
        self.reads.update(map(length_of, dict.keys(self)))
        return super().__iter__()


def counting_rows(table, kind=CountingDict):
    """Swap the table's row dict for a counting `kind` of dict; returns it."""
    table.by_key = kind(table.by_key)
    return table.by_key


def check_root(tree, addresses):
    """The root's lookup equals `reference_walk` on each of `addresses`, in
    value and matched length.  An SRAM root is an `ExpandedRoot`, whose
    expansion equals one rebuilt from scratch, slot by slot, and holds as
    many slots as the SRAM rows `sram_rows_for_table` charges for the root."""
    root = tree.root
    for v in addresses:
        assert root.lookup(v, tree.address_width) == reference_walk(tree, v), v
    assert isinstance(root, ExpandedRoot) == (root.kind == SRAM)
    if isinstance(root, ExpandedRoot):
        assert root.expansion == reference_expansion(root)
        assert len(root.expansion) == sram_rows_for_table(root)[1]
        assert all(tagged in root.by_key for tagged in root.expansion.values())


def check_index(tree, rng, grown=()):
    """Every table's `probe` equals the ordered ternary scan (on every segment
    up to 8 bits, else on sampled ones), every stub's inherited value
    equals a from-scratch longest local match, the lengths and their counts
    equal a recount of the dict, tables with the same lengths share one
    tuple, the stub keys equal a recount of the child-bearing rows, and the
    rows that are not a `str` are exactly those: each a child table one
    level down, filed at full length under a key in `stub_keys`.  Each
    (level, table) pair in `grown`, as `tree_insert` returns them, names the
    level holding its table.  The root passes `check_root` on every
    address."""
    for level, table in grown:
        assert table in tree.levels[level]
    check_root(tree, range(1 << tree.address_width))
    for level, tables in enumerate(tree.levels):
        for table in tables:
            ordered = ternary_rows(table)
            s = table.stride_width
            if s <= 8:
                segments = [format(v, f"0{s}b") for v in range(1 << s)]
            else:
                segments = [format(rng.getrandbits(s), f"0{s}b") for _ in range(128)]
                segments += [text.replace("*", pad) for text, _ in ordered for pad in "01"]
            for segment in segments:
                row = row_fields(*probe(table, int(segment, 2)))
                assert row == ordered_scan_lookup(ordered, segment), (table, segment)
            for text, e in ordered:
                if not is_terminal(e, len(text.rstrip("*"))):
                    assert (e.bmp_value, e.bmp_local_len) == scan_local_lpm(table, text)
            assert (table.lengths, table.counts) == recounted_lengths(table)
            if table.lengths:
                assert tree.length_sets[table.lengths] is table.lengths
            assert list(table.stub_keys) == recounted_stub_keys(table)
            for tagged, row in table.by_key.items():
                if row.__class__ is str:
                    continue
                assert type(row) is TreeTable and row in tree.levels[level + 1]
                assert length_of(tagged) == table.stride_width and tagged in table.stub_keys


class TestProbeIndex:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_index_equals_ordered_scan_under_updates(self, seed, hybrid):
        rng = random.Random(seed)
        width = rng.randint(2, 10)
        db = random_database(rng, width, max_entries=30)
        tree = build_tree(db, random_strides(rng, width))
        if hybrid:
            hybridize(tree, HybridizationConfig(factor=rng.choice([1.5, 3, 8])), 9)
        live = {p.bits: p for p in db.entries}
        check_index(tree, rng)
        for _ in range(30):
            grown = ()
            if live and rng.random() < 0.5:
                tree_delete(tree, *key_of(live.pop(rng.choice(sorted(live))).bits))
            else:
                length = rng.randint(0, width)
                bits = format(rng.getrandbits(length), f"0{length}b") if length else ""
                if bits in live:
                    continue
                live[bits] = Prefix(bits, length, f"h{rng.randint(0, 9)}")
                grown = tree_insert(tree, *key_of(bits), live[bits].next_hop)
            check_index(tree, rng, grown)
        final = PrefixDatabase(width, list(live.values()))
        for address in all_addresses(width):
            assert tree_search(tree, address) == oracle_lookup(final, address)

    def test_root_delete_reads_only_the_prefix_range(self, monkeypatch):
        rng = random.Random(3)
        heads = rng.sample(range(1 << 12), 1200)
        entries = [Prefix(format(h, "012b") + "0110", 16, f"h{h}") for h in heads]
        entries += [Prefix("10", 2, "outer"), Prefix("101010", 6, "cover")]
        tree = build_tree(PrefixDatabase(16, entries), StrideList.parse("12-4"))
        root = tree.root
        assert root.stub_count() >= 1000
        before = {text: (e.bmp_value, e.bmp_local_len) for text, e in ternary_rows(root)}
        inherited = {k for k, (_, length) in before.items() if length == 6 and "*" not in k}
        assert inherited
        calls = []
        local_lpm = TreeTable.local_lpm
        monkeypatch.setattr(
            TreeTable, "local_lpm", lambda t, *key: calls.append(key) or local_lpm(t, *key)
        )
        rows = counting_rows(root)
        tree_delete(tree, *key_of("101010"))
        reads = rows.reads.total()
        after = {text: (e.bmp_value, e.bmp_local_len) for text, e in ternary_rows(root)}
        # One fallback match for all inheriting stubs; reads cover the
        # deleted row, that match and the stubs under the prefix, never the
        # 1,200 rows or the 2**6 keys a probe of the range would try.
        assert len(calls) == 1
        assert reads <= 2 + len(inherited)
        changed = {k for k, v in after.items() if v != before[k]}
        assert changed == inherited
        assert all(after[k] == ("outer", 2) for k in changed)

    def test_sram_root_delete_makes_one_fallback_match(self, monkeypatch):
        # Deleting 01/2 from an SRAM root moves the stub at 0110 and the
        # expansion's slots 01** to the /0 with one fallback match between them.
        entries = [Prefix("", 0, "z"), Prefix("01", 2, "a"), Prefix("01101111", 8, "c")]
        tree = build_tree(PrefixDatabase(8, entries), StrideList.parse("4-4"))
        hybridize(tree, HybridizationConfig(factor=64), 9)
        assert tree.root.kind == SRAM and isinstance(tree.root, ExpandedRoot)
        assert tree.root.expansion
        calls = []
        local_lpm = TreeTable.local_lpm
        monkeypatch.setattr(
            TreeTable, "local_lpm", lambda t, *key: calls.append(key) or local_lpm(t, *key)
        )
        tree_delete(tree, *key_of("01"))
        assert len(calls) == 1
        assert {k: (e.bmp_value, e.bmp_local_len) for k, e in stubs(tree.root)} == {0b0110: ("z", 0)}
        check_root(tree, range(1 << 8))

    def test_sram_root_collecting_a_pure_stub_makes_no_fallback_match(self, monkeypatch):
        # Deleting 01101111/8 empties the child at 0110, a pure stub of the
        # SRAM root: its child already holds the 01/2 the slot falls back to.
        entries = [Prefix("", 0, "z"), Prefix("01", 2, "a"), Prefix("1111", 4, "b"),
                   Prefix("01101111", 8, "c")]
        tree = build_tree(PrefixDatabase(8, entries), StrideList.parse("4-4"))
        hybridize(tree, HybridizationConfig(factor=64), 2)
        assert isinstance(tree.root, ExpandedRoot)
        calls = []
        local_lpm = TreeTable.local_lpm
        monkeypatch.setattr(
            TreeTable, "local_lpm", lambda t, *key: calls.append(key) or local_lpm(t, *key)
        )
        tree_delete(tree, *key_of("01101111"))
        assert calls == []
        assert tree.root.expansion == reference_expansion(tree.root)
        check_root(tree, range(1 << 8))

    @pytest.mark.parametrize("deleted, kept", [
        ("01", {0b0110: ("b", 3), 0b1111: ("z", 0)}),
        ("", {0b0110: ("b", 3), 0b1111: (None, -1)}),
    ])
    def test_delete_no_row_inherited_makes_no_fallback_match(self, monkeypatch, deleted, kept):
        # The stub at 0110 lies under 01/2 but inherits 011/3, so deleting 01
        # changes no row.  The stub at 1111 inherits the /0, and a delete at
        # length 0 has no shorter terminal to fall back to.
        entries = [
            Prefix("", 0, "z"), Prefix("01", 2, "a"), Prefix("011", 3, "b"),
            Prefix("01101111", 8, "c"), Prefix("11110000", 8, "d"),
        ]
        strides = StrideList.parse("4-4")
        tree = build_tree(PrefixDatabase(8, entries), strides)
        calls = []
        local_lpm = TreeTable.local_lpm
        monkeypatch.setattr(
            TreeTable, "local_lpm", lambda t, *key: calls.append(key) or local_lpm(t, *key)
        )
        tree_delete(tree, *key_of(deleted))
        assert calls == []
        assert {k: (e.bmp_value, e.bmp_local_len) for k, e in stubs(tree.root)} == kept
        rest = [p for p in entries if p.bits != deleted]
        assert tree.structure() == build_tree(PrefixDatabase(8, rest), strides).structure()

    def test_short_prefix_update_reads_only_the_stubs_in_its_range(self):
        # 1,100 full-length root terminals and a few stubs, in and out of
        # 10**********: withdrawing 10/2 and announcing it again reads each
        # stub in its range once, and none of its 2**10 candidate keys or
        # the table's 1,100 terminals.
        rng = random.Random(11)
        heads = set(rng.sample(range(1 << 12), 1100))
        under_10 = range(0b10 << 10, 0b11 << 10)
        merged = [k for k in under_10 if k in heads][:2]   # terminals with a child
        pure = [k for k in under_10 if k not in heads][:2]
        outside = [k for k in range(0b11 << 10, 1 << 12) if k not in heads][:1]
        outside += [k for k in range(0b01 << 10, 0b10 << 10) if k in heads][:1]
        entries = [Prefix(format(h, "012b"), 12, f"t{h}") for h in heads]
        entries += [
            Prefix(format(k, "012b") + "0110", 16, f"s{k}") for k in merged + pure + outside
        ]
        entries += [Prefix("1", 1, "outer"), Prefix("10", 2, "short")]
        tree = build_tree(PrefixDatabase(16, entries), StrideList.parse("12-4"))
        root = tree.root
        assert root.stub_keys == [(1 << 12) | k for k in sorted(merged + pure + outside)]
        rows = counting_rows(root)

        def values(keys):
            return [row_fields(dict.__getitem__(rows, (1 << 12) | k), 12)[:2] for k in keys]

        kept = values(heads) + values(outside)
        for bits, hop, pure_value in (("10", None, ("outer", 1)), ("10", "again", ("again", 2))):
            rows.reads.clear()
            if hop is None:
                tree_delete(tree, *key_of(bits))
            else:
                tree_insert(tree, *key_of(bits), hop)
            assert rows.reads[12] == len(merged + pure)
            assert rows.reads.total() <= 2 + len(merged + pure)
            assert values(pure) == [pure_value] * len(pure)
            assert values(heads) + values(outside) == kept

    def test_insert_reads_no_full_length_row_without_a_stub_under_it(self):
        # A 4-bit prefix has 2**8 candidate keys at the 12-bit root; with more
        # than 256 full-length rows, some under the prefix, and stubs only
        # elsewhere, its insert reads no row of the full-length map.
        rng = random.Random(13)
        heads = set(rng.sample(range(1 << 12), 600))
        under = range(0b0110 << 8, 0b0111 << 8)
        stubs = [h for h in sorted(heads) if h not in under][:5]
        entries = [Prefix(format(h, "012b"), 12, f"t{h}") for h in heads]
        entries += [Prefix(format(h, "012b") + "0110", 16, f"s{h}") for h in stubs]
        tree = build_tree(PrefixDatabase(16, entries), StrideList.parse("12-4"))
        assert tree.root.stub_keys == [(1 << 12) | h for h in stubs]
        rows = counting_rows(tree.root)
        tree_insert(tree, *key_of("0110"), "new")
        assert rows.reads[12] == 0
        for k in (min(k for k in under if k in heads), min(k for k in under if k not in heads)):
            want = f"t{k}" if k in heads else "new"
            assert tree_search(tree, format(k, "012b") + "1111") == want

    def test_removing_a_row_reads_no_row_of_another_length(self):
        # A length leaves the index when its own rows run out: neither a
        # collected child's stub nor a deleted full-length terminal may make
        # the root read its rows of other lengths.
        rng = random.Random(7)
        heads = rng.sample(range(1 << 11), 1100)   # all below 1 << 11: none under 1*
        db = PrefixDatabase(16, [Prefix(format(h, "012b") + "0110", 16, f"h{h}") for h in heads])
        tree = build_tree(db, StrideList.parse("12-4"))
        assert tree.root.stub_count() == 1100
        for bits in ("1", "110", "11110"):
            tree_insert(tree, *key_of(bits), "short")
        free = format(next(h for h in range(1 << 11) if h not in heads), "012b")
        tree_insert(tree, *key_of(free), "full")
        rows = counting_rows(tree.root, WatchedRows)
        tree_delete(tree, *key_of(format(heads[0], "012b") + "0110"))
        assert len(tree.levels[1]) == 1099
        tree_delete(tree, *key_of(free))
        assert tree.root.entry_count == 1099 + 3
        assert sum(n for length, n in rows.reads.items() if length != 12) == 0

    def test_lookup_probes_once_per_distinct_length(self):
        # one search reads each table on its path at most once per length
        # the table holds, and no table off the path; a hybridized root is
        # read through its expansion exactly once, then at most one row
        for hybrid in (False, True):
            rng = random.Random(5)
            db = random_database(rng, 12, max_entries=300)
            tree = build_tree(db, StrideList.parse("6-6"))
            if hybrid:
                hybridize(tree, HybridizationConfig(factor=64), 9)
            for p in db.entries[::2]:
                tree_delete(tree, *key_of(p.bits))
            expansion = None
            if hybrid:
                assert tree.root.kind == SRAM and isinstance(tree.root, ExpandedRoot)
                assert len(tree.root.lengths) >= 3
                expansion = tree.root.expansion = CountingDict(tree.root.expansion)
            paths = [[] for _ in range(1 << 12)]
            for v, path in enumerate(paths):
                reference_walk(tree, v, path)
            assert any(len(path) > 1 for path in paths)
            tables = tree.all_tables()
            held = {table: {length for length, _, _ in table.rows()} for table in tables}
            rows = {table: counting_rows(table) for table in tables}
            for v, path in enumerate(paths):
                for counted in rows.values():
                    counted.reads.clear()
                if expansion is not None:
                    expansion.reads.clear()
                tree.root.lookup(v, 12)
                for table, counted in rows.items():
                    if table in path:
                        assert set(counted.reads) <= held[table], (v, table)
                        assert max(counted.reads.values(), default=0) <= 1, (v, table)
                    else:
                        assert not counted.reads, (v, table)
                if expansion is not None:
                    assert expansion.reads.total() == 1, v
                    assert rows[tree.root].reads.total() <= 1, v


class TestRootShape:
    def test_only_an_sram_root_is_an_expanded_root(self):
        # after `hybridize`, the SRAM root is an `ExpandedRoot` in `tree.root`
        # and `tree.levels[0]` alike; every other table, SRAM ones included,
        # is a plain 8-slot `TreeTable` with no `expansion`
        db = parse_file(DATA_DIR / "synthetic-ipv4-500.txt", 32)
        tree = build_tree(db, StrideList.parse("16-4-4-8"))
        hybridize(tree, HybridizationConfig(factor=3), 14)
        assert type(tree.root) is ExpandedRoot and tree.root.kind == SRAM
        assert list(tree.levels[0]) == [tree.root]
        others = tree.all_tables()[1:]
        assert {t.kind for t in others} == {SRAM, TCAM}
        assert all(type(t) is TreeTable and not hasattr(t, "expansion") for t in others)
        assert len(TreeTable.__slots__) == 8
        if sys.implementation.name == "cpython":   # 104 bytes with a ninth slot
            assert {sys.getsizeof(t) for t in others} == {96}
        # a row gaining or losing its child changes no slot
        assert "add_stub" not in ExpandedRoot.__dict__
        assert "clear_child" not in ExpandedRoot.__dict__

    def test_a_terminal_gaining_and_losing_a_child_keeps_every_slot(self):
        # 0000/4 is a full-length terminal of the SRAM root: inserting
        # 00001111/8 gives it a child and deleting that collects it again,
        # and its slot holds its own key throughout
        entries = [Prefix("", 0, "z"), Prefix("01", 2, "a"), Prefix("0000", 4, "t"),
                   Prefix("11110000", 8, "c")]
        tree = build_tree(PrefixDatabase(8, entries), StrideList.parse("4-4"))
        hybridize(tree, HybridizationConfig(factor=64), 9)
        root = tree.root
        assert isinstance(root, ExpandedRoot)
        start = dict(root.expansion)
        assert start[0b10000] == 0b10000
        tree_insert(tree, *key_of("00001111"), "d")
        assert not isinstance(root.by_key[0b10000], str)
        assert root.expansion == start
        check_root(tree, range(1 << 8))
        tree_delete(tree, *key_of("00001111"))
        assert root.by_key[0b10000] == "t"
        assert root.expansion == start
        check_root(tree, range(1 << 8))

    @pytest.mark.parametrize("factor, kind", [(None, TCAM), (3, TCAM), (8, SRAM)])
    def test_a_tcam_root_stays_a_tree_table(self, factor, kind):
        # the /0 expands to 16 slots of the 4-bit root, which holds 2 rows:
        # factor 3 refuses the conversion, factor 8 allows it
        entries = [Prefix("", 0, "z"), Prefix("0101", 4, "a"), Prefix("01011111", 8, "c")]
        tree = build_tree(PrefixDatabase(8, entries), StrideList.parse("4-4"))
        if factor is not None:
            hybridize(tree, HybridizationConfig(factor=factor), 9)
        assert tree.root.kind == kind
        assert type(tree.root) is (ExpandedRoot if kind == SRAM else TreeTable)
        assert hasattr(tree.root, "expansion") == (kind == SRAM)
        assert list(tree.levels[0]) == [tree.root]


def walk_database(rng, width, strides):
    """`edge_case_database` over the strides' coverage, at address width
    `width`, plus a sibling and a longer prefix under each of a few of its
    entries."""
    coverage = strides.coverage
    entries = {p.bits: p for p in edge_case_database(rng, coverage, strides).entries}
    for p in [entries[bits] for bits in rng.sample(sorted(entries), min(6, len(entries)))]:
        extra = []
        if p.length:
            extra.append(p.bits[:-1] + "10"[int(p.bits[-1])])
        if p.length < coverage:
            tail = rng.randint(1, coverage - p.length)
            extra.append(p.bits + format(rng.getrandbits(tail), f"0{tail}b"))
        for bits in extra:
            entries.setdefault(bits, Prefix(bits, len(bits), f"y{rng.randint(0, 9)}"))
    return PrefixDatabase(width, list(entries.values()))


class TestLookupWalk:
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_walk_equals_the_per_level_reference_under_updates(self, seed, short, hybrid):
        # `short` leaves address bits below the strides' coverage unread;
        # `hybrid` makes the root SRAM, searched through its expansion, and
        # checks the expansion after every update
        rng = random.Random(seed)
        width = rng.randint(1, 12)
        coverage = rng.randint(1, width) if short else width
        strides = random_strides(rng, coverage)
        db = walk_database(rng, width, strides)
        tree = build_tree(db, strides)
        assert tree.root.by_key.get(1) is not None   # the /0 entry
        if hybrid:
            hybridize(tree, HybridizationConfig(factor=1 << width), 9)
            assert isinstance(tree.root, ExpandedRoot)
        check_root(tree, range(1 << width))
        sampled = range(1 << width) if width <= 8 else rng.sample(range(1 << width), 256)
        live = {p.bits for p in db.entries}
        for _ in range(30):
            if live and rng.random() < 0.5:
                bits = rng.choice(sorted(live))
                live.remove(bits)
                tree_delete(tree, *key_of(bits))
            else:
                length = rng.randint(0, coverage)
                bits = format(rng.getrandbits(length), f"0{length}b") if length else ""
                if bits in live:
                    continue
                live.add(bits)
                tree_insert(tree, *key_of(bits), f"u{rng.randint(0, 9)}")
            if hybrid:
                check_root(tree, sampled)
        check_root(tree, range(1 << width))


class TestRowKinds:
    def test_terminal_that_gains_and_loses_a_child_is_its_next_hop_again(self):
        db = PrefixDatabase(6, [Prefix("1", 1, "outer"), Prefix("101", 3, "T")])
        tree = build_tree(db, StrideList.parse("3-3"))
        root = tree.root
        hop = row_at(root, 3, 0b101)
        assert hop.__class__ is str and hop == "T"
        tree_insert(tree, *key_of("10111"), "deep")
        (child,) = tree.levels[1]
        assert row_at(root, 3, 0b101) is child
        assert (child.bmp_value, child.bmp_local_len) == ("T", 3)
        assert root.stub_keys == [0b1101]
        tree_delete(tree, *key_of("10111"))
        assert row_at(root, 3, 0b101) is hop
        assert list(root.stub_keys) == [] and not tree.levels[1]

    def test_local_lpm_is_asked_below_the_stride(self, monkeypatch):
        # the bulk build, inserts, deletes and SRAM row counts ask only
        # lengths whose rows are all childless terminals
        asked = []
        local_lpm = TreeTable.local_lpm

        def recorded(table, tagged, length):
            asked.append((length, table.stride_width))
            return local_lpm(table, tagged, length)

        monkeypatch.setattr(TreeTable, "local_lpm", recorded)
        for seed in range(40):
            rng = random.Random(seed)
            width = rng.randint(2, 10)
            db = random_database(rng, width, max_entries=40)
            tree = build_tree(db, random_strides(rng, width))
            if seed % 2:
                hybridize(tree, HybridizationConfig(factor=rng.choice([1.5, 3, 8])), 9)
            live = {p.bits for p in db.entries}
            for _ in range(20):
                length = rng.randint(0, width)
                bits = format(rng.getrandbits(length), f"0{length}b") if length else ""
                if bits in live:
                    live.remove(bits)
                    tree_delete(tree, *key_of(bits))
                else:
                    live.add(bits)
                    tree_insert(tree, *key_of(bits), "u")
            for t in tree.all_tables():
                sram_rows_for_table(t)
        assert asked and all(length < stride for length, stride in asked)


def edit_state(tree):
    """What a failed delete must leave as it was: the nested rows, each
    level's tables in order, and each table's stub keys, lengths and
    counts, copied."""
    return (
        tree.structure(),
        [list(level) for level in tree.levels],
        [
            (list(t.stub_keys), t.lengths, None if t.counts is None else list(t.counts))
            for t in tree.all_tables()
        ],
    )


def where_a_delete_stops(tree, key: int, length: int) -> Optional[str]:
    """Where the descent for the `length`-bit prefix `key` finds it absent:
    at a row above its level that is "missing above" or a childless
    "terminal above", or at its own row, "missing at" or a pure "stub at"
    its level.  None when the prefix is in the tree."""
    table = tree.root
    while length > table.stride_width:
        s = table.stride_width
        length -= s
        row = table.by_key.get((key >> length) | (1 << s))
        if row is None:
            return "missing above"
        if row.__class__ is str:
            return "terminal above"
        key &= (1 << length) - 1
        table = row
    row = table.by_key.get(key | (1 << length))
    if row is None:
        return "missing at"
    return None if is_terminal(row, length) else "stub at"


def check_failed_delete(tree, key: int, length: int):
    before = edit_state(tree)
    message = f"prefix {bits_of(key, length)}/{length} not in tree"
    with pytest.raises(NotFound, match=re.escape(message)):
        tree_delete(tree, key, length)
    assert edit_state(tree) == before, (key, length)


class TestDescent:
    """`descend` is the one loop that follows a prefix down the strides for
    the bulk build, inserts and deletes; for a delete it must make nothing."""

    @pytest.mark.parametrize("bits, stop", [
        ("0111", "missing above"), ("1011", "terminal above"),
        ("1101", "missing at"), ("1", "missing at"), ("11", "stub at"),
    ])
    def test_a_failed_delete_stops_where_the_prefix_is_missed(self, bits, stop):
        # a root terminal "0*", a childless terminal "10", and a pure stub "11"
        # whose child holds "00"
        db = PrefixDatabase(4, [Prefix("0", 1, "a"), Prefix("10", 2, "b"), Prefix("1100", 4, "c")])
        tree = build_tree(db, StrideList.parse("2-2"))
        assert where_a_delete_stops(tree, *key_of(bits)) == stop
        check_failed_delete(tree, *key_of(bits))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_a_failed_delete_changes_nothing(self, seed):
        # one absent prefix for each place the descent can stop on this tree
        rng = random.Random(seed)
        width = rng.randint(1, 12)
        strides = random_strides(rng, width)
        tree = build_tree(walk_database(rng, width, strides), strides)
        absent = {}
        for length in range(width + 1):
            for key in range(1 << length):
                stop = where_a_delete_stops(tree, key, length)
                if stop is not None:
                    absent.setdefault(stop, []).append((key, length))
        for stop in sorted(absent):
            check_failed_delete(tree, *rng.choice(absent[stop]))

    def test_each_insert_and_delete_descends_once(self, monkeypatch):
        db = parse_file(DATA_DIR / "synthetic-ipv4-500.txt", 32)
        tree = build_tree(db, StrideList.parse("16-4-4-8"))
        calls = []
        descend = tiler.descend
        monkeypatch.setattr(tiler, "descend", lambda *args: calls.append(args) or descend(*args))
        rng = random.Random(11)
        live = {p.bits for p in db.entries}
        for _ in range(200):
            length = rng.randint(0, 32)
            bits = format(rng.getrandbits(length), f"0{length}b") if length else ""
            if rng.random() < 0.5:
                if rng.random() < 0.5:
                    bits = rng.choice(sorted(live))
                if bits in live:
                    tree_delete(tree, *key_of(bits))
                    live.remove(bits)
                else:
                    with pytest.raises(NotFound):
                        tree_delete(tree, *key_of(bits))
            elif bits in live:
                with pytest.raises(DuplicatePrefix):
                    tree_insert(tree, *key_of(bits), "dup")
            else:
                tree_insert(tree, *key_of(bits), "new")
                live.add(bits)
            assert len(calls) == 1, (bits, calls)
            calls.clear()


class TestLengths:
    def test_a_length_leaves_with_its_last_row(self):
        # a multi-length root: removing the only row of its longest length
        # drops that length, and the expansion target falls to the next one
        db = PrefixDatabase(6, [Prefix(b, len(b), "v") for b in ("0", "10", "11", "101")])
        tree = build_tree(db, StrideList.parse("3-3"))
        root = tree.root
        assert root.lengths == (3, 2, 1) and root.counts == [1, 2, 1]
        assert root.max_local_length() == 3
        tree_delete(tree, *key_of("101"))
        assert root.lengths == (2, 1) and root.counts == [2, 1]
        assert root.max_local_length() == 2
        tree_delete(tree, *key_of("0"))
        assert root.lengths == (2,) and root.counts is None
        tree_delete(tree, *key_of("10"))
        tree_delete(tree, *key_of("11"))
        assert root.lengths == () and root.max_local_length() == 0

    def test_tables_with_equal_lengths_share_one_tuple(self):
        db = PrefixDatabase(
            6, [Prefix(b, len(b), "v") for b in ("000", "0000", "00011", "111", "1110", "11100")]
        )
        tree = build_tree(db, StrideList.parse("3-3"))
        a, b = tree.levels[1]
        assert a.lengths == b.lengths == (2, 1)
        assert a.lengths is b.lengths
        assert a.counts == b.counts == [1, 1] and a.counts is not b.counts


class TestBlocksForTable:
    def test_wide_deep_table(self):
        assert blocks_for_table(64, 150000, GrainSpec(44, 512)) == 2 * 293

    def test_exact_fit(self):
        assert blocks_for_table(44, 512, GrainSpec(44, 512)) == 1

    def test_ceiling_arithmetic(self):
        assert blocks_for_table(48, 600, GrainSpec(44, 512)) == 4

    def test_zero_depth_is_free(self):
        assert blocks_for_table(44, 0, GrainSpec(44, 512)) == 0

    def test_single_stride_tree_reproduces_baseline(self):
        from tcamtree import single_tcam_baseline

        db = table1_db()
        grain = GrainSpec(44, 512)
        tree = build_tree(db, StrideList.parse("6"))
        cost = blocks_for_table(tree.root.stride_width, tree.root.entry_count, grain)
        assert cost == single_tcam_baseline(len(db), 6, grain)[0]
