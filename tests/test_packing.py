import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcamtree import (
    GrainSpec,
    HybridizationConfig,
    SramPageSpec,
    StrideList,
    build_tree,
    hybridize,
    oracle_lookup,
    parse_file,
    resource_totals,
    tag_and_pack,
)
from tcamtree import Prefix, PrefixDatabase, packing
from tcamtree.errors import TagOverflow
from tcamtree.packing import VALUE_BITS, sram_rows_for_table
from tcamtree.tiler import SRAM, TCAM, TcamTree, TreeTable, tree_delete, tree_insert

from tests.helpers import (
    DATA_DIR,
    all_addresses,
    check_expansion_counts,
    covered_ranges,
    key_of,
    pre_tag_blocks,
    random_database,
    random_strides,
    reference_sram_rows,
    row_at,
    stubs,
    table1_db,
    terminal_prefixes,
    tree_search,
)


def synthetic_level(sizes, stride, level_index=1):
    """A tree with fabricated tables of the given entry counts at one level."""
    tree = TcamTree(StrideList((3, stride)), address_width=3 + stride)
    for n in sizes:
        t = tree.new_table(1)
        for i in range(n):
            t.add_row(stride, (1 << stride) | i, f"v{i}", tree.length_sets)
    return tree, tree.levels[1]


class TestHybridize:
    def test_child_table_converts_at_factor_3(self):
        tree = build_tree(table1_db(), StrideList.parse("3-3"))
        (child,) = tree.levels[1]
        assert child.max_local_length() == 3
        rows = hybridize(tree, HybridizationConfig(factor=3), 9)
        assert child.kind == SRAM
        # child expands to 8 exact keys; the root (4 keys incl. the stub) converts too
        assert rows == [4, 8]

    def test_each_candidate_is_counted_once_from_its_maps(self, monkeypatch):
        # one count per table past the width gate, at most one probe per
        # terminal row, and no table's keys listed in sorted order
        db = parse_file(DATA_DIR / "synthetic-ipv4-500.txt", 32)
        tree = build_tree(db, StrideList.parse("16-4-4-8"))
        cfg, tag = HybridizationConfig(factor=3), 14
        width = cfg.sram_spec.page_width
        candidates = [
            t for t in tree.all_tables() if tag + t.max_local_length() + VALUE_BITS <= width
        ]
        terminals = sum(len(terminal_prefixes(t)) for t in candidates)
        counted, probes = [], []
        count, local_lpm = packing.sram_rows_for_table, TreeTable.local_lpm

        def no_rows(table):
            raise AssertionError("hybridize sorted a table's keys")

        monkeypatch.setattr(packing, "sram_rows_for_table", lambda t: counted.append(t) or count(t))
        monkeypatch.setattr(
            TreeTable, "local_lpm", lambda t, key, length: probes.append(t) or local_lpm(t, key, length)
        )
        monkeypatch.setattr(TreeTable, "rows", no_rows)
        hybridize(tree, cfg, tag)
        assert any(t.kind == SRAM for t in tree.all_tables())
        assert len(counted) == len(candidates) and set(counted) == set(candidates)
        assert 0 < len(probes) <= terminals

    def test_factor_1_5_keeps_child_ternary(self):
        tree = build_tree(table1_db(), StrideList.parse("3-3"))
        (child,) = tree.levels[1]
        rows = hybridize(tree, HybridizationConfig(factor=1.5), 9)
        assert child.kind == TCAM
        assert sum(rows) == 0

    def test_pointer_only_table_stays_tcam(self):
        from tcamtree import Prefix, PrefixDatabase

        db = PrefixDatabase(4, [Prefix("0011", 4, "X")])
        tree = build_tree(db, StrideList.parse("2-2"))
        hybridize(tree, HybridizationConfig(factor=8), 9)
        assert tree.root.kind == TCAM  # only a stub lives in the root
        (child,) = tree.levels[1]
        assert child.kind == SRAM

    def test_page_width_feasibility_gate(self):
        tree = build_tree(table1_db(), StrideList.parse("3-3"))
        narrow = HybridizationConfig(factor=8, sram_spec=SramPageSpec(page_width=20, page_depth=1024))
        rows = hybridize(tree, narrow, 10)
        # 10 tag + 3 key + 16 value > 20: nothing converts
        assert sum(rows) == 0 and all(t.kind == TCAM for t in tree.all_tables())

    def test_parent_rows_expose_child_kind(self):
        tree = build_tree(table1_db(), StrideList.parse("3-3"))
        hybridize(tree, HybridizationConfig(factor=3), 9)
        child = row_at(tree.root, 3, 0b100)
        assert child.kind == SRAM

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.5, 3, 8]))
    @settings(max_examples=25, deadline=None)
    def test_hybridization_preserves_lookups_and_blocks(self, seed, factor):
        rng = random.Random(seed)
        width = rng.randint(3, 8)
        db = random_database(rng, width, max_entries=40)
        strides = random_strides(rng, width)
        grain = GrainSpec(8, 4)
        plain = build_tree(db, strides)
        plain_blocks = pre_tag_blocks(plain, grain)
        hybrid = build_tree(db, strides)
        rows = hybridize(hybrid, HybridizationConfig(factor=factor), 9)
        assert pre_tag_blocks(hybrid, grain) <= plain_blocks
        assert rows == [
            sum(sram_rows_for_table(t)[1] for t in tables if t.kind == SRAM)
            for tables in hybrid.levels
        ]
        check_expansion_counts(hybrid)
        for address in all_addresses(width):
            assert tree_search(hybrid, address) == oracle_lookup(db, address)


def check_sram_counts(tree):
    """Every table's one-pass count equals the merged ranges of its
    terminals and the stubs bisected into them; a table with no terminal
    expands to nothing and keeps each stub as a row of its own."""
    for t in tree.all_tables():
        terminals = terminal_prefixes(t)
        if terminals:
            ranges = covered_ranges(terminals, t.max_local_length())
            want = (sum(hi - lo for lo, hi in ranges), reference_sram_rows(t))
        else:
            want = (0, sum(1 for _, e in stubs(t) if e.bmp_local_len == -1))
        assert sram_rows_for_table(t) == want


class TestSramRows:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_one_pass_equals_ranges_through_updates(self, seed):
        # short prefixes nest terminals and a /0 covers everything, while
        # long ones leave stubs that no terminal covers
        rng = random.Random(seed)
        width = rng.randint(1, 10)
        db = random_database(rng, width, max_entries=40)
        if rng.random() < 0.5 and all(p.length for p in db.entries):
            db = PrefixDatabase(width, [*db.entries, Prefix("", 0, "root")])
        tree = build_tree(db, random_strides(rng, width))
        check_sram_counts(tree)
        live = {p.bits for p in db.entries}
        for _ in range(30):
            if live and rng.random() < 0.4:
                bits = rng.choice(sorted(live))
                tree_delete(tree, *key_of(bits))
                live.remove(bits)
            else:
                length = rng.randint(0, width)
                bits = format(rng.getrandbits(length), f"0{length}b") if length else ""
                if bits in live:
                    continue
                tree_insert(tree, *key_of(bits), f"h{rng.randint(0, 30)}")
                live.add(bits)
            check_sram_counts(tree)

    def test_outermost_terminals_and_uncovered_stubs(self):
        # in a 3-bit root, 0/1 covers 01/2 and 001/3, and 11/2 covers the
        # stub 110: the expansion is 4 + 2 rows, and the stub 100 adds one
        db = PrefixDatabase(
            6, [Prefix(b, len(b), "v") for b in ("0", "01", "11", "001", "100101", "110101")]
        )
        tree = build_tree(db, StrideList.parse("3-3"))
        assert sram_rows_for_table(tree.root) == (6, 7)
        for child in tree.levels[1]:
            assert sram_rows_for_table(child) == (1, 1)


class TestTagAndPack:
    def test_five_tables_make_one_supertable(self):
        tree, _ = synthetic_level([300, 300, 300, 300, 100], stride=29)
        supers = [st for st in tag_and_pack(tree, GrainSpec(44, 512), 9) if st.level_index == 1]
        assert len(supers) == 1
        (sup,) = supers
        assert sup.effective_width == 38
        assert sup.total_entries == 1300
        assert sup.block_count == 3

    def test_exact_fit_single_block(self):
        tree, _ = synthetic_level([512], stride=35)
        (sup,) = [st for st in tag_and_pack(tree, GrainSpec(44, 512), 9) if st.level_index == 1]
        assert sup.block_count == 1

    def test_group_closes_at_tag_capacity(self):
        tree, _ = synthetic_level([1] * 5, stride=4)
        supers = [st for st in tag_and_pack(tree, GrainSpec(8, 16), 2) if st.level_index == 1]
        assert [len(s.members) for s in supers] == [4, 1]
        assert all(len(sup.members) <= 2 ** sup.tag_bits for sup in supers)

    def test_more_members_than_tags_raise(self):
        _, level = synthetic_level([1] * 5, stride=4)
        tables = list(level)
        assert len(packing.SuperTable(1, 2, tables[:4], GrainSpec(8, 16)).members) == 4
        with pytest.raises(TagOverflow):
            packing.SuperTable(1, 2, tables, GrainSpec(8, 16))

    def test_root_is_never_tagged(self):
        tree = build_tree(table1_db(), StrideList.parse("3-3"))
        supers = tag_and_pack(tree, GrainSpec(44, 512), 9)
        root_super = [s for s in supers if s.level_index == 0]
        assert len(root_super) == 1 and root_super[0].tag_bits == 0

    def test_sram_tables_excluded(self):
        tree = build_tree(table1_db(), StrideList.parse("3-3"))
        hybridize(tree, HybridizationConfig(factor=8), 9)
        assert tag_and_pack(tree, GrainSpec(44, 512), 9) == []

    def test_members_recoverable_by_tag(self):
        tree, tables = synthetic_level([7, 3, 5], stride=6)
        (sup,) = [st for st in tag_and_pack(tree, GrainSpec(16, 8), 4) if st.level_index == 1]
        assert set(sup.members) == set(tables)
        # largest-first grouping
        assert [t.entry_count for t in sup.members] == [7, 5, 3]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_tagging_never_increases_blocks(self, seed):
        rng = random.Random(seed)
        width = rng.randint(4, 10)
        db = random_database(rng, width, max_entries=120)
        strides = random_strides(rng, width)
        grain = GrainSpec(rng.choice([4, 8, 12]), rng.choice([4, 8, 16]))
        tree = build_tree(db, strides)
        supers = tag_and_pack(tree, grain, grain.default_tag_bits)
        report = resource_totals(supers, 0, grain, SramPageSpec(), baseline_blocks=1)
        assert report.tcam_blocks_post_tag <= report.tcam_blocks_pre_tag
        assert report.tcam_blocks_pre_tag == pre_tag_blocks(tree, grain)
        # waste stays under one block row per super-table at every level
        by_level = {}
        for sup in supers:
            by_level.setdefault(sup.level_index, []).append(sup)
        for level, sups in by_level.items():
            assert sum(s.empty_entries for s in sups) < len(sups) * grain.depth


class TestResourceTotals:
    def test_zero_sram_entries_need_zero_pages(self):
        tree = build_tree(table1_db(), StrideList.parse("3-3"))
        supers = tag_and_pack(tree, GrainSpec(44, 512), 9)
        report = resource_totals(supers, 0, GrainSpec(44, 512), SramPageSpec(), 2)
        assert report.sram_pages == 0

    def test_improvement_is_exact_ratio(self):
        tree, _ = synthetic_level([512], stride=35)
        supers = tag_and_pack(tree, GrainSpec(44, 512), 9)
        supers = [s for s in supers if s.level_index == 1]
        report = resource_totals(supers, 0, GrainSpec(44, 512), SramPageSpec(), 2)
        assert report.improvement_factor == Fraction(2, 1)
        assert report.tcam_bits == 44 * 512

    def test_infinite_improvement_sentinel(self):
        report = resource_totals([], 100, GrainSpec(), SramPageSpec(), 5)
        assert report.improvement_factor is None
        assert report.sram_pages == 1

    def test_page_rounding(self):
        report = resource_totals([], 1025, GrainSpec(), SramPageSpec(128, 1024), 0)
        assert report.sram_pages == 2
