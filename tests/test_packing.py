import random
from fractions import Fraction

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
from tcamtree import packing, trie
from tcamtree.packing import sram_rows_for_table
from tcamtree.tiler import SRAM, TCAM, TcamTree, TableEntry

from tests.helpers import (
    DATA_DIR,
    all_addresses,
    pre_tag_blocks,
    random_database,
    random_strides,
    table1_db,
    tree_search,
)


def synthetic_level(sizes, stride, level_index=1):
    """A tree with fabricated tables of the given entry counts at one level."""
    tree = TcamTree(StrideList((3, stride)), address_width=3 + stride)
    for n in sizes:
        t = tree.new_table(1)
        for i in range(n):
            t.rows_for(stride)[i] = TableEntry(f"v{i}", stride, None)
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

    def test_each_candidate_is_expanded_once(self, monkeypatch):
        calls = []
        covered_ranges = trie.covered_ranges

        def counted(entries, target):
            calls.append(target)
            return covered_ranges(entries, target)

        for module in (packing, trie):
            monkeypatch.setattr(module, "covered_ranges", counted)
        db = parse_file(DATA_DIR / "synthetic-ipv4-500.txt", 32)
        tree = build_tree(db, StrideList.parse("16-4-4-8"))
        hybridize(tree, HybridizationConfig(factor=3), 14)
        candidates = sum(1 for t in tree.all_tables() if t.terminal_prefixes())
        assert any(t.kind == SRAM for t in tree.all_tables())
        assert 0 < len(calls) <= candidates

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
        stub = tree.root.get(3, 0b100)
        assert stub.child.kind == SRAM

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
            sum(sram_rows_for_table(t) for t in tables if t.kind == SRAM)
            for tables in hybrid.levels
        ]
        for address in all_addresses(width):
            assert tree_search(hybrid, address) == oracle_lookup(db, address)


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
