import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tcamtree import (
    GrainSpec,
    HybridizationConfig,
    Prefix,
    PrefixDatabase,
    StrideList,
    map_to_pipeline,
    oracle_lookup,
)
from tcamtree.errors import (
    CapacityExceeded,
    DuplicatePrefix,
    LengthOutOfRange,
    NotFound,
    OverflowFull,
    StageDepthExceeded,
)
from tcamtree.pipeline import OverflowBuffer, PipelinePlan, PipelineProfile, PipelineState, Span
from tcamtree.prefixdb import oracle_lookup_value
from tcamtree.tiler import TCAM, TcamTree, TreeTable

from tests.helpers import (
    all_addresses,
    full_space_mismatches,
    is_terminal,
    key_of,
    random_database,
    random_strides,
    recounted_lengths,
    recounted_stub_keys,
    row_at,
    scan_overflow_lpm,
    stubs,
    table1_db,
    ternary_rows,
    untag,
)


def synthetic_supertables(level_blocks):
    """Fabricated one-table super-tables with fixed block demands per level."""
    from tcamtree.packing import SuperTable

    grain = GrainSpec(8, 4)
    strides = StrideList(tuple(8 for _ in level_blocks))
    tree = TcamTree(strides, address_width=8 * len(level_blocks))
    supers = []
    prev_tables = []
    for level, block_counts in enumerate(level_blocks):
        tables_here = []
        for blocks in block_counts:
            table = tree.new_table(level) if level else tree.root
            for i in range(blocks * grain.depth):
                if row_at(table, 8, i % 256) is None:
                    table.add_row(8, (1 << 8) | i % 256, f"v{i}", tree.length_sets)
            tables_here.append(table)
            supers.append(SuperTable(level, 0, [table], grain))
        if prev_tables:
            # chain a dependency: first table of the previous level points here
            parent = prev_tables[0]
            for t in tables_here:
                key = parent.entry_count % 256
                parent.add_stub((1 << 8) | key, t, True, tree.length_sets)
        prev_tables = tables_here
    return supers


class TestMapToPipeline:
    def test_table1_two_stage_placement(self):
        db = table1_db()
        profile = PipelineProfile(stage_count=2, tcam_blocks_per_stage=4, sram_pages_per_stage=4)
        state = PipelineState.planned(db, StrideList.parse("3-3"), profile=profile)
        spans0 = state.plan.placements[0]
        spans1 = state.plan.placements[1]
        assert [s.stage for s in spans0] == [1]
        assert [s.stage for s in spans1] == [2]

    def test_one_stage_profile_cannot_host_two_levels(self):
        db = table1_db()
        profile = PipelineProfile(stage_count=1, tcam_blocks_per_stage=8, sram_pages_per_stage=8)
        with pytest.raises(StageDepthExceeded):
            PipelineState.planned(db, StrideList.parse("3-3"), profile=profile)

    def test_spill_pushes_next_level_later(self):
        supers = synthetic_supertables([[1], [30], [1]])
        profile = PipelineProfile(stage_count=8, tcam_blocks_per_stage=24, sram_pages_per_stage=8)
        plan = map_to_pipeline(supers, {}, profile)
        level2 = [s for sup, s in zip(supers, plan.placements) if sup.level_index == 1]
        stages = sorted(span.stage for spans in level2 for span in spans)
        assert stages == [2, 3]
        level3 = [s for sup, s in zip(supers, plan.placements) if sup.level_index == 2]
        assert min(span.stage for spans in level3 for span in spans) == 4

    def test_capacity_exhaustion_reports_shortfall(self):
        supers = synthetic_supertables([[1], [60]])  # 60 blocks of demand at level 2
        profile = PipelineProfile(stage_count=4, tcam_blocks_per_stage=8, sram_pages_per_stage=8)
        with pytest.raises(CapacityExceeded) as err:
            map_to_pipeline(supers, {}, profile)
        assert err.value.blocks_short > 0

    def test_sram_exhaustion_reports_page_shortfall(self):
        # level 1's window is stages 2..4, with 8 pages each
        supers = synthetic_supertables([[1], [1]])
        profile = PipelineProfile(stage_count=4, tcam_blocks_per_stage=8, sram_pages_per_stage=8)
        with pytest.raises(CapacityExceeded) as err:
            map_to_pipeline(supers, {1: 40}, profile)
        assert err.value.pages_short == 16 and err.value.blocks_short == 0
        assert str(err.value) == "cannot place 40 SRAM pages for level 1; 24 pages free in stages 2..4"

    def test_dependency_invariant_holds_on_random_plans(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(20):
            width = rng.randint(4, 10)
            db = random_database(rng, width, max_entries=60)
            strides = random_strides(rng, width)
            profile = PipelineProfile(stage_count=12, tcam_blocks_per_stage=40, sram_pages_per_stage=40)
            state = PipelineState.planned(
                db, strides, grain=GrainSpec(8, 8), profile=profile
            )
            st_of = {t: i for i, st_ in enumerate(state.supertables) for t in st_.members}
            edges = {
                (i, st_of[child])
                for i, st_ in enumerate(state.supertables)
                for t in st_.members
                for _, child in stubs(t)
                if child in st_of
            }
            for parent, child in edges:
                pmax = max(s.stage for s in state.plan.placements[parent])
                cmin = min(s.stage for s in state.plan.placements[child])
                assert pmax < cmin
            checked += len(edges)
        assert checked

    def test_deterministic_given_profile_and_order(self):
        db = table1_db()
        profile = PipelineProfile(stage_count=4, tcam_blocks_per_stage=4, sram_pages_per_stage=4)
        a = PipelineState.planned(db, StrideList.parse("3-3"), profile=profile)
        b = PipelineState.planned(db, StrideList.parse("3-3"), profile=profile)
        assert a.plan.placements == b.plan.placements

    def test_place_stops_a_spill_at_a_full_stage(self):
        # stage 1 has one block free and stage 2 none, so a run from stage 1
        # stops at stage 2, and the next run that fits starts at stage 3
        plan = PipelinePlan(PipelineProfile(3, 2, 0))
        plan._tcam_next[1:] = [1, 2, 0]
        assert plan.place(0, 2, sram=False) == [Span(3, 0, 2)]
        assert plan.place(0, 2, sram=False) is None
        assert plan._tcam_next[1:] == [1, 2, 2]
        assert plan.level_stages == {0: (3, 3)}

    def test_entries_all_beyond_coverage_place_no_block(self, monkeypatch):
        # every entry goes to the overflow buffer, so the root super-table
        # has no block and level 0 asks for no stage space
        place = PipelinePlan.place
        calls = []

        def counted(plan, *args, **kwargs):
            calls.append(args)
            return place(plan, *args, **kwargs)

        monkeypatch.setattr(PipelinePlan, "place", counted)
        db = PrefixDatabase(6, [Prefix("1010", 4, "A"), Prefix("01", 2, "B")])
        profile = PipelineProfile(stage_count=2, tcam_blocks_per_stage=4, sram_pages_per_stage=4)
        state = PipelineState.planned(db, StrideList.parse("1"), profile=profile)
        assert calls == []
        assert len(state.overflow) == 2 and state.tree.root.entry_count == 0
        assert [st.allocated_blocks for st in state.supertables] == [0]
        assert state.plan.placements == [[]] and state.plan.stages_used() == 0
        for address in all_addresses(6):
            assert state.search(address) == oracle_lookup(db, address)


class TestSearch:
    def test_table1_walk_examples(self):
        state = PipelineState.planned(table1_db(), StrideList.parse("3-3"))
        assert state.search("100110") == "E"
        assert state.search("101111") == "A"
        assert state.search("000000") == "default"

    def test_search_rejects_bad_width(self):
        state = PipelineState.planned(table1_db(), StrideList.parse("3-3"))
        with pytest.raises(ValueError):
            state.search("1001")

    def test_overflow_entry_wins_by_length(self):
        db = PrefixDatabase(8, [Prefix("10", 2, "short"), Prefix("101010", 6, "long")])
        state = PipelineState.planned(db, StrideList.parse("2-2"))
        assert len(state.overflow) == 1
        assert state.search("10101010") == "long"
        assert state.search("10111111") == "short"

    def test_overflow_wins_a_tie_with_the_tree(self):
        # the root's stub `10` inherits `1*`'s value, so addresses under it
        # that miss the child match the tree at length 1, as the overflow does
        db = PrefixDatabase(4, [Prefix("1", 1, "tree"), Prefix("1010", 4, "deep")])
        state = PipelineState.planned(db, StrideList.parse("2-2"))
        assert state.search("1011") == "tree"
        state.overflow.add(1, 0b1, "over")
        assert state.search("1011") == "over"
        assert state.search("1100") == "over"
        assert state.search("1010") == "deep"
        state.overflow.add(4, 0b1010, "over4")
        assert state.search("1010") == "over4"
        assert state.search("0000") == "default"

    def test_an_empty_overflow_buffer_is_not_searched(self, monkeypatch):
        state = PipelineState.planned(
            PrefixDatabase(8, [Prefix("10", 2, "a")]), StrideList.parse("2-2")
        )
        state.insert(Prefix("101010", 6, "Z"))
        assert state.search("10101011") == "Z"
        state.delete(Prefix("101010", 6, "Z"))
        assert state.overflow.entries == {}
        monkeypatch.setattr(OverflowBuffer, "lpm", None)   # a call would raise
        assert state.search("10101011") == "a"


class TestInsert:
    def test_insert_gains_priority_over_shorter(self):
        db = table1_db()
        state = PipelineState.planned(db, StrideList.parse("3-3"))
        state.insert(Prefix("101", 3, "G"))
        keys = [text for text, _ in ternary_rows(state.tree.root)]
        assert keys.index("101") < keys.index("1**")
        entries = [(p.bits, p.length, p.next_hop) for p in db.entries] + [("101", 3, "G")]
        count, samples = full_space_mismatches(entries, state)
        assert count == 0, samples

    def test_duplicate_insert_rejected(self):
        state = PipelineState.planned(table1_db(), StrideList.parse("3-3"))
        with pytest.raises(DuplicatePrefix):
            state.insert(Prefix("1000", 4, "Z"))

    def test_duplicate_overflow_insert_rejected(self):
        state = PipelineState.planned(table1_db(), StrideList.parse("3-2"))
        state.insert(Prefix("110011", 6, "Z"))
        held = dict(state.overflow.entries)
        with pytest.raises(DuplicatePrefix):
            state.insert(Prefix("110011", 6, "Y"))
        assert state.overflow.entries == held and held[(1 << 6) | 0b110011] == "Z"

    def test_prefix_longer_than_the_width_is_refused(self):
        # refused before it reaches the overflow buffer, so searches still answer
        db = table1_db()
        state = PipelineState.planned(db, StrideList.parse("3-3"))
        with pytest.raises(LengthOutOfRange):
            state.insert(Prefix("1" * 7, 7, "Z"))
        assert len(state.overflow) == 0
        for address in all_addresses(6):
            assert state.search(address) == oracle_lookup(db, address)

    def test_prefix_longer_than_the_width_is_refused_beside_buffered_entries(self):
        # with entries in the buffer, searches scan it: an entry longer than
        # the width would make that scan shift by a negative count
        db = table1_db()
        held = Prefix("110011", 6, "Z")
        state = PipelineState.planned(db, StrideList.parse("3-2"))
        state.insert(held)
        buffered = dict(state.overflow.entries)
        assert len(buffered) > 1
        with pytest.raises(LengthOutOfRange):
            state.insert(Prefix("1" * 7, 7, "Y"))
        assert state.overflow.entries == buffered
        final = PrefixDatabase(6, [*db.entries, held])
        for address in all_addresses(6):
            assert state.search(address) == oracle_lookup(final, address)

    def test_long_prefix_goes_to_overflow(self):
        state = PipelineState.planned(table1_db(), StrideList.parse("3-2"))
        state.insert(Prefix("110011", 6, "Z"))
        assert state.overflow.contains("110011")
        assert state.search("110011") == "Z"

    def test_full_supertable_grows_by_one_block(self):
        grain = GrainSpec(8, 4)
        db = PrefixDatabase(
            8, [Prefix(format(i, "06b"), 6, f"h{i}") for i in range(4)]
        )
        profile = PipelineProfile(stage_count=4, tcam_blocks_per_stage=4, sram_pages_per_stage=4)
        state = PipelineState.planned(
            db, StrideList.parse("6-2"), grain=grain, profile=profile
        )
        (root_super,) = [s for s in state.supertables if s.level_index == 0]
        assert root_super.total_entries == root_super.entry_capacity == 4
        before_blocks = root_super.allocated_blocks
        state.insert(Prefix("111111", 6, "new"))
        assert root_super.allocated_blocks == before_blocks + 1
        assert len(state.overflow) == 0
        entries = [(p.bits, p.length, p.next_hop) for p in db.entries] + [("111111", 6, "new")]
        count, samples = full_space_mismatches(entries, state)
        assert count == 0, samples

    def test_a_row_with_room_left_takes_no_block_row(self):
        db = PrefixDatabase(
            8, [Prefix(format(i, "06b"), 6, f"h{i}") for i in range(3)]
        )
        profile = PipelineProfile(stage_count=4, tcam_blocks_per_stage=4, sram_pages_per_stage=4)
        state = PipelineState.planned(
            db, StrideList.parse("6-2"), grain=GrainSpec(8, 4), profile=profile
        )
        (root_super,) = state.supertables
        assert root_super.empty_entries == 1
        blocks = list(state.plan._tcam_next)
        state.insert(Prefix("111111", 6, "new"))
        assert root_super.empty_entries == 0 and root_super.allocated_rows == 1
        assert state.plan._tcam_next == blocks and not state.plan.extra_spans
        assert state.search("11111100") == "new"

    def test_no_stage_room_spills_to_overflow(self):
        grain = GrainSpec(8, 4)
        db = PrefixDatabase(
            8, [Prefix(format(i, "06b"), 6, f"h{i}") for i in range(4)]
        )
        profile = PipelineProfile(stage_count=1, tcam_blocks_per_stage=1, sram_pages_per_stage=1)
        state = PipelineState.planned(
            db, StrideList.parse("6"), grain=grain, profile=profile
        )
        plan = state.plan
        before = dict(plan.level_stages), list(plan._tcam_next)
        state.insert(Prefix("111111", 6, "new"))
        assert state.overflow.contains("111111")
        assert state.search("11111111") == "new"
        # the root's first new block row found no room, so no row was placed
        assert (plan.level_stages, plan._tcam_next) == before

    def test_a_host_without_stage_room_spills_without_a_second_try(self, monkeypatch):
        # Level 1 is one packed super-table, full, with room for two more
        # members, alone in stage 2.  The new level-1 table's host asks for a
        # block row there and finds none; a super-table of its own would ask
        # for as many blocks in the same window, so it is not tried.
        db = PrefixDatabase(8, [
            Prefix(bits, 8, f"h{i}")
            for i, bits in enumerate(["00000000", "00000001", "00010000", "00010001"])
        ])
        profile = PipelineProfile(stage_count=2, tcam_blocks_per_stage=1, sram_pages_per_stage=1)
        state = PipelineState.planned(
            db, StrideList.parse("4-4"), grain=GrainSpec(8, 4), tag_bits=2, profile=profile
        )
        plan = state.plan
        (level1,) = [st_ for st_ in state.supertables if st_.level_index == 1]
        assert level1.tag_bits == 2 and len(level1.members) == 2
        assert level1.total_entries == level1.entry_capacity == 4

        def snapshot():
            return (
                list(state.supertables),
                [(list(st_.members), st_.total_entries, st_.allocated_rows)
                 for st_ in state.supertables],
                dict(state._st_of),
                {st_: list(spans) for st_, spans in plan.extra_spans.items()},
                list(plan._tcam_next),
                dict(plan.level_stages),
            )

        before = snapshot()
        calls = []
        place = PipelinePlan.place
        monkeypatch.setattr(
            PipelinePlan, "place",
            lambda self, level, amount, sram: calls.append((level, amount)) or place(
                self, level, amount, sram),
        )
        state.insert(Prefix("00101111", 8, "new"))
        assert calls == [(1, 1)]
        assert state.overflow.contains("00101111")
        assert snapshot() == before
        assert state.search("00101111") == "new" and state.search("00010001") == "h3"

    def test_spilled_insert_restores_stage_bounds(self):
        # The root grows a block row into stage 2, then the new level-1 table
        # finds no stage after it: the insert spills and leaves the plan as it was.
        db = PrefixDatabase(8, [Prefix("0000", 4, "a"), Prefix("0001", 4, "b")])
        profile = PipelineProfile(stage_count=2, tcam_blocks_per_stage=1, sram_pages_per_stage=1)
        state = PipelineState.planned(
            db, StrideList.parse("4-4"), grain=GrainSpec(8, 2), tag_bits=1, profile=profile
        )
        before = state.tree.structure()
        state.insert(Prefix("11110000", 8, "c"))
        assert state.overflow.contains("11110000")
        assert state.tree.structure() == before
        assert state.plan._tcam_next == [0, 1, 0]
        assert state.plan.level_stages == {0: (1, 1)}
        assert state.plan.stages_used() == 1
        assert state.plan.window(1) == (2, 2)
        assert [st.allocated_rows for st in state.supertables] == [1]
        # stage 2 is still free for a level-1 table that needs no new root row
        state.insert(Prefix("00001111", 8, "d"))
        assert not state.overflow.contains("00001111")
        assert state.plan.level_stages[1][0] == state.plan.stages_used() == 2
        assert state.search("11110000") == "c" and state.search("00001111") == "d"

    def test_join_takes_the_room_a_collected_table_left(self):
        # a 1-bit tag tells two members apart: the new table joins only because
        # the collected one left
        db = PrefixDatabase(4, [Prefix("0000", 4, "a"), Prefix("0100", 4, "b")])
        profile = PipelineProfile(stage_count=4, tcam_blocks_per_stage=4, sram_pages_per_stage=4)
        state = PipelineState.planned(
            db, StrideList.parse("2-2"), grain=GrainSpec(8, 2), tag_bits=1, profile=profile
        )
        state.delete(Prefix("0000", 4, "a"))
        state.insert(Prefix("1000", 4, "c"))
        (level1,) = [st_ for st_ in state.supertables if st_.level_index == 1]
        assert list(level1.members) == list(state.tree.levels[1]) and len(level1.members) == 2
        assert state.search("1000") == "c" and state.search("0100") == "b"

    def test_emptied_supertable_keeps_its_place_and_is_rejoined(self):
        db = PrefixDatabase(6, [
            Prefix("000", 3, "a"), Prefix("000111", 6, "b"), Prefix("111000", 6, "c"),
        ])
        state = PipelineState.planned(
            db, StrideList.parse("3-3"), grain=GrainSpec(8, 4), tag_bits=0,
            profile=PipelineProfile(),
        )
        planned = list(state.supertables)
        assert len(planned) == 3
        state.delete(Prefix("000111", 6, "b"))
        # supertables[i] stays paired with plan.placements[i]
        assert len(state.supertables) == 3
        assert all(a is b for a, b in zip(state.supertables, planned))
        assert not planned[1].members and planned[2].members
        for st_, spans in zip(state.supertables, state.plan.placements):
            assert sum(s.count for s in spans) == st_.allocated_blocks
        # a new level-1 table joins the emptied super-table and its blocks
        blocks = sum(state.plan._tcam_next)
        state.insert(Prefix("010101", 6, "d"))
        assert len(state.supertables) == 3 and len(planned[1].members) == 1
        assert sum(state.plan._tcam_next) == blocks
        assert state.search("010101") == "d" and state.search("111000") == "c"

    def test_overflow_full_raises(self):
        db = PrefixDatabase(6, [Prefix("1", 1, "A")])
        state = PipelineState.planned(db, StrideList.parse("3"), overflow_capacity=1)
        state.insert(Prefix("1010", 4, "X"))
        with pytest.raises(OverflowFull):
            state.insert(Prefix("1011", 4, "Y"))

    def test_exact_match_table_widens_for_longer_insert(self):
        from tcamtree import HybridizationConfig

        # converted with 2-bit keys; a later 4-bit insert must widen the
        # exact-match width, not vanish behind the as-converted key length
        db = PrefixDatabase(4, [Prefix("00", 2, "a")])
        state = PipelineState.planned(
            db, StrideList.parse("4"), hybrid=HybridizationConfig(factor=3)
        )
        assert state.tree.root.kind == "sram"
        state.insert(Prefix("0110", 4, "b"))
        assert state.search("0110") == "b"
        assert state.search("0011") == "a"
        assert state.search("1111") == "default"
        entries = [("00", 2, "a"), ("0110", 4, "b")]
        count, samples = full_space_mismatches(entries, state)
        assert count == 0, samples


class TestDelete:
    def test_delete_reverts_to_next_best(self):
        db = table1_db()
        state = PipelineState.planned(db, StrideList.parse("3-3"))
        state.delete(Prefix("100110", 6, "E"))
        # remaining matches for 100110: only the /1 entry
        assert state.search("100110") == "A"
        entries = [(p.bits, p.length, p.next_hop) for p in db.entries if p.next_hop != "E"]
        count, samples = full_space_mismatches(entries, state)
        assert count == 0, samples

    def test_delete_shortest_unsets_inherited_values(self):
        state = PipelineState.planned(table1_db(), StrideList.parse("3-3"))
        state.delete(Prefix("1", 1, "A"))
        assert state.search("111111") == "default"
        stub = row_at(state.tree.root, 3, 0b100)
        assert stub is not None and stub.bmp_value is None

    def test_delete_absent_prefix(self):
        state = PipelineState.planned(table1_db(), StrideList.parse("3-3"))
        with pytest.raises(NotFound):
            state.delete(Prefix("111", 3, "Q"))

    def test_merged_entry_survives_terminal_removal(self):
        db = PrefixDatabase(4, [Prefix("01", 2, "X"), Prefix("0111", 4, "Y")])
        state = PipelineState.planned(db, StrideList.parse("2-2"))
        merged = row_at(state.tree.root, 2, 0b01)
        assert is_terminal(merged, 2) and merged.__class__ is not str
        state.delete(Prefix("01", 2, "X"))
        merged = row_at(state.tree.root, 2, 0b01)
        assert merged is not None and not is_terminal(merged, 2)
        assert state.search("0111") == "Y"
        assert state.search("0100") == "default"

    def test_emptied_child_tables_are_collected(self):
        db = PrefixDatabase(4, [Prefix("0111", 4, "Y")])
        state = PipelineState.planned(db, StrideList.parse("2-2"))
        assert len(state.tree.levels[1]) == 1
        state.delete(Prefix("0111", 4, "Y"))
        assert len(state.tree.levels[1]) == 0
        assert state.tree.root.entry_count == 0

    def test_an_empty_overflow_buffer_is_not_consulted(self, monkeypatch):
        class Unprobed(dict):
            def __contains__(self, key):
                raise AssertionError(f"empty buffer probed for {key}")

        state = PipelineState.planned(table1_db(), StrideList.parse("3-3"))
        assert state.overflow.entries == {}
        state.overflow.table.by_key = state.overflow.entries = Unprobed()
        for name in ("contains", "add", "remove"):
            monkeypatch.setattr(OverflowBuffer, name, None)   # a call would raise
        state.insert(Prefix("101", 3, "G"))
        assert state.search("101000") == "G"
        state.delete(Prefix("101", 3, "G"))
        state.delete(Prefix("1000", 4, "A"))
        assert state.search("100000") == "A" and state.search("100011") == "C"
        with pytest.raises(NotFound):
            state.delete(Prefix("1000", 4, "A"))

    def test_delete_from_overflow(self):
        state = PipelineState.planned(table1_db(), StrideList.parse("3-2"))
        state.insert(Prefix("110011", 6, "Z"))
        state.delete(Prefix("110011", 6, "Z"))
        assert not state.overflow.contains("110011")


class TestOverflowBuffer:
    def test_lpm_picks_longest(self):
        buf = OverflowBuffer(8, 4)
        buf.add(2, 0b10, "a")
        buf.add(4, 0b1010, "b")
        assert buf.lpm(0b10101111) == ("b", 4)
        assert buf.lpm(0b10111111) == ("a", 2)
        assert buf.lpm(0b00000000) == (None, -1)

    def test_a_full_buffer_is_read_once_per_length_present(self):
        # 500 entries over 16 lengths, all beyond the 16-bit coverage: each
        # search reads at most one buffered row per length present,
        # and never walks the buffer's entries
        class Probes(dict):
            reads = 0

            def __contains__(self, key):
                self.reads += 1
                return super().__contains__(key)

            def get(self, key, default=None):
                self.reads += 1
                return super().get(key, default)

            def __iter__(self):
                raise AssertionError("the buffer's entries were walked")

            items = keys = values = __iter__

        rng = random.Random(7)
        long = {}
        while len(long) < 500:
            length = rng.randint(17, 32)
            long.setdefault(format(rng.getrandbits(length), f"0{length}b"), length)
        short = {format(rng.getrandbits(l), f"0{l}b") if l else "": l for l in range(17)}
        entries = enumerate({**short, **long}.items())
        db = PrefixDatabase(32, [Prefix(bits, l, f"h{i % 9}") for i, (bits, l) in entries])
        state = PipelineState.planned(db, StrideList.parse("8-8"))
        buf = state.overflow
        lengths = len(set(long.values()))
        assert len(buf) == 500 and lengths == 16
        buf.table.by_key = buf.entries = probes = Probes(buf.entries)
        addresses = [rng.getrandbits(32) for _ in range(200)]
        for bits in rng.sample(sorted(long), 200):
            free = 32 - len(bits)
            addresses.append(int(bits, 2) << free | rng.getrandbits(free))
        for address in addresses:
            probes.reads = 0
            assert state.search_value(address) == oracle_lookup_value(db, address)
            assert probes.reads <= lengths
        probes.reads = 0
        bits = next(iter(long))
        with pytest.raises(DuplicatePrefix):
            state.insert(Prefix(bits, len(bits), "again"))
        assert probes.reads == 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_int_buffer_equals_the_bit_string_scan(self, seed):
        # an entry of every length from 0 to the width, each with a sibling
        # and a longer entry under it, so entries nest, neighbour and share lengths
        rng = random.Random(seed)
        width = rng.randint(1, 16)

        def random_bits(length):
            return format(rng.getrandbits(length), f"0{length}b") if length else ""

        def pair(bits):
            value, length = key_of(bits)
            return length, value

        shadow = {}
        for length in range(width + 1):
            bits = random_bits(length)
            kin = [bits]
            if length:
                kin.append(bits[:-1] + "10"[int(bits[-1])])
            if length < width:
                kin.append(bits + random_bits(rng.randint(1, width - length)))
            for b in kin:
                shadow.setdefault(b, Prefix(b, len(b), f"h{rng.randint(0, 9)}"))
        buf = OverflowBuffer(width, len(shadow))
        for p in shadow.values():
            buf.add(*pair(p.bits), p.next_hop)
        with pytest.raises(OverflowFull):
            buf.add(width, 0, "over")
        for _ in range(2):
            for address in all_addresses(width):
                want = scan_overflow_lpm(shadow.values(), address)
                assert buf.lpm(int(address, 2)) == want, address
            for bits in rng.sample(sorted(shadow), len(shadow) // 2):
                assert buf.contains(bits) and buf.remove(*pair(bits))
                del shadow[bits]
                assert not buf.contains(bits) and not buf.remove(*pair(bits))
            for length in range(width + 1):
                bits = random_bits(length)
                assert buf.contains(bits) == (bits in shadow)
            assert len(buf) == len(shadow)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_interleaved_updates_stay_oracle_equal(seed):
    rng = random.Random(seed)
    width = rng.randint(4, 7)
    db = random_database(rng, width, max_entries=12)
    coverage = rng.choice([width, max(1, width - 2)])
    strides = random_strides(rng, coverage)
    state = PipelineState.planned(db, strides)
    shadow = {p.bits: p for p in db.entries}
    for _ in range(30):
        length = rng.randint(0, width)
        bits = format(rng.getrandbits(length), f"0{length}b") if length else ""
        if bits in shadow:
            state.delete(shadow.pop(bits))
        else:
            p = Prefix(bits, length, f"h{rng.randint(0, 9)}")
            state.insert(p)
            shadow[bits] = p
        current = PrefixDatabase(width, list(shadow.values()))
        for address in all_addresses(width):
            assert state.search(address) == oracle_lookup(current, address)


# -- bookkeeping under updates on planned states ---------------------------------

UPDATE_EVENTS = ("grew", "joined", "opened", "spilled", "collected")


def audit_tree(tree, levels_before):
    """`tree.levels` holds exactly the tables reachable from the root, the
    survivors of `levels_before` first and in their order; each table's
    lengths, counts and stub keys equal a recount of its dict."""
    reachable = [set() for _ in tree.levels]
    stack = [(0, tree.root)]
    while stack:
        level, table = stack.pop()
        reachable[level].add(table)
        stack.extend((level + 1, e.child) for _, e in ternary_rows(table) if e.child is not None)
    for level, before, tables in zip(tree.levels, levels_before, reachable):
        assert len(level) == len(tables) and set(level) == tables
        kept = [t for t in before if t in level]
        assert list(level)[: len(kept)] == kept
    for table in tree.all_tables():
        # a row of length l is a terminal of local length l, or a stub at the
        # full stride that inherits a strictly shorter local length or none,
        # (None, -1), so reading a row's kind off its local length is
        # unambiguous; every tagged key carries a length no longer than the
        # stride
        for tagged, e in table.by_key.items():
            length, _ = untag(tagged)
            assert 0 < tagged < 2 << table.stride_width
            if not is_terminal(e, length):
                assert length == table.stride_width and e.__class__ is not str
                assert -1 <= e.bmp_local_len < length
            if e.__class__ is not str:
                assert (e.bmp_value is None) == (e.bmp_local_len == -1)
        assert (table.lengths, table.counts) == recounted_lengths(table)
        assert list(table.stub_keys) == recounted_stub_keys(table)


def audit(state, planned_supertables):
    """Recount the packing and stage bookkeeping from scratch and compare it
    with the incremental state.  `planned_supertables` is the super-table list
    as mapped, which `plan.placements` is indexed by; it stays the head of
    `state.supertables`, emptied super-tables included."""
    plan = state.plan
    n = len(planned_supertables)
    assert len(state.supertables) >= n
    assert all(a is b for a, b in zip(state.supertables, planned_supertables))
    owners = Counter(t for st_ in state.supertables for t in st_.members)
    live = [t for t in state.tree.all_tables() if t.kind == TCAM]
    assert len(owners) == len(live) and all(owners[t] == 1 for t in live)
    assert state._st_of == {t: st_ for st_ in state.supertables for t in st_.members}
    # each level's host for a new table is the last of its super-tables, in
    # `supertables` order, with room for another member
    by_level = {}
    for st_ in state.supertables:
        by_level.setdefault(st_.level_index, []).append(st_)
    for level, sts in by_level.items():
        room = [st_ for st_ in sts if len(st_.members) < 2**st_.tag_bits]
        assert state._host_for_level(level) is (room[-1] if room else None)
    for st_ in state.supertables:
        assert st_.total_entries == sum(t.entry_count for t in st_.members)
        assert st_.entry_capacity >= st_.total_entries
        assert len(st_.members) <= 2**st_.tag_bits
    for i, st_ in enumerate(state.supertables):
        spans = plan.extra_spans.get(st_, [])
        if i < n:
            spans = spans + plan.placements[i]
        assert sum(s.count for s in spans) == st_.allocated_blocks
    by_level = [(sup.level_index, spans)
                for sup, spans in zip(planned_supertables, plan.placements)]
    by_level += [(st_.level_index, spans) for st_, spans in plan.extra_spans.items()]
    assert sum(s.count for _, spans in by_level for s in spans) == sum(plan._tcam_next)
    by_level += list(plan.sram_spans.items())
    low, high = {}, {}
    for level, spans in by_level:
        for s in spans:
            low[level] = min(low.get(level, s.stage), s.stage)
            high[level] = max(high.get(level, s.stage), s.stage)
    assert plan.level_stages == {level: (low[level], high[level]) for level in low}
    # stage order: each level ends before the next placed level begins
    placed = sorted(low)
    assert all(high[a] < low[b] for a, b in zip(placed, placed[1:])), (low, high)


def interleave_and_audit(seed) -> Counter:
    """Random inserts and deletes on a small planned state, audited after
    every step; returns how often each of UPDATE_EVENTS happened."""
    rng = random.Random(seed)
    width = rng.randint(6, 9)
    cuts = sorted(rng.sample(range(1, width), rng.randint(1, 2)))
    strides = StrideList(tuple(b - a for a, b in zip([0] + cuts, cuts + [width])))
    # a table confined to the root leaves the deeper levels' stages open, so a
    # spill can follow a block row placed for a shallower table
    db = random_database(rng, width, max_entries=8, max_length=rng.choice([strides[0], width]))
    profile = PipelineProfile(
        stage_count=len(strides) + rng.randint(0, 1),
        tcam_blocks_per_stage=rng.randint(1, 2),
        sram_pages_per_stage=2,
    )
    try:
        state = PipelineState.planned(
            db, strides, grain=GrainSpec(rng.choice([6, 8]), rng.choice([2, 4])),
            tag_bits=rng.choice([1, 2]), profile=profile,
            hybrid=HybridizationConfig(factor=3) if rng.random() < 0.3 else None,
            overflow_capacity=1000,
        )
    except (CapacityExceeded, StageDepthExceeded):
        assume(False)
    planned_supertables = list(state.supertables)
    shadow = {p.bits: p for p in db.entries}
    events = Counter()
    for _ in range(60):
        levels = [list(level) for level in state.tree.levels]
        supertables = list(state.supertables)
        members = [len(st_.members) for st_ in supertables]
        rows = [st_.allocated_rows for st_ in supertables]
        tables = len(state.tree.all_tables())
        if shadow and rng.random() < 0.35:
            state.delete(shadow.pop(rng.choice(sorted(shadow))))
            events["collected"] += len(state.tree.all_tables()) < tables
        else:
            # full-width prefixes open a chain of new tables, one per level
            length = rng.choice([rng.randint(0, width), width])
            bits = format(rng.getrandbits(length), f"0{length}b") if length else ""
            if bits in shadow:
                continue
            before = state.tree.structure()
            shadow[bits] = Prefix(bits, length, f"h{rng.randint(0, 9)}")
            state.insert(shadow[bits])
            if state.overflow.contains(bits):
                events["spilled"] += 1
                assert state.tree.structure() == before
            events["opened"] += len(state.supertables) > len(supertables)
            events["joined"] += any(
                len(st_.members) > n for st_, n in zip(supertables, members)
            )
            events["grew"] += any(
                st_.allocated_rows > n for st_, n in zip(supertables, rows)
            )
        audit(state, planned_supertables)
        audit_tree(state.tree, levels)
        entries = [(p.bits, p.length, p.next_hop) for p in shadow.values()]
        count, samples = full_space_mismatches(entries, state)
        assert count == 0, samples
    return events


def test_update_bookkeeping_matches_a_recount():
    seen = Counter()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None, database=None)
    def check(seed):
        seen.update(interleave_and_audit(seed))

    check()
    assert all(seen[event] > 0 for event in UPDATE_EVENTS), seen


def test_opening_a_table_reads_no_supertable_of_another_level():
    # The root's full-length terminal 0000 gains a child, so the insert adds
    # no root row and opens one level-1 table, which joins the level-1
    # super-table: finding that host reads no super-table of level 0.
    from tcamtree.packing import SuperTable

    db = PrefixDatabase(8, [Prefix("0000", 4, "a")] + [
        Prefix(format(i, "04b") + "0000", 8, f"h{i}") for i in range(1, 4)
    ])
    state = PipelineState.planned(
        db, StrideList.parse("4-4"), grain=GrainSpec(8, 4), tag_bits=2,
        profile=PipelineProfile(),
    )
    (level1,) = [st_ for st_ in state.supertables if st_.level_index == 1]
    others = [st_ for st_ in state.supertables if st_.level_index != 1]
    assert others and len(level1.members) == 3
    reads = []

    class WatchedSuperTable(SuperTable):
        def __getattribute__(self, name):
            reads.append(name)
            return object.__getattribute__(self, name)

    for st_ in others:
        st_.__class__ = WatchedSuperTable
    state.insert(Prefix("00001111", 8, "new"))
    assert reads == []
    new = row_at(state.tree.root, 4, 0b0000)
    assert new in level1.members and len(level1.members) == 4
    assert state.search("00001111") == "new" and state.search("00000000") == "a"


@pytest.mark.parametrize("tag_bits", [2, 4])
def test_updates_read_no_member_counts(tag_bits, monkeypatch):
    # A level-1 super-table with 2**tag_bits one-row members: an insert into
    # one member and the delete that collects another read a fixed number of
    # row counts, whatever the member count.
    members = 1 << tag_bits
    db = PrefixDatabase(8, [Prefix(format(i, "04b") + "0000", 8, f"h{i}") for i in range(members)])
    state = PipelineState.planned(
        db, StrideList.parse("4-4"), grain=GrainSpec(8, 64), tag_bits=tag_bits,
        profile=PipelineProfile(),
    )
    (level1,) = [st_ for st_ in state.supertables if st_.level_index == 1]
    assert len(level1.members) == members
    reads = []
    entry_count = TreeTable.entry_count.fget
    monkeypatch.setattr(
        TreeTable, "entry_count", property(lambda t: reads.append(t) or entry_count(t))
    )
    state.insert(Prefix("00001111", 8, "new"))
    assert len(reads) <= 2 and level1.total_entries == members + 1
    reads.clear()
    state.delete(Prefix("00010000", 8, "h1"))
    assert len(reads) <= 4 and len(level1.members) == members - 1
    assert level1.total_entries == members
