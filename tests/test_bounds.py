import random
from fractions import Fraction

import pytest

from tcamtree import (
    GrainSpec,
    HybridizationConfig,
    build_tree,
    build_unibit_trie,
    compute_lean_levels,
    hybridize,
    lower_bound_bits,
    max_savings_factor,
    resource_totals,
    single_tcam_baseline,
    tag_and_pack,
    tiling_condition,
)
from tcamtree.bounds import build_report
from tcamtree.errors import LevelOutOfRange
from tcamtree.packing import SramPageSpec
from tcamtree.tiler import SRAM
from tcamtree.trie import LeanLevelRow, LeanLevelTable

from tests.helpers import random_database, random_strides, table1_db

GRAIN = GrainSpec(44, 512)


def lean_with(level, b, total=150000, max_depth=None):
    rows = []
    for depth in range((max_depth if max_depth is not None else level) + 1):
        frac = Fraction(str(b)) if depth == level else Fraction(0)
        count = int(total * frac / 100)
        rows.append(LeanLevelRow(depth, count, frac, 2 * frac))
    return LeanLevelTable(rows)


class TestLowerBound:
    def test_one_block_minimum(self):
        assert lower_bound_bits(6, GRAIN) == 512 * 44

    def test_ceiling_step(self):
        assert lower_bound_bits(512, GRAIN) == 22528
        assert lower_bound_bits(513, GRAIN) == 45056

    def test_large_database(self):
        assert lower_bound_bits(146944, GRAIN) == 287 * 512 * 44 == 6465536


class TestBaseline:
    def test_ipv6_scale(self):
        blocks, bits = single_tcam_baseline(150000, 64, GRAIN)
        assert blocks == 2 * 293 == 586
        assert bits == 586 * 22528

    def test_exact_rows(self):
        blocks, _ = single_tcam_baseline(287 * 512, 64, GRAIN)
        assert blocks == 574

    def test_single_entry(self):
        assert single_tcam_baseline(1, 44, GRAIN)[0] == 1


class TestMaxSavingsFactor:
    def test_width_pairs(self):
        assert max_savings_factor(48, 44) == 2
        assert max_savings_factor(24, 44) == 1
        assert max_savings_factor(44, 44) == 1


class TestTilingCondition:
    def test_feasible_split(self):
        cond = tiling_condition(48, lean_with(19, "0.3").row(19), GRAIN)
        assert cond.lhs == 38
        assert cond.feasible
        assert cond.epsilon_bound == Fraction(3, 500)  # exactly 0.006

    def test_infeasible_shallow_split(self):
        cond = tiling_condition(48, lean_with(3, "0.3").row(3), GRAIN)
        assert cond.lhs == 54
        assert not cond.feasible

    def test_boundary_case_equal_width(self):
        # threshold equal to the grain width: lhs == width, strict inequality fails
        cond = tiling_condition(44, lean_with(9, "1").row(9), GRAIN)
        assert cond.lhs == 44
        assert not cond.feasible

    def test_missing_level_raises(self):
        with pytest.raises(LevelOutOfRange):
            tiling_condition(48, lean_with(3, "0.3").row(19), GRAIN)

    def test_all_rational_arithmetic(self):
        cond = tiling_condition(48, lean_with(19, "0.3").row(19), GRAIN)
        assert isinstance(cond.lhs, int)
        assert isinstance(cond.epsilon_bound, Fraction)
        assert isinstance(cond.b, Fraction)


class TestReport:
    def test_invariants_hold(self):
        db = table1_db()
        lean = compute_lean_levels(build_unibit_trie(db), len(db), max_depth=6)
        report = build_report(
            entry_count=len(db),
            threshold_length=6,
            baseline_width=6,
            grain=GRAIN,
            split=lean.row(3),
        )
        assert report.lower_bound_bits <= report.baseline_bits
        assert report.max_savings_factor_baseline_width >= 1
        assert report.tiling is not None and report.tiling.level == 3

    def test_plan_bits_never_beat_lower_bound(self):
        rng = random.Random(11)
        for _ in range(25):
            width = rng.randint(4, 10)
            db = random_database(rng, width, max_entries=200)
            strides = random_strides(rng, width)
            grain = GrainSpec(rng.choice([4, 8, 16]), rng.choice([4, 8, 16]))
            tree = build_tree(db, strides)
            supers = tag_and_pack(tree, grain, grain.default_tag_bits)
            report = resource_totals(
                supers, 0, grain, SramPageSpec(),
                single_tcam_baseline(len(db), width, grain)[0],
            )
            assert report.tcam_bits >= lower_bound_bits(len(db), grain)
            if report.improvement_factor is not None:
                assert report.improvement_factor <= max_savings_factor(
                    strides.coverage, grain.width
                )

    def test_hybridized_tcam_bits_never_beat_lower_bound_of_tcam_entries(self):
        rng = random.Random(12)
        converted = 0
        for _ in range(25):
            width = rng.randint(4, 10)
            db = random_database(rng, width, max_entries=200)
            strides = random_strides(rng, width)
            grain = GrainSpec(rng.choice([4, 8, 16]), rng.choice([4, 8, 16]))
            tree = build_tree(db, strides)
            config = HybridizationConfig(factor=rng.choice([1.5, 3, 8]))
            level_rows = hybridize(tree, config, grain.default_tag_bits)
            converted += sum(t.kind == SRAM for t in tree.all_tables())
            supers = tag_and_pack(tree, grain, grain.default_tag_bits)
            report = resource_totals(
                supers, sum(level_rows), grain, config.sram_spec,
                single_tcam_baseline(len(db), width, grain)[0],
            )
            tcam_entries = sum(st.total_entries for st in supers)
            assert report.tcam_bits >= lower_bound_bits(tcam_entries, grain)
        assert converted > 0
