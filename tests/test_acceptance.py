"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines stream.  Criterion 8 depends on externally supplied routing-table
snapshots and is skipped unless the documented environment variables point
at them.
"""

import math
import os
import random
import time
from fractions import Fraction

import pytest

from tcamtree import (
    GrainSpec,
    HybridizationConfig,
    Prefix,
    PrefixDatabase,
    StrideList,
    build_tree,
    build_unibit_trie,
    compute_lean_levels,
    lower_bound_bits,
    max_savings_factor,
    oracle_lookup,
    parse_file,
    single_tcam_baseline,
    tag_and_pack,
    tiling_condition,
)
from tcamtree.cli import PlanConfig, build_plan, main
from tcamtree.pipeline import PipelineProfile, PipelineState
from tcamtree.trie import LeanLevelRow, LeanLevelTable

from tests.helpers import (
    ROOMY_PROFILE,
    all_addresses,
    oracle_vector,
    random_database,
    random_strides,
    state_vector,
    HopIds,
    is_terminal,
    table1_db,
    ternary_rows,
)

GRAIN = GrainSpec(44, 512)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_table1_end_to_end():
    started = time.monotonic()
    db = table1_db()
    for spec in ("6", "3-3", "2-2-2", "1-1-1-1-1-1"):
        state = PipelineState.planned(db, StrideList.parse(spec))
        for address in all_addresses(6):
            assert state.search(address) == oracle_lookup(db, address), (spec, address)
    tree = build_tree(db, StrideList.parse("3-3"))
    root_view = {
        text: (e.bmp_value, is_terminal(e, len(text.rstrip("*"))), e.child is not None)
        for text, e in ternary_rows(tree.root)
    }
    assert root_view == {"1**": ("A", True, False), "100": ("A", False, True)}
    (child,) = tree.levels[1]
    child_view = {text: e.bmp_value for text, e in ternary_rows(child)}
    assert child_view == {"0**": "B", "01*": "C", "10*": "D", "110": "E", "111": "F"}
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report("1 (toy end-to-end)", f"4 stride lists x 64 addresses in {elapsed:.3f}s")


# -- criteria 2, 4, 7 share one randomized sweep --------------------------------


class SweepResults:
    def __init__(self):
        self.databases = 0
        self.evaluations = 0
        self.mismatches = 0
        self.mismatch_samples = []
        self.bound_checks = 0
        self.bound_violations = []
        self.lower_bound_checks = 0
        self.lower_bound_violations = []
        self.waste_checks = 0
        self.waste_violations = []
        self.elapsed = 0.0


def _check_packing(supers, grain, results):
    by_level = {}
    for sup in supers:
        by_level.setdefault(sup.level_index, []).append(sup)
    for level, sups in by_level.items():
        results.waste_checks += 1
        empty = sum(s.empty_entries for s in sups)
        if not empty < len(sups) * grain.depth:
            results.waste_violations.append((level, empty, len(sups)))


@pytest.fixture(scope="module")
def randomized_sweep():
    rng = random.Random(0x5EED_2026)
    results = SweepResults()
    started = time.monotonic()
    grains = [GrainSpec(44, 512), GrainSpec(8, 16), GrainSpec(4, 8), GrainSpec(12, 32)]
    for run in range(500):
        width = rng.randint(12, 16)
        if run % 25 == 0:
            n_target = 2000
        else:
            n_target = max(1, int(math.exp(rng.uniform(0, math.log(2000)))))
        db = random_database(rng, width, max_entries=n_target)
        results.databases += 1
        hops = HopIds()
        entries = [(p.bits, p.length, p.next_hop) for p in db.entries]
        want = oracle_vector(entries, width, hops)
        grain = rng.choice(grains)
        for _ in range(3):
            strides = random_strides(rng, width)
            for factor in (None, 1.5, 3, 8):
                hybrid = None if factor is None else HybridizationConfig(factor=factor)
                state = PipelineState.planned(db, strides, grain=grain, hybrid=hybrid)
                results.evaluations += 1
                got = state_vector(state, hops)
                bad = int((want != got).sum())
                if bad:
                    results.mismatches += bad
                    if len(results.mismatch_samples) < 5:
                        results.mismatch_samples.append((width, str(strides), factor))
                supers = state.supertables
                _check_packing(supers, grain, results)
                post_bits = sum(s.block_count for s in supers) * grain.bits
                tcam_entries = sum(s.total_entries for s in supers)
                results.lower_bound_checks += 1
                if not post_bits >= lower_bound_bits(tcam_entries, grain):
                    results.lower_bound_violations.append((width, str(strides), grain, factor))
                if factor is None:
                    baseline_bits = single_tcam_baseline(len(db), strides.coverage, grain)[1]
                    cap = max_savings_factor(strides.coverage, grain.width)
                    results.bound_checks += 1
                    if not Fraction(baseline_bits, post_bits) <= cap:
                        results.bound_violations.append((width, str(strides), grain))
    results.elapsed = time.monotonic() - started
    return results


def test_criterion_2_randomized_oracle_equivalence(randomized_sweep):
    r = randomized_sweep
    assert r.databases >= 500
    assert r.evaluations >= 500 * 3 * 4
    assert r.mismatches == 0, r.mismatch_samples
    assert r.elapsed < 300, f"sweep took {r.elapsed:.1f}s"
    report(
        "2 (randomized equivalence)",
        f"{r.databases} databases, {r.evaluations} exhaustive plan evaluations,"
        f" 0 mismatches in {r.elapsed:.1f}s",
    )


def test_criterion_4_savings_bound_compliance(randomized_sweep):
    r = randomized_sweep
    assert r.bound_checks >= 1500
    assert r.bound_violations == []
    report(
        "4 (savings cap)",
        f"{r.bound_checks} non-hybrid plans within ceil(width/grain_width) exactly",
    )


def test_criterion_4_tcam_bits_hold_the_lower_bound_with_hybridization(randomized_sweep):
    # a block holds at most `depth` entries, so the bound holds on the
    # entries left in TCAM, whether or not tables went to SRAM
    r = randomized_sweep
    assert r.lower_bound_checks >= 500 * 3 * 4
    assert r.lower_bound_violations == []
    report(
        "4 (lower bound)",
        f"{r.lower_bound_checks} plans, hybridized or not, at or above the"
        f" lower bound of their TCAM entries",
    )


def test_criterion_7_packing_waste_bound(randomized_sweep):
    r = randomized_sweep
    assert r.waste_checks > 0
    assert r.waste_violations == []
    report(
        "7 (packing waste)",
        f"{r.waste_checks} per-level checks, empty entries always below"
        f" super-table-count x grain depth",
    )


# -- criterion 3 ------------------------------------------------------------------


def test_criterion_3_update_correctness():
    rng = random.Random(0xCAFE_2026)
    width = 12
    overflow_seen = 0
    checks = 0
    for run in range(200):
        base = random_database(rng, width, max_entries=80)
        style = run % 4
        if style == 0:
            strides = random_strides(rng, width)
            state = PipelineState.planned(base, strides)
        elif style == 1:
            strides = random_strides(rng, 8)   # partial coverage: long prefixes overflow
            state = PipelineState.planned(base, strides)
        elif style == 2:
            strides = random_strides(rng, width)
            state = PipelineState.planned(
                base, strides, grain=GrainSpec(8, 4),
                hybrid=HybridizationConfig(factor=rng.choice([1.5, 3, 8])),
            )
        else:
            small = PrefixDatabase(width, base.entries[:12])
            base = small
            strides = StrideList((6, 3))       # coverage 9 of 12
            state = PipelineState.planned(
                base, strides, grain=GrainSpec(8, 4),
                profile=PipelineProfile(stage_count=4, tcam_blocks_per_stage=6,
                                        sram_pages_per_stage=6),
            )
        shadow = {p.bits: p for p in base.entries}
        hops = HopIds()
        for _ in range(100):
            do_delete = shadow and rng.random() < 0.45
            if do_delete:
                bits = rng.choice(sorted(shadow))
                state.delete(shadow.pop(bits))
            else:
                for _attempt in range(50):
                    length = rng.randint(0, width)
                    bits = format(rng.getrandbits(length), f"0{length}b") if length else ""
                    if bits not in shadow:
                        break
                else:
                    continue
                p = Prefix(bits, length, f"h{rng.randint(0, 12)}")
                state.insert(p)
                shadow[bits] = p
            if state.overflow.entries:
                overflow_seen += 1
            want = oracle_vector(
                [(p.bits, p.length, p.next_hop) for p in shadow.values()], width, hops
            )
            got = state_vector(state, hops)
            checks += 1
            bad = int((want != got).sum())
            assert bad == 0, (run, len(shadow), str(strides))
    assert overflow_seen > 0, "overflow path was never exercised"
    report(
        "3 (update correctness)",
        f"200 interleavings, {checks} full-space checks, overflow active in"
        f" {overflow_seen} steps, 0 mismatches",
    )


# -- criterion 5 --------------------------------------------------------------------


def planted_database(rng, pivot_depth, max_length, total, b):
    """A database whose trie has exactly floor(total*b/100) non-leaf nodes at
    pivot_depth: only the pivots carry longer prefixes, so the pointer count
    at that depth is planted by construction."""
    k = int(total * Fraction(str(b)) / 100)
    pivots = rng.sample(range(1 << pivot_depth), k)
    entries = {}
    for i, pivot in enumerate(pivots):
        pbits = format(pivot, f"0{pivot_depth}b")
        # guaranteed deep resident; the first pivot anchors the maximum length
        if i == 0:
            bits = pbits + "1" * (max_length - pivot_depth)
        else:
            bits = pbits + "0"
        entries[bits] = Prefix(bits, len(bits), f"deep{i}")
        for _ in range(rng.randint(0, 2)):
            length = rng.randint(pivot_depth + 1, max_length)
            suffix = format(
                rng.getrandbits(length - pivot_depth), f"0{length - pivot_depth}b"
            )
            bits = pbits + suffix
            entries.setdefault(bits, Prefix(bits, length, f"deep{i}x"))
    shorts = [""] + [
        format(value, f"0{length}b")
        for length in range(1, pivot_depth + 1)
        for value in range(1 << length)
    ]
    rng.shuffle(shorts)
    budget = total - len(entries)
    assert budget <= len(shorts), "short-prefix pool cannot reach the target size"
    for bits in shorts[:budget]:
        entries[bits] = Prefix(bits, len(bits), f"short{len(entries)}")
    db = PrefixDatabase(16, list(entries.values()))
    assert len(db) == total
    return db, k


def test_criterion_5_two_level_construction_bound():
    rng = random.Random(0xB0B_2026)
    pivot_depth, max_length = 10, 16
    runs = 0
    for b in ("0.5", "1", "2"):
        for _ in range(5):
            db, k = planted_database(rng, pivot_depth, max_length, 2000, b)
            n = len(db)
            lean = compute_lean_levels(build_unibit_trie(db), n, max_depth=max_length)
            assert lean.row(pivot_depth).nonleaf_count == k, "construction must plant the lean level"
            cond = tiling_condition(max_length, lean.row(pivot_depth), GRAIN)
            assert cond.lhs == max_length - pivot_depth + 9 < GRAIN.width
            assert cond.feasible
            tree = build_tree(db, StrideList((pivot_depth, max_length - pivot_depth)))
            supers = tag_and_pack(tree, GRAIN, 9)
            bound = (1 + 2 * Fraction(str(b)) / 100) * n
            total_entries = sum(s.total_entries for s in supers)
            assert total_entries <= bound, (b, total_entries, float(bound))
            slack = len(supers) * GRAIN.depth
            total_slots = sum(s.entry_capacity for s in supers)
            assert total_slots <= bound + slack, (b, total_slots, float(bound + slack))
            runs += 1
    report(
        "5 (tiling construction)",
        f"{runs} planted databases, entries within (1 + 2b/100)N and slots"
        f" within one block row per super-table",
    )


# -- criterion 6 ---------------------------------------------------------------------


def test_criterion_6_closed_form_checkpoints():
    assert single_tcam_baseline(287 * 512, 64, GRAIN)[0] == 574
    lean = LeanLevelTable(
        [LeanLevelRow(d, 0, Fraction(0), Fraction(0)) for d in range(19)]
        + [LeanLevelRow(19, 450, Fraction(3, 10), Fraction(3, 5))]
    )
    cond = tiling_condition(48, lean.row(19), GRAIN)
    assert cond.lhs == 38
    assert cond.feasible
    assert cond.epsilon_bound == Fraction(6, 1000)
    assert max_savings_factor(48, 44) == 2
    assert max_savings_factor(24, 44) == 1
    report(
        "6 (closed forms)",
        "baseline 574 blocks; tiling lhs 38 feasible with epsilon 0.006;"
        " savings caps 2 and 1",
    )


# -- criterion 8 (environment-dependent, not gating) -----------------------------------


IPV6_SNAPSHOT = os.environ.get("TCAMTREE_IPV6_DB")
IPV4_SNAPSHOT = os.environ.get("TCAMTREE_IPV4_DB")


@pytest.mark.skipif(
    not IPV6_SNAPSHOT, reason="set TCAMTREE_IPV6_DB to a canonical-format snapshot"
)
def test_criterion_8_ipv6_snapshot_improvement():
    db = parse_file(IPV6_SNAPSHOT, 64)
    cfg = PlanConfig(
        db_path=IPV6_SNAPSHOT, address_width=64, strides=StrideList.parse("19-29-16"),
        profile=ROOMY_PROFILE,
    )
    _, rep = build_plan(db, cfg)
    improvement = Fraction(rep["resources"]["improvement_exact"])
    assert Fraction("1.7") <= improvement <= Fraction("2.0")
    report("8 (IPv6 snapshot)", f"improvement {float(improvement):.3f}X in [1.7, 2.0]")


@pytest.mark.skipif(
    not IPV4_SNAPSHOT, reason="set TCAMTREE_IPV4_DB to a canonical-format snapshot"
)
def test_criterion_8_ipv4_snapshot_improvement():
    db = parse_file(IPV4_SNAPSHOT, 32)
    cfg = PlanConfig(
        db_path=IPV4_SNAPSHOT,
        address_width=32,
        strides=StrideList.parse("16-4-4-8"),
        tag_bits=14,
        hybridize=True,
        factor=Fraction(3),
        profile=ROOMY_PROFILE,
    )
    _, rep = build_plan(db, cfg)
    improvement = Fraction(rep["resources"]["improvement_exact"])
    assert improvement > 4
    report("8 (IPv4 snapshot)", f"improvement {float(improvement):.3f}X > 4X")


# -- criterion 9 ----------------------------------------------------------------------


def test_criterion_9_plan_report_determinism(tmp_path, capsys):
    data = tmp_path / "db.txt"
    data.write_text(
        "100000/1 A\n1000/4 B\n10001/5 C\n10010/5 D\n100110/6 E\n100111/6 F\n"
    )
    outputs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        code = main(
            [
                "plan", "--db", str(data), "--width", "6", "--strides", "3-3",
                "--hybridize", "--factor", "3", "--out", str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    report("9 (determinism)", f"byte-identical reports ({len(outputs[0])} bytes)")
