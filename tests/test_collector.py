"""The cyclic garbage collector is paused while a database is parsed and a
plan is built, restored afterwards, and has nothing to free in a plan."""

import gc
import random
from pathlib import Path

import pytest

from tcamtree import HybridizationConfig, Prefix, StrideList, build_tree, parse_database
from tcamtree.errors import CapacityExceeded, DuplicatePrefix, MalformedLine
from tcamtree.pipeline import PipelineProfile, PipelineState

SYNTHETIC_IPV4 = Path(__file__).parent / "data" / "synthetic-ipv4-500.txt"
STRIDES = StrideList.parse("16-4-4-8")
HYBRID = HybridizationConfig(factor=3)


@pytest.fixture
def collections():
    """The generations of the collections run while the test body runs, with
    the generation-0 threshold at 1, so a collection follows every second
    allocation of a tracked object made while the collector is on."""
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    thresholds = gc.get_threshold()
    gc.callbacks.append(record)
    try:
        gc.set_threshold(1, *thresholds[1:])
        yield started
    finally:
        gc.set_threshold(*thresholds)
        gc.callbacks.remove(record)


def test_parse_and_plan_run_no_collection(collections):
    # Each builder pauses the collector before it allocates anything.  A
    # comprehension that reads a builder's argument would allocate a closure
    # cell as the call begins, before the pause, and fail this test.
    text = SYNTHETIC_IPV4.read_text()
    planned = PipelineState.planned   # a bound method, made before counting
    profile = PipelineProfile()

    collections.clear()
    db = parse_database(text, 32)
    assert not collections and len(db) == 500

    collections.clear()
    tree = build_tree(db, STRIDES)
    assert not collections and tree.root.entry_count > 0

    collections.clear()
    state = planned(db, STRIDES, hybrid=HYBRID, profile=profile)
    assert not collections and state.plan is not None


@pytest.mark.parametrize(
    "text, error",
    [
        ("0000/4 a\n0001/4 b\n00x1/4 c\n0010/4 d\n", MalformedLine),
        ("0000/4 a\n0001/4 b\n0000/4 c\n0010/4 d\n", DuplicatePrefix),
    ],
    ids=["malformed", "duplicate"],
)
def test_parse_that_raises_restores_the_collector(text, error):
    with pytest.raises(error):
        parse_database(text, 8)
    assert gc.isenabled()


def test_plan_that_raises_restores_the_collector():
    db = parse_database(SYNTHETIC_IPV4.read_text(), 32)
    no_sram = PipelineProfile(stage_count=16, tcam_blocks_per_stage=24, sram_pages_per_stage=0)
    with pytest.raises(CapacityExceeded):
        PipelineState.planned(db, STRIDES, hybrid=HYBRID, profile=no_sram)
    assert gc.isenabled()


def test_return_restores_the_collector():
    db = parse_database(SYNTHETIC_IPV4.read_text(), 32)
    assert gc.isenabled()
    build_tree(db, STRIDES)
    assert gc.isenabled()
    PipelineState.planned(db, STRIDES, hybrid=HYBRID, profile=PipelineProfile())
    assert gc.isenabled()


def test_a_paused_caller_stays_paused():
    gc.disable()
    try:
        db = parse_database(SYNTHETIC_IPV4.read_text(), 32)
        assert not gc.isenabled()
        build_tree(db, STRIDES)
        assert not gc.isenabled()
        PipelineState.planned(db, STRIDES, hybrid=HYBRID, profile=PipelineProfile())
        assert not gc.isenabled()
        with pytest.raises(MalformedLine):
            parse_database("0000/4 a\nbad\n", 8)
        assert not gc.isenabled()
    finally:
        gc.enable()


def churn_a_plan() -> tuple[int, int, int]:
    """Plan the 500-entry table hybridized and stage-mapped on a small profile,
    then insert and delete until tables are created and collected and inserts
    spill to the overflow buffer; returns those three counts."""
    db = parse_database(SYNTHETIC_IPV4.read_text(), 32)
    state = PipelineState.planned(
        db, STRIDES, tag_bits=4, hybrid=HYBRID,
        profile=PipelineProfile(stage_count=4, tcam_blocks_per_stage=2, sram_pages_per_stage=4),
    )
    rng = random.Random(1)
    live = list(db.entries)
    created = collected = 0
    for i in range(400):
        before = len(state.tree.all_tables())
        if i % 2:
            state.delete(live.pop(rng.randrange(len(live))))
        else:
            length = rng.choice([20, 24, 28, 32])
            prefix = Prefix(format(rng.getrandbits(length), f"0{length}b"), length, "new")
            if any(p.bits == prefix.bits for p in live):
                continue
            state.insert(prefix)
            live.append(prefix)
        after = len(state.tree.all_tables())
        created += after > before
        collected += after < before
    return created, collected, len(state.overflow)


def test_a_dropped_plan_leaves_no_cycle():
    # The pause is safe only while the planner's objects form no reference
    # cycle; a back-pointer (say, child table -> parent) would leave garbage
    # that only the collector can free.
    gc.collect()
    created, collected, spilled = churn_a_plan()
    assert created > 0 and collected > 0 and spilled > 0
    assert gc.collect() == 0
