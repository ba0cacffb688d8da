"""The vectorized full-space evaluator must agree with the scalar search path;
the exhaustive acceptance runs lean on it, so it gets its own validation."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tcamtree import HybridizationConfig, Prefix, PrefixDatabase, StrideList
from tcamtree.pipeline import PipelineState

from tests.helpers import (
    HopIds,
    all_addresses,
    db_entry_tuples,
    full_space_mismatches,
    is_terminal,
    random_database,
    random_strides,
    state_vector,
    table1_db,
    untag,
)


def assert_vector_matches_scalar(state):
    hops = HopIds()
    vec = state_vector(state, hops)
    for i, address in enumerate(all_addresses(state.tree.address_width)):
        assert hops.label(int(vec[i])) == state.search(address), address


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_vector_equals_scalar_on_plain_trees(seed):
    rng = random.Random(seed)
    width = rng.randint(3, 9)
    db = random_database(rng, width, max_entries=50)
    coverage = rng.choice([width, max(1, width - 2)])
    state = PipelineState.planned(db, random_strides(rng, coverage))
    assert_vector_matches_scalar(state)


@given(st.integers(0, 2**32 - 1), st.sampled_from([1.5, 3, 8]))
@settings(max_examples=20, deadline=None)
def test_vector_equals_scalar_on_hybrid_states(seed, factor):
    rng = random.Random(seed)
    width = rng.randint(3, 9)
    db = random_database(rng, width, max_entries=50)
    state = PipelineState.planned(
        db, random_strides(rng, width), hybrid=HybridizationConfig(factor=factor)
    )
    assert_vector_matches_scalar(state)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_vector_equals_scalar_after_updates_on_hybrid_states(seed):
    rng = random.Random(seed)
    width = rng.randint(4, 8)
    db = random_database(rng, width, max_entries=20)
    state = PipelineState.planned(
        db, random_strides(rng, width), hybrid=HybridizationConfig(factor=8)
    )
    shadow = {p.bits for p in db.entries}
    for _ in range(12):
        length = rng.randint(0, width)
        bits = format(rng.getrandbits(length), f"0{length}b") if length else ""
        if bits in shadow:
            state.delete(Prefix(bits, length, "x"))
            shadow.discard(bits)
        else:
            state.insert(Prefix(bits, length, f"h{rng.randint(0, 5)}"))
            shadow.add(bits)
    assert_vector_matches_scalar(state)


def test_vector_agrees_on_table1():
    db = table1_db()
    state = PipelineState.planned(db, StrideList.parse("3-3"))
    count, samples = full_space_mismatches(db_entry_tuples(db), state)
    assert count == 0, samples


def test_vector_catches_a_planted_fault():
    db = table1_db()
    state = PipelineState.planned(db, StrideList.parse("3-3"))
    rows = state.tree.root.by_key
    for tagged, e in rows.items():
        if e.__class__ is str:
            rows[tagged] = "WRONG"
        elif is_terminal(e, untag(tagged)[0]):
            e.bmp_value = "WRONG"
    count, _ = full_space_mismatches(db_entry_tuples(db), state)
    assert count > 0


def test_vector_honors_overflow_length_ties():
    db = PrefixDatabase(8, [Prefix("10", 2, "short"), Prefix("101010", 6, "long")])
    state = PipelineState.planned(db, StrideList.parse("2-2"))
    count, samples = full_space_mismatches(db_entry_tuples(db), state)
    assert count == 0, samples
