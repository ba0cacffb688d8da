"""Replay goldens: seeded update streams on small planned tables, checked
update by update against a recorded run.

Each configuration plans a `perfbench/gen.py` table and replays that
generator's insert/delete stream on it.  After every update a running
SHA-256 digest folds in what the update bookkeeping keeps: each
super-table's level, tag bits, member count, entries and block rows; each
stage's used blocks and pages; each level's stage pair; and the overflow
buffer as sorted (length, value, next hop).  Every 100 updates a checkpoint
records the digest, a hash of `tree.structure()` and the answers on a fixed
address set, which must also equal the oracle's over the live entries.

The digest holds quantities, not field names, so a change that keeps the
update behaviour keeps the goldens byte-identical, and the first checkpoint
where two runs part names the 100 updates where they first differ.  A
change that alters update behaviour on purpose regenerates them with

    PYTHONPATH=src python -m tests.test_replay

and explains each difference.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest

from tcamtree import GrainSpec, HybridizationConfig, PipelineState, PrefixDatabase, StrideList
from tcamtree.pipeline import PipelineProfile
from tcamtree.prefixdb import oracle_lookup_value

from tests.helpers import buffered

ROOT = Path(__file__).parent.parent
REPLAY = Path(__file__).parent / "data" / "replay"
CHECKPOINT_EVERY = 100


@dataclass(frozen=True)
class Replay:
    shape: str               # `gen` shape name
    entries: int
    updates: int
    strides: str
    grain: GrainSpec
    tag_bits: Optional[int]
    hybridize: bool
    profile: PipelineProfile
    tight: bool              # blocks grow, super-tables open and inserts spill


CONFIGS = {
    "ipv4-hybrid-roomy": Replay(
        "IPV4", 3000, 2500, "16-4-4-8", GrainSpec(44, 64), None, True,
        PipelineProfile(32, 64, 400), tight=False,
    ),
    "ipv4-hybrid-tight": Replay(
        "IPV4", 3000, 2500, "16-4-4-8", GrainSpec(44, 64), None, True,
        PipelineProfile(3, 6, 80), tight=True,
    ),
    "ipv6-tcam-roomy": Replay(
        "IPV6", 3000, 2500, "19-29-16", GrainSpec(44, 64), None, False,
        PipelineProfile(32, 64, 0), tight=False,
    ),
    "ipv6-tcam-tight": Replay(
        "IPV6", 3000, 2500, "19-29-16", GrainSpec(44, 16), 2, False,
        PipelineProfile(7, 48, 0), tight=True,
    ),
}


def load_gen():
    """`perfbench/gen.py` as a module of its own, `replay_gen` (its
    dataclasses look it up in `sys.modules`), leaving no bytecode behind."""
    if "replay_gen" in sys.modules:
        return sys.modules["replay_gen"]
    spec = importlib.util.spec_from_file_location("replay_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["replay_gen"] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def bookkeeping(state: PipelineState) -> tuple:
    """The quantities an update keeps, in the order the digest folds them."""
    plan = state.plan
    return (
        tuple(
            (st.level_index, st.tag_bits, len(st.members), st.total_entries, st.allocated_rows)
            for st in state.supertables
        ),
        tuple(plan._tcam_next[1:]),
        tuple(plan._sram_next[1:]),
        tuple(sorted(plan.level_stages.items())),
        tuple(buffered(state)),
    )


def replay(name: str) -> tuple[list[dict], dict]:
    """The checkpoints of configuration `name`, and counts that show what
    its stream did: blocks grown, super-tables opened, inserts spilled."""
    cfg = CONFIGS[name]
    gen = load_gen()
    db, table_gen = gen.make_table(getattr(gen, cfg.shape), cfg.entries, 1)
    stream = gen.make_updates(db, table_gen, cfg.updates)
    width = db.address_width
    rng = random.Random(2)
    addresses = [int(a, 2) for a in gen.make_addresses(db, 64, rng)]
    inserted = [p for kind, p in stream if kind == "insert"]
    for p in inserted[:: len(inserted) // 32]:
        free = width - p.length
        addresses.append((int(p.bits, 2) << free) | rng.getrandbits(free))

    state = PipelineState.planned(
        db, StrideList.parse(cfg.strides), grain=cfg.grain, tag_bits=cfg.tag_bits,
        profile=cfg.profile, hybrid=HybridizationConfig(factor=3) if cfg.hybridize else None,
    )
    live = {p.bits: p for p in db.entries}
    opened, blocks = len(state.supertables), sum(state.plan._tcam_next)
    spilled = 0
    digest = hashlib.sha256()
    checkpoints = []
    for i, (kind, p) in enumerate(stream, 1):
        if kind == "insert":
            state.insert(p)
            live[p.bits] = p
            spilled += state.overflow.contains(p.bits)
        else:
            state.delete(p)
            del live[p.bits]
        digest.update(repr(bookkeeping(state)).encode())
        if i % CHECKPOINT_EVERY == 0:
            answers = [state.search_value(a) for a in addresses]
            live_db = PrefixDatabase(width, list(live.values()))
            assert answers == [oracle_lookup_value(live_db, a) for a in addresses], (name, i)
            checkpoints.append({
                "update": i,
                "digest": digest.hexdigest(),
                "structure": hashlib.sha256(repr(state.tree.structure()).encode()).hexdigest(),
                "answers": answers,
            })
    counts = {
        "opened": len(state.supertables) - opened,
        "grown": sum(state.plan._tcam_next) - blocks,
        "spilled": spilled,
    }
    return checkpoints, counts


def render(checkpoints: list[dict]) -> str:
    """One checkpoint per line, so a diff shows where two runs part."""
    return "[\n" + ",\n".join(json.dumps(c) for c in checkpoints) + "\n]\n"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_replay_matches_its_golden(name):
    checkpoints, counts = replay(name)
    if CONFIGS[name].tight:
        assert counts["opened"] > 0 and counts["grown"] > counts["opened"], counts
        assert counts["spilled"] > 0, counts
    else:
        assert counts["spilled"] == 0, counts
    golden = json.loads((REPLAY / f"{name}.json").read_text())
    assert len(checkpoints) == len(golden)
    for got, want in zip(checkpoints, golden):
        for field in ("digest", "structure", "answers"):
            assert got[field] == want[field], f"{name}: {field} differs by update {got['update']}"


if __name__ == "__main__":
    REPLAY.mkdir(exist_ok=True)
    for name in sorted(CONFIGS):
        (REPLAY / f"{name}.json").write_text(render(replay(name)[0]))
