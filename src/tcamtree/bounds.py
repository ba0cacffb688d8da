"""Closed-form resource model: lower bound, single-table baseline, savings cap,
and the two-level tiling feasibility check.  Everything here is exact integer
or rational arithmetic; nothing is floated."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._util import ceil_div, ceil_log2
from .tiler import GrainSpec
from .trie import LeanLevelRow


def lower_bound_bits(entry_count: int, grain: GrainSpec) -> int:
    """No layout can use fewer ternary bits than full-width rows for every entry.

    A block holds at most `depth` entries, so super-tables of e_1, ..., e_k
    entries take at least sum(ceil(e_i / depth)) >= ceil(sum(e_i) / depth)
    blocks of `depth` x `width` bits.  The bound therefore also holds for the
    TCAM part of a hybridized plan, counted over the entries left in TCAM.
    """
    if entry_count < 0:
        raise ValueError("entry_count must be >= 0")
    return ceil_div(entry_count, grain.depth) * grain.depth * grain.width


def single_tcam_baseline(
    entry_count: int, width_needed: int, grain: GrainSpec
) -> tuple[int, int]:
    """(blocks, bits) for one logical table wide enough for `width_needed` bits."""
    if width_needed < 1:
        raise ValueError("width_needed must be >= 1")
    blocks = ceil_div(entry_count, grain.depth) * ceil_div(width_needed, grain.width)
    return blocks, blocks * grain.bits


def max_savings_factor(width_needed: int, grain_width: int) -> int:
    """Cap on bit savings of any fixed-stride tree over the single-table baseline."""
    if width_needed < 1 or grain_width < 1:
        raise ValueError("widths must be >= 1")
    return ceil_div(width_needed, grain_width)


@dataclass(frozen=True)
class TilingCondition:
    level: int
    b: Fraction
    lhs: int
    feasible: bool
    epsilon_bound: Fraction     # entry overhead of the two-level construction


def tiling_condition(
    threshold_length: int, split: LeanLevelRow, grain: GrainSpec
) -> TilingCondition:
    """Can a two-level tree split at `split.depth` fit tagged suffixes in one
    grain word?

    Feasible when threshold_length - split.depth + ceil(log2 grain.depth) <
    grain.width; the entry overhead is then bounded by twice the split level's
    pointer fraction.
    """
    lhs = threshold_length - split.depth + ceil_log2(grain.depth)
    return TilingCondition(
        level=split.depth,
        b=split.b,
        lhs=lhs,
        feasible=lhs < grain.width,
        epsilon_bound=2 * split.b / 100,
    )


@dataclass(frozen=True)
class BoundsReport:
    lower_bound_bits: int
    baseline_width: int
    baseline_blocks: int
    baseline_bits: int
    max_savings_factor_baseline_width: int
    max_savings_factor_threshold: int
    tiling: Optional[TilingCondition]

    def __post_init__(self):
        if self.lower_bound_bits > self.baseline_bits:
            raise ValueError("lower bound cannot exceed the baseline")
        if self.max_savings_factor_baseline_width < 1:
            raise ValueError("savings factor is at least 1")


def build_report(
    entry_count: int,
    threshold_length: int,
    baseline_width: int,
    grain: GrainSpec,
    split: Optional[LeanLevelRow] = None,
) -> BoundsReport:
    """Assemble the model outputs for one database and grain; the tiling check
    runs when the lean-level row of a split is given.

    Two savings caps are reported: one against the baseline width actually
    used, one against the threshold length, since the two differ whenever the
    baseline is built wider than the length that covers most entries.
    """
    blocks, bits = single_tcam_baseline(entry_count, baseline_width, grain)
    tiling = None if split is None else tiling_condition(threshold_length, split, grain)
    return BoundsReport(
        lower_bound_bits=lower_bound_bits(entry_count, grain),
        baseline_width=baseline_width,
        baseline_blocks=blocks,
        baseline_bits=bits,
        max_savings_factor_baseline_width=max_savings_factor(baseline_width, grain.width),
        max_savings_factor_threshold=max_savings_factor(
            max(threshold_length, 1), grain.width
        ),
        tiling=tiling,
    )
