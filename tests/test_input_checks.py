"""Library constructors and formulas refuse out-of-range input with a named
exception, before any work is done."""

import pytest

from tcamtree import (
    GrainSpec,
    Prefix,
    PrefixDatabase,
    StrideList,
    blocks_for_table,
    lower_bound_bits,
    max_savings_factor,
    single_tcam_baseline,
)
from tcamtree._util import ceil_log2
from tcamtree.errors import LengthOutOfRange

GRAIN = GrainSpec(44, 512)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Prefix("", -1, "A"), ValueError, "prefix length must be >= 0"),
    (lambda: Prefix("0", 2, "A"), ValueError, "exactly `length` characters"),
    (lambda: Prefix("2", 1, "A"), ValueError, "only 0 and 1"),
    (lambda: Prefix("0", 1, ""), ValueError, "next_hop must be non-empty"),
    (lambda: PrefixDatabase(0), ValueError, "address_width must be >= 1"),
    (lambda: PrefixDatabase(4, [Prefix("00000", 5, "A")]), LengthOutOfRange,
     "longer than address width 4"),
    (lambda: StrideList(()), ValueError, "at least one stride"),
    (lambda: blocks_for_table(-1, 0, GRAIN), ValueError, "width and depth must be >= 0"),
    (lambda: ceil_log2(0), ValueError, "requires n >= 1"),
    (lambda: lower_bound_bits(-1, GRAIN), ValueError, "entry_count must be >= 0"),
    (lambda: single_tcam_baseline(10, 0, GRAIN), ValueError, "width_needed must be >= 1"),
    (lambda: max_savings_factor(0, 44), ValueError, "widths must be >= 1"),
], ids=[
    "prefix-negative-length", "prefix-length-mismatch", "prefix-foreign-bit",
    "prefix-empty-hop", "database-width-0", "database-prefix-too-long",
    "strides-empty", "blocks-negative-width", "ceil-log2-0", "lower-bound-negative",
    "baseline-width-0", "savings-width-0",
])
def test_out_of_range_input_is_refused(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error
