"""One address check: `PipelineState.search`, `oracle_lookup` and the trace
reader all go through `prefixdb.address_value`.  They accept exactly the
strings of `width` ASCII 0/1 characters, at every width from 1 to 64, and
reject everything else with their own messages, including what a bare
`int(address, 2)` would let through (`0b`, `_`, surrounding whitespace, a
sign, non-ASCII digits) and a lone surrogate, which UTF-8 cannot encode."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcamtree import Prefix, PrefixDatabase, StrideList, oracle_lookup
from tcamtree.cli import read_trace
from tcamtree.errors import MalformedLine
from tcamtree.pipeline import PipelineState
from tcamtree.prefixdb import address_value

# "١" is ARABIC-INDIC DIGIT ONE, "２" FULLWIDTH DIGIT TWO and "\ud800" a lone
# (high) surrogate
SURROGATE = "\ud800"
FOREIGN = ["0b", "_", " ", "+", "-", "2", "١", "２", SURROGATE]

widths = st.integers(1, 64)


def bit_strings(length: int):
    return st.text(alphabet="01", min_size=length, max_size=length)


def planned(width: int):
    db = PrefixDatabase(
        width, [Prefix("1", 1, "one"), Prefix("0" * width, width, "zeros")]
    )
    half = width // 2
    strides = StrideList((half, width - half) if half else (width,))
    return db, PipelineState.planned(db, strides)


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "trace.txt"

    def read(line: str, width: int):
        path.write_text(line + "\n", encoding="utf-8")
        return [format(value, f"0{width}b") for value in read_trace(path, width)]

    return read


def assert_rejected(address: str, width: int, read):
    db, state = planned(width)
    message = f"address must be exactly {width} bits of 0/1"
    with pytest.raises(ValueError) as exc:
        state.search(address)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        oracle_lookup(db, address)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        address_value(address, width)
    assert str(exc.value) == message
    if SURROGATE in address:
        return   # a trace file is UTF-8 and cannot hold a surrogate
    if not address.strip():
        # the trace format skips blank lines, whitespace-only ones included
        assert read(address, width) == []
        return
    with pytest.raises(MalformedLine) as exc:
        read(address, width)
    assert str(exc.value) == f"line 1: expected a {width}-bit address"


def assert_accepted(address: str, width: int, read):
    db, state = planned(width)
    assert address_value(address, width) == int(address, 2)
    assert state.search(address) == oracle_lookup(db, address)
    assert read(address, width) == [address]


@pytest.mark.parametrize("token", FOREIGN)
def test_a_foreign_token_is_rejected_at_every_width_and_place(token, trace_file):
    rng = random.Random(token.encode("utf-8", "surrogatepass"))   # the seed of `token` itself
    for width in range(len(token), 65):
        bits = format(rng.getrandbits(width), f"0{width}b")[len(token):]
        for at in {0, len(bits) // 2, len(bits)}:
            assert_rejected(bits[:at] + token + bits[at:], width, trace_file)


@pytest.mark.parametrize("token", FOREIGN)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_foreign_token_is_rejected_anywhere(token, data, trace_file):
    width = data.draw(st.integers(len(token), 64), label="width")
    bits = data.draw(bit_strings(width - len(token)), label="bits")
    at = data.draw(st.integers(0, len(bits)), label="at")
    assert_rejected(bits[:at] + token + bits[at:], width, trace_file)


@given(width=widths, data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_string_one_bit_short_or_long_is_rejected(width, data, trace_file):
    assert_rejected(data.draw(bit_strings(width - 1)), width, trace_file)
    assert_rejected(data.draw(bit_strings(width + 1)), width, trace_file)


def test_the_empty_string_is_rejected(trace_file):
    for width in range(1, 65):
        assert_rejected("", width, trace_file)


@given(width=widths, data=st.data())
@settings(max_examples=200, deadline=None)
def test_every_bit_string_of_the_width_is_accepted(width, data, trace_file):
    assert_accepted(data.draw(bit_strings(width)), width, trace_file)


def test_every_address_of_a_small_space_is_accepted(trace_file):
    for width in range(1, 7):
        for value in range(1 << width):
            assert_accepted(format(value, f"0{width}b"), width, trace_file)
