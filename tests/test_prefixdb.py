import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcamtree import (
    Prefix,
    PrefixDatabase,
    max_threshold_length,
    oracle_lookup,
    parse_database,
    parse_file,
    serialize,
)
from tcamtree.errors import (
    DuplicatePrefix,
    EmptyDatabase,
    LengthOutOfRange,
    MalformedLine,
)
from tcamtree import prefixdb
from tcamtree.prefixdb import bits_of, dotted_to_bits

from tests.helpers import (
    TABLE1_TEXT,
    all_addresses,
    build_pointer_trie,
    linear_scan_lookup,
    table1_db,
    trie_lookup,
)


@st.composite
def databases(draw, max_width=8, max_entries=24):
    width = draw(st.integers(min_value=2, max_value=max_width))
    raw = draw(
        st.lists(
            st.tuples(st.integers(0, width), st.integers(0, (1 << max_width) - 1), st.integers(0, 5)),
            max_size=max_entries,
        )
    )
    seen, entries = set(), []
    for length, value, hop in raw:
        bits = format(value & ((1 << length) - 1), f"0{length}b") if length else ""
        if bits in seen:
            continue
        seen.add(bits)
        entries.append(Prefix(bits, length, f"h{hop}"))
    return PrefixDatabase(width, entries)


@st.composite
def nested_entries(draw, max_width=16):
    """(width, prefixes, lines): distinct prefixes at widths 1-16, with a
    /0 now and then, and the parent and the sibling of a drawn prefix often
    present too; `lines` writes each one bare, 0-padded or *-padded."""
    width = draw(st.integers(1, max_width))
    seeds = draw(st.lists(st.tuples(st.integers(0, width), st.integers(0, (1 << width) - 1)),
                          max_size=12))
    bits_list = [""] if draw(st.booleans()) else []
    for length, value in seeds:
        bits = format(value >> (width - length), f"0{length}b") if length else ""
        bits_list.append(bits)
        if bits and draw(st.booleans()):
            bits_list.append(bits[:-1])                                   # its parent
        if bits and draw(st.booleans()):
            bits_list.append(bits[:-1] + ("1" if bits[-1] == "0" else "0"))   # its sibling
    bits_list = list(dict.fromkeys(draw(st.permutations(bits_list))))
    prefixes = [Prefix(bits, len(bits), f"h{i % 3}") for i, bits in enumerate(bits_list)]
    pads = draw(st.lists(st.sampled_from(["", "0", "*"]), min_size=len(prefixes),
                         max_size=len(prefixes)))
    lines = "".join(
        f"{p.bits + pad * (width - p.length)}/{p.length} {p.next_hop}\n"
        for p, pad in zip(prefixes, pads)
    )
    return width, prefixes, lines


def length_index(db):
    """`by_length` item for item, in order."""
    return [(length, list(table.items())) for length, table in db.by_length]


def line_only(text, width):
    """The database the line reader alone reads from `text`."""
    columns = prefixdb._Columns(width)
    prefixdb._read_lines(columns, text.split("\n"), 1)
    return PrefixDatabase._from_columns(width, columns.by_length(), columns.lengths)


def hop_sharing(db):
    """For each entry in file order, the place of the first entry whose
    next hop is the same object."""
    hops = [hop for _, _, hop in db.in_order()]
    first = {}
    return [first.setdefault(id(hop), i) for i, hop in enumerate(hops)]


@st.composite
def mixed_texts(draw):
    """(width, text): distinct prefixes, each line in a form the line reader
    accepts (canonical most often; bare, `*`-padded, partly 0-padded, a
    length with a leading zero, dotted at width 32, with tabs, a trailing
    comment or a CR), with comment and blank lines between them, LF or
    CRLF endings, and a final newline or none."""
    width = draw(st.sampled_from([1, 2, 3, 5, 8, 12, 32]))
    raw = draw(st.lists(st.tuples(st.integers(0, width), st.integers(0, (1 << width) - 1)),
                        max_size=30))
    prefixes = dict.fromkeys((length, value >> (width - length)) for length, value in raw)
    forms = ["canonical"] * 4 + ["bare", "star", "zeros"] + (["dotted"] if width == 32 else [])
    lines = []
    for length, value in prefixes:
        bits = bits_of(value, length)
        form = draw(st.sampled_from(forms))
        if form == "canonical":
            spec = bits.ljust(width, "0")
        elif form == "bare":
            spec = bits
        elif form == "star":
            spec = bits.ljust(width, "*")
        elif form == "zeros":
            spec = bits + "0" * draw(st.integers(0, width - length))
        else:
            spec = ".".join(str(b) for b in (value << (width - length)).to_bytes(4, "big"))
        length_text = draw(st.sampled_from([str(length)] * 3 + [f"0{length}"]))
        sep = draw(st.sampled_from([" ", " ", "\t", " \t "]))
        hop = draw(st.sampled_from(["a", "b", "via-c"]))
        tail = draw(st.sampled_from(["", "", " ", " # note", "#x", "\r"]))
        lines.append(f"{spec}/{length_text}{sep}{hop}{tail}")
        extra = draw(st.sampled_from([None] * 4 + ["", "# comment", "   ", "\r"]))
        if extra is not None:
            lines.append(extra)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return width, newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestParse:
    def test_table1_parses_to_six_entries(self):
        db = parse_database(TABLE1_TEXT, 6)
        assert len(db) == 6
        assert db.entries[0] == Prefix("1", 1, "A")
        assert db.entries[4] == Prefix("100110", 6, "E")

    def test_empty_input_gives_empty_database(self):
        db = parse_database("", 6)
        assert len(db) == 0
        assert len(parse_database("# only comments\n\n", 6)) == 0

    def test_duplicate_prefix_rejected(self):
        with pytest.raises(DuplicatePrefix):
            parse_database("1000/4 B\n1000/4 B\n", 6)
        with pytest.raises(DuplicatePrefix):
            parse_database("1000/4 B\n100000/4 C\n", 6)

    def test_duplicate_prefix_messages(self):
        # the parser names the line; the database names only the prefix
        with pytest.raises(DuplicatePrefix, match=r"^line 2: duplicate prefix 1000/4$"):
            parse_database("1000/4 B\n1000/4 C\n", 6)
        with pytest.raises(DuplicatePrefix, match=r"^duplicate prefix 10/2$"):
            PrefixDatabase(6, [Prefix("10", 2, "a"), Prefix("10", 2, "b")])
        # the int key is rendered back with its leading zeros
        with pytest.raises(DuplicatePrefix, match=r"^line 2: duplicate prefix 0001/4$"):
            parse_database("0001/4 a\n0001****/4 b\n", 8)

    def test_length_out_of_range(self):
        with pytest.raises(LengthOutOfRange):
            parse_database("1000/7 B\n", 6)

    def test_malformed_lines_carry_line_numbers(self):
        with pytest.raises(MalformedLine) as err:
            parse_database("1000/4 B\nnonsense\n", 6)
        assert err.value.lineno == 2
        with pytest.raises(MalformedLine):
            parse_database("11/1 A\n", 6)  # 1-bit set beyond the stated length
        with pytest.raises(MalformedLine):
            parse_database("2000/4 B\n", 6)
        with pytest.raises(MalformedLine):
            parse_database("1000/x B\n", 6)
        with pytest.raises(MalformedLine):
            parse_database("1000/4\n", 6)

    def test_exact_length_and_padded_forms_agree(self):
        a = parse_database("1/1 A\n", 6)
        b = parse_database("100000/1 A\n", 6)
        c = parse_database("1*****/1 A\n", 6)
        assert a.entries == b.entries == c.entries

    def test_crlf_and_inline_comments(self):
        db = parse_database("1000/4 B # trailing\r\n1/1 A\r\n", 6)
        assert len(db) == 2

    def test_dotted_quad_adapter(self):
        assert dotted_to_bits("10.0.0.0") == "00001010" + "0" * 24
        db = parse_database("10.0.0.0/8 X\n192.168.0.0/16 Y\n", 32)
        assert db.entries[0] == Prefix("00001010", 8, "X")
        assert db.entries[1].length == 16
        with pytest.raises(MalformedLine):
            parse_database("10.0.0.0/8 X\n", 16)

    def test_leading_zeros_are_accepted(self):
        db = parse_database("010.000.0.1/032 X\n", 32)
        assert db.entries[0] == Prefix(format((10 << 24) + 1, "032b"), 32, "X")

    def test_byte_stream_input(self, tmp_path):
        # `parse_database` takes text; bytes are decoded once, by `parse_file`
        path = tmp_path / "db.txt"
        path.write_bytes((TABLE1_TEXT + "0/1 vía\n").encode("utf-8"))
        db = parse_file(path, 6)
        assert len(db) == 7 and db.entries[-1] == Prefix("0", 1, "vía")

    @given(mixed_texts(), st.integers(0, 60))
    @settings(max_examples=150)
    def test_pieces_read_as_the_line_reader_alone(self, case, piece):
        # A piece this small puts rows on both sides of piece boundaries.
        width, text = case
        with mock.patch.object(prefixdb, "_PIECE", piece):
            parsed = parse_database(text, width)
        expected = line_only(text, width)
        assert length_index(parsed) == length_index(expected)
        assert parsed.entries == expected.entries
        assert parsed._lengths == expected._lengths
        texts = [hop for _, _, hop in expected.in_order()]
        first_with_text = [texts.index(hop) for hop in texts]
        assert hop_sharing(parsed) == hop_sharing(expected) == first_with_text

    def test_equal_next_hops_are_one_object(self):
        # Each line's hop is a fresh string; the database keeps the first.
        db = parse_database("0000/4 via-a\n0001/4 via-b\n0010/4 via-a\n01/2 via-a\n", 4)
        hops = {length: list(table.values()) for length, table in db.by_length}
        first, other, again = hops[4]
        (shorter,) = hops[2]
        assert (first, other) == ("via-a", "via-b")
        assert again is first and shorter is first
        built = PrefixDatabase(4, [Prefix("0", 1, "".join(["x", "y"])), Prefix("1", 1, "xy")])
        (_, table), = built.by_length
        left, right = table.values()
        assert left is right


class TestSerialize:
    def test_round_trip_on_table1(self):
        db = table1_db()
        assert parse_database(serialize(db), 6) == db

    @given(databases())
    @settings(max_examples=60)
    def test_parse_serialize_identity(self, db):
        assert parse_database(serialize(db), db.address_width) == db

    @given(nested_entries())
    @settings(max_examples=100)
    def test_parsed_columns_equal_constructed_ones(self, case):
        width, prefixes, lines = case
        parsed, built = parse_database(lines, width), PrefixDatabase(width, prefixes)
        expected: dict[int, list] = {}
        for p in prefixes:
            expected.setdefault(p.length, []).append((int(p.bits or "0", 2), p.next_hop))
        assert length_index(parsed) == length_index(built) == sorted(expected.items(), reverse=True)
        assert parsed.entries == built.entries == tuple(prefixes)
        assert parsed.entries is parsed.entries
        assert len(parsed) == len(built) == len(prefixes)
        assert parsed == built
        for k in range(width + 1):
            cut_parsed, cut_built = parsed.restricted(k), built.restricted(k)
            assert length_index(cut_parsed) == length_index(cut_built)
            assert cut_parsed.entries == tuple(p for p in prefixes if p.length <= k)
            assert cut_parsed == cut_built and len(cut_parsed) == len(cut_built)
            assert serialize(cut_parsed) == serialize(cut_built)
        canonical = "".join(
            f"{p.bits.ljust(width, '0')}/{p.length} {p.next_hop}\n" for p in prefixes
        )
        assert serialize(parsed) == serialize(built) == canonical

    def test_order_matters_to_equality(self):
        a = PrefixDatabase(4, [Prefix("1", 1, "x"), Prefix("01", 2, "y")])
        b = PrefixDatabase(4, [Prefix("01", 2, "y"), Prefix("1", 1, "x")])
        c = PrefixDatabase(4, [Prefix("1", 1, "x"), Prefix("00", 2, "y"), Prefix("01", 2, "y")])
        d = PrefixDatabase(4, [Prefix("1", 1, "x"), Prefix("01", 2, "y"), Prefix("00", 2, "y")])
        assert a != b and c != d
        assert a == PrefixDatabase(4, a.entries)

    def test_serializer_emits_lf_and_padding(self):
        text = serialize(parse_database("1/1 A\n", 6))
        assert text == "100000/1 A\n"


class TestOracle:
    def test_table1_examples(self):
        db = table1_db()
        assert oracle_lookup(db, "100110") == "E"
        assert oracle_lookup(db, "111111") == "A"
        assert oracle_lookup(db, "011111") == "default"

    def test_rejects_bad_addresses(self):
        db = table1_db()
        with pytest.raises(ValueError):
            oracle_lookup(db, "10011")
        with pytest.raises(ValueError):
            oracle_lookup(db, "10011x")

    @given(databases())
    @settings(max_examples=40)
    def test_three_independent_lookups_agree(self, db):
        # dict-probe oracle vs. literal scan vs. trie walk, full space
        root = build_pointer_trie(db)
        for address in all_addresses(db.address_width):
            expected = linear_scan_lookup(db, address)
            assert oracle_lookup(db, address) == expected
            assert trie_lookup(root, address) == expected


class TestMaxThreshold:
    def test_table1_full_coverage(self):
        assert max_threshold_length(table1_db(), 1) == 6

    def test_table1_half_coverage(self):
        # 4 of 6 entries have length <= 5; 2 of 6 at length <= 4
        assert max_threshold_length(table1_db(), Fraction(1, 2)) == 5

    def test_single_zero_length_entry(self):
        db = PrefixDatabase(8, [Prefix("", 0, "X")])
        assert max_threshold_length(db, Fraction(99, 100)) == 0

    def test_empty_database_rejected(self):
        with pytest.raises(EmptyDatabase):
            max_threshold_length(PrefixDatabase(6), 1)

    @given(databases(), st.integers(1, 100), st.integers(1, 100))
    @settings(max_examples=60)
    def test_monotone_in_coverage(self, db, a, b):
        if len(db) == 0:
            return
        lo, hi = sorted((Fraction(a, 100), Fraction(b, 100)))
        assert max_threshold_length(db, lo) <= max_threshold_length(db, hi)

    def test_float_coverage_accepted(self):
        assert max_threshold_length(table1_db(), 0.99) == 6


class TestRestricted:
    def test_restriction_preserves_order(self):
        db = table1_db()
        small = db.restricted(5)
        assert [p.next_hop for p in small.entries] == ["A", "B", "C", "D"]

    def test_nothing_cut_returns_the_same_database(self):
        db = table1_db()
        assert db.restricted(6) is db
        assert db.restricted(64) is db
        empty = PrefixDatabase(6)
        assert empty.restricted(0) is empty

    def test_cut_returns_a_copy_in_file_order(self):
        db = table1_db()
        small = db.restricted(4)
        assert small is not db
        assert small.entries == tuple(p for p in db.entries if p.length <= 4)
        assert small.address_width == db.address_width


def spanning_lines(width=64, count=2500, seed=7):
    """`count` canonical lines of distinct prefixes shorter than `width`,
    over several of the parser's pieces."""
    rng, seen, lines = random.Random(seed), set(), []
    while len(lines) < count:
        length = rng.randint(8, width - 1)
        value = rng.getrandbits(length)
        if (length, value) not in seen:
            seen.add((length, value))
            lines.append(f"{value << (width - length):0{width}b}/{length} h{rng.randint(0, 9)}")
    return lines


def first_piece_lines(lines):
    return len(next(prefixdb._pieces("\n".join(lines))).split("\n"))


class TestParseErrors:
    """An error anywhere, past the first piece too, is the line reader's:
    the same type and text, line number included."""

    BAD_LINES = {
        "a 1 in the padding": lambda line: line.split("/")[0][:-1] + "1/" + line.split("/")[1],
        "/65 at width 64": lambda line: line.split("/")[0] + "/65 h1",
        "a non-ASCII digit in the length": lambda line: line.split("/")[0] + "/\u06624 h1",
        "U+00A0 in a hop": lambda line: line + "\u00a0x",
        "three fields": lambda line: line + " extra",
        "a missing /": lambda line: line.split("/")[0] + " h1",
    }

    @pytest.mark.parametrize("kind", [*BAD_LINES, "a duplicate"])
    def test_errors_match_the_line_reader(self, kind):
        lines = spanning_lines()
        boundary = first_piece_lines(lines)
        assert boundary < len(lines) // 2
        for at in (0, boundary - 1, boundary, len(lines) - 1):
            bad = list(lines)
            if kind == "a duplicate":
                bad[at] = lines[at - 1] if at else lines[1]
                where = max(at, 1) + 1
            else:
                bad[at] = self.BAD_LINES[kind](lines[at])
                where = at + 1
            text = "\n".join(bad) + "\n"
            with pytest.raises(Exception) as expected:
                line_only(text, 64)
            with pytest.raises(type(expected.value)) as got:
                parse_database(text, 64)
            assert type(got.value) is type(expected.value)
            assert str(got.value) == str(expected.value)
            assert str(got.value).startswith(f"line {where}: ")


class TestLineReaderWork:
    """Canonical lines never reach the line reader; any other line sends it
    at most the rest of its piece."""

    def count_lines_read(self, monkeypatch):
        counts = []
        read = prefixdb._read_lines

        def counting(columns, lines, lineno):
            counts.append(len(lines))
            return read(columns, lines, lineno)

        monkeypatch.setattr(prefixdb, "_read_lines", counting)
        return counts

    @pytest.mark.parametrize("width", [32, 64])
    def test_a_serialized_database_reads_no_line_through_it(self, monkeypatch, width):
        db = parse_database("\n".join(spanning_lines(width)), width)
        empty = PrefixDatabase(width)
        counts = self.count_lines_read(monkeypatch)
        assert parse_database(serialize(db), width) == db
        assert parse_database(serialize(empty), width) == empty
        assert counts == []

    def test_one_comment_sends_at_most_the_rest_of_its_piece(self, monkeypatch):
        lines = spanning_lines()
        middle = len(lines) // 2
        lines.insert(middle, "# a comment")
        text = "\n".join(lines) + "\n"
        start = 0
        for piece in prefixdb._pieces(text):
            end = start + piece.count("\n") + 1
            if start <= middle < end:
                break
            start = end
        expected = line_only(text, 64)
        counts = self.count_lines_read(monkeypatch)
        assert parse_database(text, 64) == expected
        assert len(counts) == 1 and 1 <= counts[0] <= end - middle
