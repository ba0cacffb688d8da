"""Prefix databases: canonical text format, validation, and reference longest-prefix-match.

The canonical text format is one entry per line:

    <bits>/<length> <next_hop>

`bits` is a most-significant-bit-first string of 0/1 characters.  It may be
given at exactly `length` characters or padded up to the address width; pad
characters beyond `length` must be '0' or '*'.  When the address width is 32,
dotted-quad form (`a.b.c.d/len`) is accepted as a convenience.  `#` starts a
comment, blank lines are ignored, LF and CRLF both parse; the serializer
emits zero-padded full-width bits with LF endings.

The parser reads the text a piece of about 64k characters at a time.  One
compiled pattern reads a piece's lines in the serializer's form; every other
accepted form, from its first line to the end of the piece, goes to the line
reader, which gives the same result and is the one source of every error.
"""

from __future__ import annotations

import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from ._util import parse_decimal, paused_gc
from .errors import DuplicatePrefix, EmptyDatabase, LengthOutOfRange, MalformedLine

DEFAULT_NEXT_HOP = "default"
DEFAULT_COVERAGE = Fraction(99, 100)   # share of the entries within the threshold length


@dataclass(frozen=True, slots=True)
class Prefix:
    """One route entry: significant bits (MSB first), their count, a next-hop label."""

    bits: str
    length: int
    next_hop: str

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("prefix length must be >= 0")
        if len(self.bits) != self.length:
            raise ValueError("bits must contain exactly `length` characters")
        if self.bits.strip("01"):
            raise ValueError("bits may contain only 0 and 1")
        if not self.next_hop:
            raise ValueError("next_hop must be non-empty")

    def padded(self, width: int) -> str:
        return self.bits + "0" * (width - self.length)

    def __str__(self):
        return f"{self.bits}/{self.length}"


def bits_of(value: int, length: int) -> str:
    """The `length`-bit string of a prefix's int value, leading zeros kept."""
    return format(value, f"0{length}b") if length else ""


def _length_array(address_width: int) -> array:
    """An empty array for prefix lengths up to `address_width`."""
    return array("B" if address_width < 256 else "L")


class _Columns:
    """A store being filled in file order: one {value: next hop} map per
    length and the length column.  Each distinct next hop is kept once, the
    first `str` seen with its text, so the maps and the trees built from
    them share it.  `add` takes one row and refuses a repeated prefix, named
    by its line if it has one; `add_canonical` takes a piece's
    canonical lines."""

    def __init__(self, address_width: int):
        self.width = address_width
        self.maps: defaultdict[int, dict[int, str]] = defaultdict(dict)
        self.lengths = _length_array(address_width)
        self.hops: dict[str, str] = {}

    def add(self, length: int, value: int, hop: str, lineno: Optional[int] = None):
        table = self.maps[length]
        if value in table:
            where = "" if lineno is None else f"line {lineno}: "
            raise DuplicatePrefix(f"{where}duplicate prefix {bits_of(value, length)}/{length}")
        table[value] = self.hops.setdefault(hop, hop)
        self.lengths.append(length)

    def add_canonical(self, parts: list[str], length_of: dict[str, int]) -> int:
        """Fill from a piece's `_canonical_form` split, four parts per line
        after the first part, and return how many lines were taken: all,
        or those before the first line the line reader must read (another
        form, a length text `length_of` lacks such as `/024`, a 1 in the
        padding, or a repeated prefix)."""
        # `add`'s two filing lines are inlined: calling it per row made the
        # parse about 6% slower.  The value is read from the significant
        # bits, not shifted down from all of them, since a shifted int keeps
        # its operand's size: up to 4 bytes more per entry.
        maps, lengths = self.maps, self.lengths
        share, append = self.hops.setdefault, lengths.append
        start = len(lengths)
        fields = iter(parts)
        next(fields)
        for bits, length_text, hop, _ in zip(fields, fields, fields, fields):
            length = length_of.get(length_text)
            if length is None:
                break
            if "1" in bits[length:]:
                break
            value = int(bits[:length] or "0", 2)
            table = maps[length]
            if value in table:
                break
            table[value] = share(hop, hop)
            append(length)
        return len(lengths) - start

    def by_length(self) -> tuple:
        """The length index, longest first."""
        maps = self.maps
        return tuple((l, maps[l]) for l in sorted(maps, reverse=True))


class PrefixDatabase:
    """An ordered, duplicate-free collection of prefixes at a fixed address width.

    The store is columnar.  `by_length` holds (length, {value: next hop})
    longest first, each map keyed by the prefix's bits as an int and kept in
    file order, and an array of lengths keeps the whole file order beside
    it.  Entries with equal next hops share one `str` (as DXR keeps each
    distinct next hop once).  No `Prefix` is kept: `entries` makes one per
    entry on its first read and caches them.
    """

    def __init__(self, address_width: int, entries: Iterable[Prefix] = ()):
        if address_width < 1:
            raise ValueError("address_width must be >= 1")
        self.address_width = address_width
        columns = _Columns(address_width)
        for p in entries:
            if p.length > address_width:
                raise LengthOutOfRange(f"prefix {p} longer than address width {address_width}")
            columns.add(p.length, int(p.bits or "0", 2), p.next_hop)
        # The length index, read-only: `oracle_lookup` probes it in this
        # order, `build_tree` reads it shortest first.
        self.by_length, self._lengths = columns.by_length(), columns.lengths
        self._entries: Optional[tuple[Prefix, ...]] = None

    @classmethod
    def _from_columns(cls, address_width: int, by_length: tuple, lengths: array) -> "PrefixDatabase":
        db = cls(address_width)
        db.by_length, db._lengths = by_length, lengths
        return db

    def in_order(self) -> Iterator[tuple[int, int, str]]:
        """(length, value, next hop) of each entry, in file order."""
        items = {length: iter(table.items()) for length, table in self.by_length}
        for length in self._lengths:
            value, hop = next(items[length])
            yield length, value, hop

    @property
    def entries(self) -> tuple[Prefix, ...]:
        """The entries in file order, one `Prefix` each, made on first read."""
        if self._entries is None:
            self._entries = tuple(
                Prefix(bits_of(value, length), length, hop)
                for length, value, hop in self.in_order()
            )
        return self._entries

    def __len__(self):
        return len(self._lengths)

    def __eq__(self, other):
        return (
            isinstance(other, PrefixDatabase)
            and self.address_width == other.address_width
            and list(self.in_order()) == list(other.in_order())
        )

    def max_length(self) -> int:
        return self.by_length[0][0] if self.by_length else 0

    def restricted(self, max_length: int) -> "PrefixDatabase":
        """Entries with length <= max_length, original order preserved.  The
        database is immutable, so when nothing is cut it is its own answer,
        and the maps it keeps are shared."""
        if self.max_length() <= max_length:
            return self
        lengths = _length_array(self.address_width)
        lengths.extend(l for l in self._lengths if l <= max_length)
        by_length = tuple((l, table) for l, table in self.by_length if l <= max_length)
        return PrefixDatabase._from_columns(self.address_width, by_length, lengths)


def dotted_to_bits(token: str) -> str:
    parts = token.split(".")
    if len(parts) != 4:
        raise ValueError("dotted form needs four octets")
    value = 0
    for part in parts:
        octet = parse_decimal(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet {octet} out of range")
        value = value * 256 + octet
    return format(value, "032b")


def _parse_value(token: str, length: int, address_width: int) -> int:
    """The int value of a prefix's significant bits."""
    if "." in token:
        if address_width != 32:
            raise ValueError("dotted form requires address width 32")
        token = dotted_to_bits(token)
    if len(token) < length:
        raise ValueError(f"bits shorter than stated length {length}")
    if len(token) > address_width:
        raise ValueError(f"bits longer than address width {address_width}")
    significant, padding = token[:length], token[length:]
    if significant.strip("01"):
        raise ValueError("significant bits may contain only 0 and 1")
    if padding.strip("0*"):
        raise ValueError("padding beyond the stated length must be 0 or *")
    return int(significant or "0", 2)


_PIECE = 1 << 16   # about this many characters of text are read at a time


def _pieces(text: str) -> Iterator[str]:
    r"""The text's lines in pieces of whole lines, about `_PIECE` characters
    each, without the newline between two pieces: `piece.split("\n")` of
    each gives the lines of `text.split("\n")`, less the empty line after a
    final newline."""
    start, stop = 0, len(text) - text.endswith("\n")
    while start < stop:
        end = text.find("\n", start + _PIECE, stop)
        if end < 0:
            end = stop
        yield text[start:end]
        start = end + 1


def _canonical_form(address_width: int):
    r"""The pattern of a piece's lines, and the length of each plain decimal
    length text up to the width.  The first branch matches the line
    `serialize` writes (spaces, tabs or a CR may stand around the hop); the
    `.*` branch matches any other line, so the pattern's `split` gives the
    three fields of each line, or three `None`s, and the newline after it.
    `[0-9]`, as `\d` takes non-ASCII digits; no `re.ASCII`, so `\s` is the
    whitespace `str.split` splits on.  `split`, not `findall`: a tuple per
    line would leave the collector's young count up to 2,000 higher after
    the parse's pause."""
    digits = len(str(address_width))
    pattern = re.compile(
        rf"^(?:([01]{{{address_width}}})/([0-9]{{1,{digits}}})[ \t\r]+([^\s#]+)[ \t\r]*|.*)$",
        re.M,
    )
    return pattern, {str(length): length for length in range(address_width + 1)}


def parse_database(text: str, address_width: int) -> PrefixDatabase:
    """Parse the canonical text format, preserving file order and rejecting
    duplicates.  The text is read a piece at a time.  One pattern split
    gives the fields of each line of the piece, and the canonical lines go
    straight into the columns; from the first line that is not one, the
    line reader reads the rest of the piece.  So every other form, and
    every error, is read by the line reader."""
    with paused_gc:
        columns = _Columns(address_width)
        pattern, length_of = _canonical_form(address_width)
        lineno = 1
        for piece in _pieces(text):
            parts = pattern.split(piece)
            lines = len(parts) // 4
            taken = columns.add_canonical(parts, length_of)
            if taken < lines:
                _read_lines(columns, piece.split("\n")[taken:], lineno + taken)
            lineno += lines
        return PrefixDatabase._from_columns(address_width, columns.by_length(), columns.lengths)


def _read_lines(columns: _Columns, lines: list[str], lineno: int):
    """The line reader: each line from line number `lineno` on validated
    once, in any accepted form, its entry added to the columns."""
    address_width = columns.width
    for lineno, raw in enumerate(lines, start=lineno):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 2:
            raise MalformedLine(lineno, f"expected '<prefix>/<len> <next_hop>', got {raw!r}")
        spec, next_hop = fields
        head, sep, len_str = spec.rpartition("/")
        if not sep:
            raise MalformedLine(lineno, "missing '/<len>'")
        try:
            length = parse_decimal(len_str)
        except ValueError:
            raise MalformedLine(lineno, f"bad length {len_str!r}") from None
        if not 0 <= length <= address_width:
            raise LengthOutOfRange(
                f"line {lineno}: length {length} outside 0..{address_width}"
            )
        try:
            value = _parse_value(head, length, address_width)
        except ValueError as exc:
            raise MalformedLine(lineno, str(exc)) from None
        columns.add(length, value, next_hop, lineno)


def read_text(path) -> str:
    """A file's UTF-8 text; a file that is not UTF-8 is named in the error."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def parse_file(path, address_width: int) -> PrefixDatabase:
    return parse_database(read_text(path), address_width)


def serialize(db: PrefixDatabase) -> str:
    """Canonical form: zero-padded full-width bits, LF line endings."""
    width = db.address_width
    return "".join(
        f"{value << (width - length):0{width}b}/{length} {hop}\n"
        for length, value, hop in db.in_order()
    )


def address_value(address: str, width: int) -> int:
    """The int value of `address`, a string of exactly `width` 0/1 characters:
    the one check every address passes.  `isascii` rules out non-ASCII text
    (and comes first: `encode` raises on a lone surrogate), `isdigit` on the
    bytes rules out what `int` would skip (`_`, whitespace, a sign, `0b`)
    and accepts the same ASCII characters as `str.isdigit` at a fraction of
    its cost, and `int` rules out 2-9."""
    if len(address) == width and address.isascii() and address.encode().isdigit():
        try:
            return int(address, 2)
        except ValueError:
            pass
    raise ValueError(f"address must be exactly {width} bits of 0/1")


def oracle_lookup(db: PrefixDatabase, address: str) -> str:
    """Reference longest-prefix-match: the deepest entry whose bits prefix `address`.

    Total over valid addresses; returns the default label on no match.
    """
    return oracle_lookup_value(db, address_value(address, db.address_width))


def oracle_lookup_value(db: PrefixDatabase, value: int) -> str:
    """`oracle_lookup` of an address given as its int value, unchecked."""
    width = db.address_width
    for length, table in db.by_length:
        hop = table.get(value >> (width - length))
        if hop is not None:
            return hop
    return DEFAULT_NEXT_HOP


def max_threshold_length(db: PrefixDatabase, coverage=DEFAULT_COVERAGE) -> int:
    """Smallest M such that at least `coverage` of the entries have length <= M."""
    coverage = Fraction(str(coverage)) if isinstance(coverage, float) else Fraction(coverage)
    if not 0 < coverage <= 1:
        raise ValueError("coverage must lie in (0, 1]")
    if len(db) == 0:
        raise EmptyDatabase("cannot compute a threshold length for an empty database")
    cumulative = 0
    for length, prefixes in reversed(db.by_length):
        cumulative += len(prefixes)
        if Fraction(cumulative, len(db)) >= coverage:
            return length
    raise AssertionError("unreachable: full cumulative count covers every fraction")
