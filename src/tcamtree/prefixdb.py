"""Prefix databases: canonical text format, validation, and reference longest-prefix-match.

The canonical text format is one entry per line:

    <bits>/<length> <next_hop>

`bits` is a most-significant-bit-first string of 0/1 characters.  It may be
given at exactly `length` characters or padded up to the address width; pad
characters beyond `length` must be '0' or '*'.  When the address width is 32,
dotted-quad form (`a.b.c.d/len`) is accepted as a convenience.  `#` starts a
comment, blank lines are ignored, LF and CRLF both parse; the serializer
emits zero-padded full-width bits with LF endings.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from ._util import parse_decimal, paused_gc
from .errors import DuplicatePrefix, EmptyDatabase, LengthOutOfRange, MalformedLine

DEFAULT_NEXT_HOP = "default"


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


def _columns(address_width: int, rows: Iterable[tuple[Optional[int], int, int, str]]):
    """The store filled from (line number or None, length, value, next hop)
    rows in file order: the length index, longest first, and the length
    column.  Each distinct next hop is kept once, the first `str` seen
    with its text, so the maps and the trees built from them share it.  A
    repeated prefix is refused, named by its line if it has one."""
    maps: defaultdict[int, dict[int, str]] = defaultdict(dict)
    lengths = _length_array(address_width)
    hops: dict[str, str] = {}
    for lineno, length, value, hop in rows:
        table = maps[length]
        if value in table:
            where = "" if lineno is None else f"line {lineno}: "
            raise DuplicatePrefix(f"{where}duplicate prefix {bits_of(value, length)}/{length}")
        table[value] = hops.setdefault(hop, hop)
        lengths.append(length)
    return tuple((l, maps[l]) for l in sorted(maps, reverse=True)), lengths


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
        # The length index, read-only: `oracle_lookup` probes it in this
        # order, `build_tree` reads it shortest first.
        self.by_length, self._lengths = _columns(
            address_width, _prefix_rows(entries, address_width)
        )
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

    def __iter__(self):
        return iter(self.entries)

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


def _prefix_rows(entries: Iterable[Prefix], address_width: int):
    """The store's rows of `Prefix` entries, each checked against the width."""
    for p in entries:
        if p.length > address_width:
            raise LengthOutOfRange(f"prefix {p} longer than address width {address_width}")
        yield None, p.length, int(p.bits or "0", 2), p.next_hop


@dataclass(frozen=True)
class MaxThreshold:
    """Smallest length covering at least `coverage_fraction` of the entries."""

    length: int
    coverage_fraction: Fraction


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


def _lines(text: str, piece: int = 1 << 16) -> Iterator[str]:
    """The lines `text.split("\n")` gives, without a list of them all: the
    text is split a piece of about `piece` characters at a time."""
    start = 0
    while True:
        end = text.find("\n", start + piece)
        if end < 0:
            yield from text[start:].split("\n")
            return
        yield from text[start:end].split("\n")
        start = end + 1


def parse_database(text: Union[str, bytes], address_width: int) -> PrefixDatabase:
    """Parse the canonical text format, preserving file order and rejecting
    duplicates.  Each line goes straight into the database's columns."""
    with paused_gc:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return PrefixDatabase._from_columns(
            address_width, *_columns(address_width, _parsed_rows(text, address_width))
        )


def _parsed_rows(text: str, address_width: int):
    """The store's rows of the text's entry lines, each validated once."""
    for lineno, raw in enumerate(_lines(text), start=1):
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
        yield lineno, length, value, next_hop


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
    the one check every address passes.  `isdigit` rules out what `int` would
    skip (`_`, whitespace, a sign, `0b`), `isascii` rules out non-ASCII
    digits, and `int` rules out 2-9."""
    if len(address) == width and address.isascii() and address.isdigit():
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


def max_threshold_length(db: PrefixDatabase, coverage=Fraction(99, 100)) -> MaxThreshold:
    """Smallest M such that at least `coverage` of the entries have length <= M."""
    if isinstance(coverage, float):
        coverage = Fraction(str(coverage))
    else:
        coverage = Fraction(coverage)
    if not 0 < coverage <= 1:
        raise ValueError("coverage must lie in (0, 1]")
    if len(db) == 0:
        raise EmptyDatabase("cannot compute a threshold length for an empty database")
    cumulative = 0
    for length, prefixes in reversed(db.by_length):
        cumulative += len(prefixes)
        if Fraction(cumulative, len(db)) >= coverage:
            return MaxThreshold(length, coverage)
    raise AssertionError("unreachable: full cumulative count covers every fraction")
