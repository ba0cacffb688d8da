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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

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


class PrefixDatabase:
    """An ordered, duplicate-free collection of prefixes at a fixed address width."""

    def __init__(self, address_width: int, entries: Iterable[Prefix] = ()):
        if address_width < 1:
            raise ValueError("address_width must be >= 1")
        self.address_width = address_width
        self.entries: tuple[Prefix, ...] = tuple(entries)
        by_length: dict[int, dict[str, str]] = {}
        for p in self.entries:
            if p.length > address_width:
                raise LengthOutOfRange(
                    f"prefix {p} longer than address width {address_width}"
                )
            table = by_length.setdefault(p.length, {})
            if p.bits in table:
                raise DuplicatePrefix(f"duplicate prefix {p}")
            table[p.bits] = p.next_hop
        # The length index, read-only: (length, {bits: next hop}) longest
        # first, each map in file order.  `oracle_lookup` probes it in this
        # order, `build_tree` reads it shortest first.
        self.by_length = tuple((l, by_length[l]) for l in sorted(by_length, reverse=True))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, PrefixDatabase)
            and self.address_width == other.address_width
            and self.entries == other.entries
        )

    def max_length(self) -> int:
        return self.by_length[0][0] if self.by_length else 0

    def restricted(self, max_length: int) -> "PrefixDatabase":
        """Entries with length <= max_length, original order preserved.  The
        database is immutable, so when nothing is cut it is its own answer."""
        if self.max_length() <= max_length:
            return self
        return PrefixDatabase(
            self.address_width, [p for p in self.entries if p.length <= max_length]
        )


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


def _parse_bits(token: str, length: int, address_width: int) -> str:
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
    return significant


def parse_database(text: Union[str, bytes], address_width: int) -> PrefixDatabase:
    """Parse the canonical text format, preserving file order and rejecting duplicates."""
    with paused_gc:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        entries: list[Prefix] = []
        seen: set[str] = set()
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
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
                bits = _parse_bits(head, length, address_width)
            except ValueError as exc:
                raise MalformedLine(lineno, str(exc)) from None
            if bits in seen:
                raise DuplicatePrefix(f"line {lineno}: duplicate prefix {bits}/{length}")
            seen.add(bits)
            entries.append(Prefix(bits, length, next_hop))
        return PrefixDatabase(address_width, entries)


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
    lines = [
        f"{p.padded(db.address_width)}/{p.length} {p.next_hop}" for p in db.entries
    ]
    return "".join(line + "\n" for line in lines)


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
    address_value(address, db.address_width)
    for length, table in db.by_length:
        hop = table.get(address[:length])
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
