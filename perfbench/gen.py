"""Seeded generator of BGP-shaped synthetic prefix tables, address sets and
update streams.

The tables are synthetic.  Their prefix-length mixes are rounded from the
published shapes of the public default-free BGP tables (Geoff Huston's annual
"BGP in <year>" reports and the CIDR Report, as seen from RouteViews and RIPE
RIS): IPv4 is mostly /24 with /22-/23 next; IPv6 peaks at /48, then /32 and
/44.  They are not the paper's snapshot tables and no result from them is a
paper number.

Shared structure is planted rather than left to uniform random bits: every
prefix lies under (or, when shorter, covers) one allocation from a pool
(/16s for IPv4, /32s for IPv6), and allocations carry Zipf weights, so a few
allocations hold many more-specifics as in real tables.  How many prefixes
of each length each allocation holds is apportioned from the weights; the
seed picks the allocations, the bits below them and the next hops.  All
draws go through one `random.Random(seed)`, so the same seed gives the same
table text, and picks bisect on precomputed cumulative weights, so
generation stays linear in the table size.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

from tcamtree import Prefix, PrefixDatabase

# Relative weights per prefix length, rounded from the published tables.
# Lengths below /8 (IPv4) and /20 (IPv6) carry no weight; more-specifics
# past /24 in IPv4 are filtered by most default-free networks and are left out.
IPV4_LENGTH_WEIGHTS = {
    8: 2, 9: 2, 10: 4, 11: 10, 12: 30, 13: 55, 14: 100, 15: 180,
    16: 1350, 17: 850, 18: 1450, 19: 2400, 20: 3800, 21: 4400,
    22: 10500, 23: 9700, 24: 58600,
}
IPV6_LENGTH_WEIGHTS = {
    20: 3, 22: 3, 24: 15, 26: 8, 27: 6, 28: 110, 29: 380, 30: 60, 31: 40,
    32: 1300, 33: 110, 34: 80, 35: 50, 36: 320, 37: 40, 38: 90, 39: 40,
    40: 600, 41: 40, 42: 140, 43: 50, 44: 900, 45: 110, 46: 220, 47: 160,
    48: 4700, 52: 15, 56: 50, 60: 10, 64: 60,
}


@dataclass(frozen=True)
class Shape:
    """One address family: width, length mix and allocation pool."""

    name: str
    width: int
    length_weights: dict
    alloc_len: int          # planted allocation length (/16 or /32)
    alloc_head: str         # fixed leading bits of every allocation
    entries_per_alloc: int  # pool size = table size // entries_per_alloc
    zipf_s: float           # allocation popularity exponent


IPV4 = Shape("ipv4", 32, IPV4_LENGTH_WEIGHTS, 16, "", 24, 0.6)
IPV6 = Shape("ipv6", 64, IPV6_LENGTH_WEIGHTS, 32, "001", 7, 0.8)

NEXT_HOPS = 64


def _bits(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b") if n else ""


def _apportion(total: int, weights: dict) -> dict:
    """`total` split over the keys of `weights` in proportion, by largest
    remainder; returns {key: count} for the keys that get any."""
    whole = sum(weights.values())
    quotas = {k: total * w / whole for k, w in weights.items()}
    counts = {k: int(q) for k, q in quotas.items()}
    by_remainder = sorted(quotas, key=lambda k: (counts[k] - quotas[k], k))
    for k in by_remainder[: total - sum(counts.values())]:
        counts[k] += 1
    return {k: c for k, c in sorted(counts.items()) if c}


class TableGenerator:
    """Draws fresh prefixes of one shape; every draw is a pure function of the seed."""

    def __init__(self, shape: Shape, size: int, rng: random.Random):
        self.shape = shape
        self.rng = rng
        free = shape.alloc_len - len(shape.alloc_head)
        pool: list[str] = []
        seen: set[str] = set()
        target = max(16, size // shape.entries_per_alloc)
        while len(pool) < target:
            alloc = shape.alloc_head + _bits(rng, free)
            first_octet = int(alloc[:8], 2)
            # IPv4: keep allocations out of 0/8, 127/8 and 224/3.
            if shape.width == 32 and (first_octet in (0, 127) or first_octet >= 224):
                continue
            if alloc not in seen:
                seen.add(alloc)
                pool.append(alloc)
        self.pool = pool
        self.weights = {i: 1.0 / (i + 1) ** shape.zipf_s for i in range(len(pool))}
        self.pool_cum = list(itertools.accumulate(self.weights.values()))

    def under(self, alloc: str, length: int) -> Prefix:
        """A prefix of `length` bits under (or, when shorter, covering) `alloc`."""
        if length <= len(alloc):
            bits = alloc[:length]
        else:
            bits = alloc + _bits(self.rng, length - len(alloc))
        return Prefix(bits, length, f"nh{self.rng.randrange(NEXT_HOPS)}")

    def fresh(self, live, length: int) -> Prefix:
        """A prefix of `length` bits under a Zipf-picked allocation, whose bits
        are not in `live` (a container of bit strings)."""
        for _ in range(100_000):
            i = bisect.bisect_right(self.pool_cum, self.rng.random() * self.pool_cum[-1])
            p = self.under(self.pool[min(i, len(self.pool) - 1)], length)
            if p.bits not in live:
                return p
        raise RuntimeError(f"no fresh /{length} prefix left under the allocation pool")


def make_table(shape: Shape, size: int, seed: int):
    """(database, generator) for `size` distinct prefixes; the generator's
    random state continues from the table, so later draws depend on the seed only.

    The composition is apportioned, not sampled: each length gets its share
    of the table and each allocation its Zipf share of every length, so the
    big allocations, whose tables set the costly tails, hold the same number
    of each length on every seed.  A share that a crowded allocation cannot
    hold (a /24 beyond the 256 of its /16, a covering prefix another
    allocation already added) goes to a Zipf-picked allocation instead."""
    gen = TableGenerator(shape, size, random.Random(seed))
    seen: set[str] = set()
    entries = []
    for length, count in _apportion(size, shape.length_weights).items():
        short = 0
        for i, share in _apportion(count, gen.weights).items():
            for _ in range(share):
                for _ in range(8):
                    p = gen.under(gen.pool[i], length)
                    if p.bits not in seen:
                        break
                else:
                    short += 1
                    continue
                seen.add(p.bits)
                entries.append(p)
        for _ in range(short):
            p = gen.fresh(seen, length)
            seen.add(p.bits)
            entries.append(p)
    gen.rng.shuffle(entries)
    return PrefixDatabase(shape.width, entries), gen


def length_histogram(db: PrefixDatabase) -> dict:
    hist: dict[int, int] = {}
    for p in db.entries:
        hist[p.length] = hist.get(p.length, 0) + 1
    return dict(sorted(hist.items()))


def make_addresses(db: PrefixDatabase, count: int, rng: random.Random) -> list:
    """Half uniform random addresses, half under a uniformly chosen table prefix."""
    width = db.address_width
    out = []
    for i in range(count):
        if i % 2:
            p = db.entries[rng.randrange(len(db.entries))]
            out.append(p.bits + _bits(rng, width - p.length))
        else:
            out.append(_bits(rng, width))
    return out


def _expand(counts: dict) -> list:
    return [k for k, c in counts.items() for _ in range(c)]


def make_updates(db: PrefixDatabase, gen: TableGenerator, count: int) -> list:
    """`count` updates, half announcements of fresh prefixes, half withdrawals
    of live entries, shuffled together.  Returns [("insert" | "delete", Prefix)].

    Both kinds are stratified by prefix length: announcements follow the
    shape's length mix and withdrawals the table's, each length getting its
    share by largest remainder, so rare costly lengths such as root-level
    prefixes come in the same number on every seed.  A withdrawal is uniform
    among the live entries of its length."""
    rng = gen.rng
    deletes = count // 2
    inserts = count - deletes
    kinds = ["insert"] * inserts + ["delete"] * deletes
    rng.shuffle(kinds)
    live: dict[int, list[Prefix]] = {}
    for p in db.entries:
        live.setdefault(p.length, []).append(p)
    insert_lengths = _expand(_apportion(inserts, gen.shape.length_weights))
    delete_lengths = _expand(_apportion(deletes, {l: len(ps) for l, ps in live.items()}))
    rng.shuffle(insert_lengths)
    rng.shuffle(delete_lengths)
    live_bits = {p.bits for p in db.entries}
    stream = []
    for kind in kinds:
        if kind == "insert":
            p = gen.fresh(live_bits, insert_lengths.pop())
            live_bits.add(p.bits)
            live.setdefault(p.length, []).append(p)
        else:
            pool = live[delete_lengths.pop()]
            i = rng.randrange(len(pool))
            p = pool[i]
            pool[i] = pool[-1]
            pool.pop()
            live_bits.discard(p.bits)
        stream.append((kind, p))
    return stream
