"""tcamtree benchmark: plan, lookups and update churn on seeded BGP-shaped tables.

    python3 perfbench/run.py --workload ipv4-hybrid --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
One process, one closed-loop client, no threads: every call into tcamtree is
issued after the previous one returned.  A run

1. generates a table, an address set and an update stream from `--seed`
   (perfbench/gen.py) and writes the table in canonical text form;
2. runs `SETUPS` rounds, each of
   - one set-up: parse the file, `cli.build_plan` (tree, SRAM conversion,
     packing, stage map, bounds, report), `cli.render_json`, and a warm-up
     lookup batch; `setup_s` is the median;
   - `--seconds / SETUPS` seconds of `PipelineState.search` over the fixed
     address set on the new state, in chunks; `lookup_rate` is the median
     chunk rate;
   - the next slice of the update stream, applied through
     `PipelineState.insert`/`delete` to the first round's state, each call
     timed, with a lookup batch after every `BATCH_EVERY` updates;
3. checks the first plan against `tcamtree plan`, run on the same file
   and flags before the set-ups: the report must be byte-identical, and
   blocks, pages and stages recounted from the state must equal the report's;
4. checks the final state against `oracle_lookup` over the live entries
   at every prefix the stream announced or withdrew.

Every answer is compared with a reference outside the timed regions.  The
last line of stdout is one JSON object: correct, attempted, failed (wrong
lookups plus updates that raised) and metrics.  `--trace 0` reports the
end-to-end metrics; `--trace 1` wraps the module functions listed in
perfbench/tracer.py and reports per-layer metrics plus the tracing overhead.
Any mismatch exits 1; a checkout without `src/tcamtree` exits 2.
Generated files and span dumps go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import bisect
import contextlib
import dataclasses
import gc
import json
import math
import random
import resource
import signal
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if not (SRC / "tcamtree" / "__init__.py").is_file():
    print(f"error: no tcamtree package under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import tcamtree  # noqa: E402

if Path(tcamtree.__file__).resolve().parent != SRC / "tcamtree":
    print(f"error: tcamtree imported from {tcamtree.__file__}, not {SRC}", file=sys.stderr)
    sys.exit(2)

from fractions import Fraction  # noqa: E402

from tcamtree import cli, prefixdb  # noqa: E402
from tcamtree._util import ceil_div  # noqa: E402
from tcamtree.errors import PlannerError  # noqa: E402
from tcamtree.packing import SramPageSpec  # noqa: E402
from tcamtree.prefixdb import PrefixDatabase, oracle_lookup, serialize  # noqa: E402
from tcamtree.tiler import SRAM, StrideList  # noqa: E402

import gen  # noqa: E402

SETUPS = 3            # untraced set-ups per run; setup_s is their median
TRACED_SETUPS = 2     # traced runs alternate this many untraced and traced set-ups
BATCH_EVERY = 10      # updates between two lookup batches of the churn phase
MAX_LEVELS = 4        # per-level metrics are reported for levels L0..L3
PROBE_ROWS = 6000     # objects the speed probe scans (see Speed)
PROBE_KEYS = 1000     # dict entries the speed probe writes and reads
PROBE_REF_S = 0.0013  # in-run probe time on a quiet 2-vCPU 2.0 GHz x86 VM, CPython 3.11
PROBE_WINDOW = 4      # probes on each side added to those inside an interval
PROBE_EVERY_S = 0.1   # probe interval while sampling


@dataclass(frozen=True)
class Workload:
    shape: gen.Shape
    entries: int       # table size
    updates: int       # stream length, half inserts and half deletes
    strides: str
    hybridize: bool
    tag_bits: int | None
    addresses: int     # fixed lookup address set
    chunk: int         # lookups per timed chunk of the steady phase
    batch: int         # lookups per batch of the churn phase

    def plan_args(self) -> list:
        args = ["--strides", self.strides]
        if self.hybridize:
            args += ["--hybridize", "--factor", "3"]
        if self.tag_bits is not None:
            args += ["--tag-bits", str(self.tag_bits)]
        return args

    def config(self, db_path) -> cli.PlanConfig:
        return cli.PlanConfig(
            db_path=str(db_path),
            address_width=self.shape.width,
            strides=StrideList.parse(self.strides),
            tag_bits=self.tag_bits,
            hybridize=self.hybridize,
            factor=Fraction(3),
        )


# Why these two (see perfbench/README.md for the layer -> metric map):
# ipv4-hybrid: the paper's IPv4 configuration; the root converts to SRAM, so
#   lookups take the SRAM-index path and set-up runs build_tree, hybridize
#   and sram_rows_for_table; its updates hit the hybrid tree.
# ipv6-tcam: the paper's IPv6 configuration without SRAM, so hybridization is
#   bypassed (a packing change should predict no change here) and lookups
#   take the ordered TCAM scan over a root of several thousand stub rows.
WORKLOADS = {
    "ipv4-hybrid": Workload(gen.IPV4, 50_000, 2_000, "16-4-4-8", True, 14,
                            addresses=20_000, chunk=2_000, batch=20),
    "ipv6-tcam": Workload(gen.IPV6, 50_000, 2_000, "19-29-16", False, None,
                          addresses=1_000, chunk=100, batch=10),
}


# -- helpers ---------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def terminal_level(strides: StrideList, length: int) -> int:
    for level, boundary in enumerate(strides.boundaries):
        if length <= boundary:
            return level
    return len(strides)   # beyond coverage: held by the overflow buffer


def blocks_in_use(state) -> int:
    """TCAM blocks the stage map has handed out: planned spans plus growth."""
    plan = state.plan
    spans = [s for group in plan.placements for s in group]
    spans += [s for group in plan.extra_spans.values() for s in group]
    return sum(s.count for s in spans)


class LiveOracle:
    """Longest-prefix match over the live entries, updated incrementally.

    Same probe order as `oracle_lookup` (longest length first); it is itself
    checked against `oracle_lookup` on the final live set."""

    def __init__(self, db: PrefixDatabase):
        self.by_length: dict[int, dict[str, object]] = {}
        for p in db.entries:
            self.add(p)

    def add(self, p):
        if p.length not in self.by_length:
            self.by_length[p.length] = {}
            self.lengths = sorted(self.by_length, reverse=True)
        self.by_length[p.length][p.bits] = p

    def remove(self, p):
        del self.by_length[p.length][p.bits]

    def entries(self) -> list:
        return [p for table in self.by_length.values() for p in table.values()]

    def lookup(self, address: str) -> str:
        for length in self.lengths:
            p = self.by_length[length].get(address[:length])
            if p is not None:
                return p.next_hop
        return prefixdb.DEFAULT_NEXT_HOP


class _ProbeRow:
    __slots__ = ("key",)

    def __init__(self, key: str):
        self.key = key


class Speed:
    """How much slower than the reference this machine runs, around a moment.

    On a shared machine the CPU speed a process gets drifts by tens of
    percent over seconds and minutes, which would swamp the differences the
    benchmark exists to show.  While `sampling`, an interval timer runs a
    fixed pure-Python probe every PROBE_EVERY_S seconds, in this thread
    between two bytecodes of whatever is running.  Like tcamtree's inner
    loops, the probe scans objects scattered over about a megabyte, slicing
    and comparing their string keys, and fills and reads a string-keyed dict;
    a probe that stays in the small caches misses the slowdowns that come
    from neighbours evicting the large ones.  `clock` leaves the probes'
    own time out, and a time measured from t0 to t1 is divided by the median
    probe time around it over PROBE_REF_S.  The probe does not touch
    tcamtree, so a change to the program moves the measured times and not
    the divisor."""

    def __init__(self):
        self.starts: list[float] = []   # on the `clock` scale
        self.times: list[float] = []
        self.probing = 0.0              # total seconds spent in probes
        rng = random.Random(0)
        self.rows = [_ProbeRow(format(rng.getrandbits(24), "024b")) for _ in range(PROBE_ROWS)]
        rng.shuffle(self.rows)

    def probe(self, *_signal_args):
        t0 = perf_counter()
        hits = 0
        for row in self.rows:
            if row.key[:10] == "0110100110":
                hits += 1
        d = {}
        for i in range(PROBE_KEYS):
            d[f"k{i}"] = i
        for key in d:
            hits += d[key]
        elapsed = perf_counter() - t0
        self.starts.append(t0 - self.probing)
        self.times.append(elapsed)
        self.probing += elapsed

    def clock(self) -> float:
        """perf_counter() less the time spent in probes."""
        return perf_counter() - self.probing

    @contextlib.contextmanager
    def sampling(self):
        self.probe()
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self, t0: float, t1: float) -> float:
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.starts, t1)
        return statistics.median(self.times[max(0, i - PROBE_WINDOW) : j + PROBE_WINDOW]) / PROBE_REF_S

    def seconds(self, t0: float, t1: float) -> float:
        """The `clock` interval t0..t1 in reference seconds."""
        return (t1 - t0) / self.slowdown(t0, t1)

    def overall(self) -> float:
        """Slowdown over the whole run so far, for totals summed across it."""
        return statistics.median(self.times) / PROBE_REF_S


class Churn:
    """The update stream applied to one state, resumable in slices."""

    def __init__(self, run: "Run", state):
        self.run, self.state = run, state
        self.oracle = LiveOracle(run.db)
        self.done = 0
        self.records = []          # (kind, terminal level, clock at start, clock at end)
        self.batches = []          # (clock at start, clock at end, lookups)
        self.created = self.collected = self.spilled = 0
        self.blocks_start = blocks_in_use(state)

    def advance(self, stop: int):
        """Apply updates up to index `stop`, a lookup batch after every BATCH_EVERY."""
        run, state, oracle = self.run, self.state, self.oracle
        clock = run.speed.clock
        strides = state.tree.stride_list
        for kind, p in run.stream[self.done : stop]:
            self.done += 1
            tables_before = [len(level) for level in state.tree.levels]
            op = state.insert if kind == "insert" else state.delete
            t0 = clock()
            try:
                op(p)
            except PlannerError as exc:
                t1 = clock()
                run.fail(f"{kind} {p}: {exc}")
            else:
                t1 = clock()
                if kind == "insert":
                    oracle.add(p)
                    self.spilled += state.overflow.contains(p.bits)
                else:
                    oracle.remove(p)
            run.attempted += 1
            self.records.append((kind, terminal_level(strides, p.length), t0, t1))
            for before, level in zip(tables_before, state.tree.levels):
                self.created += max(0, len(level) - before)
                self.collected += max(0, before - len(level))
            if self.done % BATCH_EVERY == 0:
                n = run.w.batch
                first = (self.done // BATCH_EVERY - 1) * n
                batch = [run.addresses[(first + k) % len(run.addresses)] for k in range(n)]
                t0 = clock()
                got = [state.search(a) for a in batch]
                self.batches.append((t0, clock(), n))
                run.check(batch, got, [oracle.lookup(a) for a in batch], "churn lookup")

    def finish(self) -> dict:
        """Check the final state against the oracle; returns the latencies
        [(kind, terminal level, reference seconds)] and the counters."""
        speed = self.run.speed
        self.run.final_check(self.state, self.oracle)
        batch_time = sum(speed.seconds(t0, t1) for t0, t1, _ in self.batches)
        return {
            "records": [(kind, level, speed.seconds(t0, t1)) for kind, level, t0, t1 in self.records],
            "lookup_rate": sum(n for _, _, n in self.batches) / batch_time,
            "tables_created": self.created,
            "tables_collected": self.collected,
            "spilled": self.spilled,
            "blocks_grown": blocks_in_use(self.state) - self.blocks_start,
            "blocks_end": blocks_in_use(self.state),
            "overflow_entries": len(self.state.overflow),
        }


class Run:
    def __init__(self, name: str, w: Workload, seed: int, seconds: float, tracer):
        self.name, self.w, self.seed, self.seconds = name, w, seed, seconds
        self.tracer = tracer
        self.speed = Speed()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def put(self, name: str, value, unit: str):
        self.metrics[name] = (value, unit)

    # -- phases ------------------------------------------------------------

    def generate(self):
        w = self.w
        self.db, table_gen = gen.make_table(w.shape, w.entries, self.seed)
        self.stream = gen.make_updates(self.db, table_gen, w.updates)
        self.addresses = gen.make_addresses(self.db, w.addresses, table_gen.rng)
        OUT.mkdir(exist_ok=True)
        self.db_path = OUT / f"{self.name}-s{self.seed}.txt"
        self.db_path.write_bytes(serialize(self.db).encode())
        self.meta = {
            "note": "synthetic BGP-shaped table; not the paper's snapshot data",
            "workload": self.name,
            "seed": self.seed,
            "entries": len(self.db),
            "pool": {"allocation_length": w.shape.alloc_len, "allocations": len(table_gen.pool)},
            "length_histogram": gen.length_histogram(self.db),
        }
        t0 = self.speed.clock()
        self.expected = [oracle_lookup(self.db, a) for a in self.addresses]
        self.oracle_rate = len(self.addresses) / self.speed.seconds(t0, self.speed.clock())

    def setup_once(self):
        """One timed set-up; returns (reference seconds, state, report text)."""
        w = self.w
        warm = self.addresses[: w.chunk]
        gc.collect()
        t0 = self.speed.clock()
        db = prefixdb.parse_file(self.db_path, w.shape.width)
        state, report = cli.build_plan(db, w.config(self.db_path))
        text = cli.render_json(report)
        got = [state.search(a) for a in warm]
        t1 = self.speed.clock()
        self.check(warm, got, self.expected, "warm-up")
        return self.speed.seconds(t0, t1), state, text

    def check(self, addresses, got, expected, phase: str):
        self.attempted += len(got)
        for a, g, e in zip(addresses, got, expected):
            if g != e:
                self.fail(f"{phase}: {a} -> {g}, expected {e}")

    def plan_with_cli(self) -> str:
        """`tcamtree plan` on the generated file with the workload's flags;
        returns the report text, or "" when the command fails.  Run before the
        timed set-ups, it also takes the first-plan cost of growing the heap."""
        w = self.w
        out = OUT / f"{self.name}-s{self.seed}.plan.json"
        argv = ["plan", "--db", str(self.db_path), "--width", str(w.shape.width),
                *w.plan_args(), "--out", str(out)]
        if cli.main(argv) != 0:
            self.fail("tcamtree plan failed")
            return ""
        return out.read_text(encoding="utf-8")

    def check_plan(self, cli_text: str, state, text: str):
        """The state must be the plan `tcamtree plan` reported for this file."""
        self.quality = {
            "tcam_blocks": sum(st.block_count for st in state.supertables),
            "sram_pages": ceil_div(state.sram_rows, SramPageSpec().page_depth),
            "stages_used": state.plan.stages_used(),
        }
        if cli_text != text:
            self.fail("benchmark report differs from the tcamtree plan report")
        if cli_text:
            report = json.loads(cli_text)
            reported = {
                "tcam_blocks": report["resources"]["tcam_blocks_post_tag"],
                "sram_pages": report["resources"]["sram_pages"],
                "stages_used": report["pipeline"]["stages_used"],
            }
            if self.quality != reported:
                self.fail(f"plan quality {self.quality} != tcamtree plan report {reported}")
        self.meta["tiler.root_rows"] = state.tree.root.entry_count

    def steady_lookups(self, state, seconds: float) -> list:
        """Chunk rates of search over the address set, cycled for `seconds`;
        returns [(clock at start, clock at end, lookups)]."""
        w = self.w
        search = state.search
        clock = self.speed.clock
        rates = []
        start = clock()
        i = 0
        while not rates or clock() - start < seconds:
            lo = (i * w.chunk) % len(self.addresses)
            chunk = self.addresses[lo : lo + w.chunk]
            t0 = clock()
            got = [search(a) for a in chunk]
            rates.append((t0, clock(), len(chunk)))
            self.check(chunk, got, self.expected[lo : lo + w.chunk], "lookup")
            i += 1
        return rates

    def median_rate(self, chunks) -> float:
        return statistics.median(n / self.speed.seconds(t0, t1) for t0, t1, n in chunks)

    def final_check(self, state, oracle: LiveOracle):
        """Every announced or withdrawn prefix, padded to an address, against
        `oracle_lookup` over the live entries."""
        final_db = PrefixDatabase(self.w.shape.width, oracle.entries())
        addresses = [p.padded(final_db.address_width) for _, p in self.stream]
        truth = [oracle_lookup(final_db, a) for a in addresses]
        mine = [oracle.lookup(a) for a in addresses]
        if mine != truth:
            self.fail("benchmark live oracle disagrees with oracle_lookup")
        self.check(addresses, [state.search(a) for a in addresses], truth, "final")

    # -- modes -------------------------------------------------------------

    def run_plain(self):
        # The run is SETUPS rounds of: one set-up, a share of the steady
        # lookups on the new state, a share of the update stream on the first
        # state.  Every metric is thus sampled across the whole run, not in
        # one stretch of a shared machine's varying speed.
        times, rates = [], []
        cli_text = self.plan_with_cli()
        churn = None
        for r in range(SETUPS):
            state = text = None   # free the last round's plan before the next
            elapsed, state, text = self.setup_once()
            times.append(elapsed)
            if churn is None:
                self.check_plan(cli_text, state, text)
                churn = Churn(self, state)
            rates += self.steady_lookups(state, self.seconds / SETUPS)
            churn.advance((r + 1) * len(self.stream) // SETUPS)
        state = text = None
        result = churn.finish()
        lat = {"insert": [], "delete": []}
        for kind, _, elapsed in result["records"]:
            lat[kind].append(elapsed * 1e6)
        self.put("setup_s", statistics.median(times), "s")
        self.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        self.put("lookup_rate", self.median_rate(rates), "lookups/s")
        self.put("churn_lookup_rate", result["lookup_rate"], "lookups/s")
        for kind in ("insert", "delete"):
            self.put(f"{kind}_p50_us", percentile(lat[kind], 0.50), "us")
            self.put(f"{kind}_p99_us", percentile(lat[kind], 0.99), "us")
        self.put("tcam_blocks", self.quality["tcam_blocks"], "blocks")
        self.put("stages_used", self.quality["stages_used"], "stages")

    def run_traced(self):
        tracer = self.tracer
        plain, traced, layer = [], [], []
        cli_text = self.plan_with_cli()
        for _ in range(TRACED_SETUPS):
            state = text = None
            elapsed, state, text = self.setup_once()
            plain.append(elapsed)
            state = text = None
            tracer.install()
            try:
                mark, hot = tracer.mark(), tracer.hot_snapshot()
                elapsed, state, text = self.setup_once()
                traced.append(elapsed)
                layer.append(self.setup_layers(mark, hot))
            finally:
                tracer.uninstall()
        self.check_plan(cli_text, state, text)
        for name in layer[0]:
            self.put(name, statistics.median(d[name] for d in layer) / self.speed.overall(), "s")
        self.put("trace.setup_overhead_s", statistics.median(traced) - statistics.median(plain), "s")
        self.put_structure(state)

        plain_rate = self.median_rate(self.steady_lookups(state, self.seconds / 2))
        tracer.install()
        try:
            hot = tracer.hot_snapshot()
            t0 = self.speed.clock()
            got = [state.search(a) for a in self.addresses]
            traced_rate = len(got) / self.speed.seconds(t0, self.speed.clock())
            self.check(self.addresses, got, self.expected, "traced lookup")
            self.put_lookup_layers(hot)
            self.put("trace.lookup_rate_overhead", plain_rate - traced_rate, "lookups/s")
            mark = tracer.mark()
            churn = Churn(self, state)
            churn.advance(len(self.stream))
            result = churn.finish()
        finally:
            tracer.uninstall()
        self.put_update_layers(mark, result)
        self.put("prefixdb.oracle_rate", self.oracle_rate, "lookups/s")
        tracer.write(OUT / f"{self.name}-s{self.seed}.spans.jsonl")

    # -- per-layer metrics -------------------------------------------------

    def setup_layers(self, mark: int, hot_before: dict) -> dict:
        t = self.tracer
        sram_ns = t.hot.get("packing.sram_rows_for_table", [0, 0, 0])[1] - hot_before.get(
            "packing.sram_rows_for_table", [0, 0, 0]
        )[1]
        return {
            "prefixdb.parse_s": t.self_s("prefixdb.parse_file", mark),
            "trie.unibit_s": t.self_s("trie.build_unibit_trie", mark),
            "trie.lean_s": t.self_s("trie.compute_lean_levels", mark),
            "tiler.build_tree_s": t.self_s("tiler.build_tree", mark),
            "packing.hybridize_s": t.self_s("packing.hybridize", mark),
            "packing.sram_rows_s": sram_ns / 1e9,
            "packing.tag_and_pack_s": t.self_s("packing.tag_and_pack", mark),
            "pipeline.map_s": t.self_s("pipeline.map_to_pipeline", mark),
            "bounds.report_s": t.self_s("bounds.build_report", mark),
            "cli.render_s": t.self_s("cli.render_report", mark) + t.self_s("cli.render_json", mark),
        }

    def put_structure(self, state):
        tree = state.tree
        levels = tree.levels
        self.put("tiler.root_rows", tree.root.entry_count, "rows")
        self.put("tiler.stub_rows", sum(t.stub_count() for t in tree.all_tables()), "rows")
        for k in range(MAX_LEVELS):
            tables = levels[k] if k < len(levels) else []
            self.put(f"tiler.tables.L{k}", len(tables), "tables")
            self.put(f"tiler.entries.L{k}", sum(t.entry_count for t in tables), "entries")
        sts = state.supertables
        capacity = sum(st.entry_capacity for st in sts)
        self.put("packing.supertables", len(sts), "count")
        self.put("packing.sram_tables", sum(t.kind == SRAM for t in tree.all_tables()), "count")
        self.put("packing.empty_entry_ratio",
                 sum(st.empty_entries for st in sts) / capacity if capacity else 0.0, "ratio")
        self.put("packing.sram_pages", self.quality["sram_pages"], "pages")

    def put_lookup_layers(self, hot_before: dict):
        t = self.tracer

        def delta(name):
            now, before = t.hot.get(name, [0, 0, 0]), hot_before.get(name, [0, 0, 0])
            return [a - b for a, b in zip(now, before)]

        lookup = delta("tiler.lookup")
        search = delta("pipeline.search")
        ref_ns = 1e9 * self.speed.overall()   # ns per reference second
        self.put("tiler.table_lookup_s", lookup[1] / ref_ns, "s")
        self.put("tiler.lookup_calls", lookup[0], "count")
        self.put("pipeline.search_self_s", search[2] / ref_ns, "s")

    def put_update_layers(self, mark: int, churn: dict):
        t = self.tracer
        ref_ns = 1e3 * self.speed.overall()   # ns per reference microsecond
        for kind in ("insert", "delete"):
            tiler_us = [d / ref_ns for d, _ in t.durations(f"tiler.tree_{kind}", mark)]
            self_us = [s / ref_ns for _, s in t.durations(f"pipeline.{kind}", mark)]
            self.put(f"tiler.tree_{kind}_p50_us", percentile(tiler_us, 0.5) if tiler_us else 0.0, "us")
            self.put(f"tiler.tree_{kind}_p99_us", percentile(tiler_us, 0.99) if tiler_us else 0.0, "us")
            self.put(f"pipeline.{kind}_self_us", percentile(self_us, 0.5) if self_us else 0.0, "us")
            for k in range(MAX_LEVELS):
                sample = [e * 1e6 for kd, lvl, e in churn["records"] if kd == kind and lvl == k]
                self.put(f"pipeline.{kind}_p50_us.L{k}", percentile(sample, 0.5) if sample else 0.0, "us")
                self.put(f"pipeline.{kind}_n.L{k}", len(sample), "count")
        inserts = sum(1 for kd, _, _ in churn["records"] if kd == "insert")
        self.put("pipeline.spill_ratio", churn["spilled"] / inserts if inserts else 0.0, "ratio")
        for name, unit in (("blocks_grown", "blocks"), ("blocks_end", "blocks"),
                           ("tables_created", "tables"), ("tables_collected", "tables"),
                           ("overflow_entries", "entries")):
            self.put(f"pipeline.{name}", churn[name], unit)
        self.put("pipeline.churn_lookup_rate", churn["lookup_rate"], "lookups/s")

    def result(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in self.metrics.items()},
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--entries", type=int, default=None, help="override the table size")
    parser.add_argument("--updates", type=int, default=None, help="override the stream length")
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    if args.entries is not None or args.updates is not None:
        w = dataclasses.replace(w, entries=args.entries or w.entries,
                                updates=args.updates or w.updates)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    run = Run(args.workload, w, args.seed, args.seconds, tracer)
    with run.speed.sampling():
        run.generate()
        if tracer is None:
            run.run_plain()
        else:
            run.run_traced()
    run.meta["median_slowdown"] = run.speed.overall()
    print(f"speed: median slowdown {run.speed.overall():.3f} over {len(run.speed.times)} probes",
          file=sys.stderr)
    (OUT / f"{run.name}-s{run.seed}.meta.json").write_text(json.dumps(run.meta, indent=1) + "\n")
    for message in run.errors:
        print(f"mismatch: {message}", file=sys.stderr)
    print(json.dumps(run.result()))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
