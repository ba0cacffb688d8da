"""Command-line surface: lean-level analysis, planning, verification, grain sweeps.

Plan reports are emitted as canonical JSON (sorted keys, exact rationals as
strings, fixed decimal renderings) so identical inputs produce byte-identical
output.  Sweeps emit flat CSV for hand-off to plotting tools.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import bounds as bounds_model
from ._util import fixed_decimal_str, parse_decimal, parse_wxd
from .errors import EmptyDatabase, MalformedLine, PlannerError
from .packing import (
    HybridizationConfig,
    SramPageSpec,
    resource_totals,
    tag_and_pack,
)
from .pipeline import (
    SYNTHETIC_PROFILE_NOTE,
    OverflowBuffer,
    PipelineProfile,
    PipelineState,
)
from .prefixdb import (
    DEFAULT_COVERAGE,
    PrefixDatabase,
    address_value,
    dotted_to_bits,
    max_threshold_length,
    oracle_lookup_value,
    parse_file,
    read_text,
)
from .tiler import SRAM, GrainSpec, StrideList, build_tree
from .trie import build_unibit_trie, compute_lean_levels, lean_row

# The range of each integer flag but `--max-level`, in the order they are checked: 128 is
# the IPv6 address width, and 128 tag bits tell apart more tables than a level holds.
INT_FLAGS = {"width": (1, 128), "samples": (0, None), "max_mismatches": (0, None),
             "tag_bits": (0, 128), "overflow_capacity": (0, None), "seed": (0, None)}


@dataclass
class PlanConfig:
    db_path: str
    address_width: int
    strides: StrideList
    grain: GrainSpec = GrainSpec()
    tag_bits: Optional[int] = None
    hybridize: bool = False
    factor: Fraction = HybridizationConfig.factor
    sram_page: SramPageSpec = SramPageSpec()
    profile: PipelineProfile = field(default_factory=PipelineProfile)
    coverage: Fraction = DEFAULT_COVERAGE
    overflow_capacity: int = OverflowBuffer.capacity

    def hybrid_config(self) -> Optional[HybridizationConfig]:
        if not self.hybridize:
            return None
        return HybridizationConfig(factor=self.factor, sram_spec=self.sram_page)


def _improvement_fields(improvement: Optional[Fraction]) -> dict:
    if improvement is None:
        return {"improvement_factor": "infinite", "improvement_exact": "infinite"}
    return {
        "improvement_factor": fixed_decimal_str(improvement, 3),
        "improvement_exact": str(improvement),
    }


def _planned_state(db: PrefixDatabase, cfg: PlanConfig, profile: Optional[PipelineProfile]):
    """The plan's state, stage-mapped on `profile` when given, and its
    threshold length; an empty database and a coverage outside (0, 1] are
    refused first."""
    if len(db) == 0:
        raise EmptyDatabase("cannot plan for an empty database")
    threshold = max_threshold_length(db, cfg.coverage)
    state = PipelineState.planned(
        db,
        cfg.strides,
        grain=cfg.grain,
        tag_bits=cfg.tag_bits,
        profile=profile,
        hybrid=cfg.hybrid_config(),
        overflow_capacity=cfg.overflow_capacity,
    )
    return state, threshold


def build_plan(db: PrefixDatabase, cfg: PlanConfig):
    """Run build -> (hybridize) -> tag -> map -> bounds; returns (state, report)."""
    state, threshold = _planned_state(db, cfg, cfg.profile)
    split = lean_row(db, cfg.strides.boundaries[0]) if len(cfg.strides) >= 2 else None
    breport = bounds_model.build_report(
        entry_count=len(db),
        threshold_length=threshold,
        baseline_width=cfg.strides.coverage,
        grain=cfg.grain,
        split=split,
    )
    resources = resource_totals(
        state.supertables, state.sram_rows, cfg.grain, cfg.sram_page, breport.baseline_blocks
    )
    report = _render_report(db, cfg, state, resources, breport, threshold)
    return state, report


def _render_report(db, cfg, state, resources, breport, threshold) -> dict:
    notes = []
    if cfg.profile.is_synthetic_default:
        notes.append(SYNTHETIC_PROFILE_NOTE)
    levels = []
    for level_index, tables in enumerate(state.tree.levels):
        if not tables:
            continue
        levels.append(
            {
                "level": level_index,
                "stride": cfg.strides[level_index],
                "tables": len(tables),
                "sram_tables": sum(1 for t in tables if t.kind == SRAM),
                "entries": sum(t.entry_count for t in tables),
            }
        )
    tiling = None
    if breport.tiling is not None:
        tiling = {
            "level": breport.tiling.level,
            "b_percent": str(breport.tiling.b),
            "lhs": breport.tiling.lhs,
            "feasible": breport.tiling.feasible,
            "epsilon_bound": str(breport.tiling.epsilon_bound),
        }
    placements = []
    for i, st in enumerate(state.supertables):
        placements.append(
            {
                "supertable": i,
                "level": st.level_index,
                "tag_bits": st.tag_bits,
                "member_tables": len(st.members),
                "blocks": st.allocated_blocks,
                "spans": [[s.stage, s.start, s.count] for s in state.plan.placements[i]],
            }
        )
    sram_spans = [
        {"level": level, "spans": [[s.stage, s.start, s.count] for s in spans]}
        for level, spans in sorted(state.plan.sram_spans.items())
    ]
    report = {
        "config": {
            "db": str(cfg.db_path),
            "address_width": cfg.address_width,
            "strides": str(cfg.strides),
            "grain": str(cfg.grain),
            "tag_bits": state.tag_bits,
            "hybridize": cfg.hybridize,
            "conversion_factor": str(cfg.factor) if cfg.hybridize else None,
            "sram_page": str(cfg.sram_page),
            "overflow_capacity": cfg.overflow_capacity,
            "threshold_coverage": str(cfg.coverage),
            "profile": {
                "stage_count": cfg.profile.stage_count,
                "tcam_blocks_per_stage": cfg.profile.tcam_blocks_per_stage,
                "sram_pages_per_stage": cfg.profile.sram_pages_per_stage,
            },
        },
        "database": {
            "entry_count": len(db),
            "max_length": db.max_length(),
            "threshold_length": threshold,
            "overflow_entries": len(state.overflow),
        },
        "resources": {
            "tcam_blocks_pre_tag": resources.tcam_blocks_pre_tag,
            "tcam_blocks_post_tag": resources.tcam_blocks_post_tag,
            "tcam_bits": resources.tcam_bits,
            "sram_entries": resources.sram_entries,
            "sram_pages": resources.sram_pages,
            "baseline_blocks": resources.baseline_blocks,
            **_improvement_fields(resources.improvement_factor),
        },
        "bounds": {
            "lower_bound_bits": breport.lower_bound_bits,
            "baseline_width": breport.baseline_width,
            "baseline_blocks": breport.baseline_blocks,
            "baseline_bits": breport.baseline_bits,
            "max_savings_factor_baseline_width": breport.max_savings_factor_baseline_width,
            "max_savings_factor_threshold": breport.max_savings_factor_threshold,
            "tiling": tiling,
        },
        "tree": {
            "levels": levels,
            # The tree holds exactly the entries within coverage, and the
            # overflow buffer the rest, so neither count walks a row.
            "terminal_entries": len(db) - len(state.overflow),
            "total_entries": sum(level["entries"] for level in levels),
        },
        "pipeline": {
            "stage_count": cfg.profile.stage_count,
            "stages_used": state.plan.stages_used(),
            "placements": placements,
            "sram_spans": sram_spans,
        },
        "notes": notes,
    }
    return report


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _flatten(prefix: str, value, rows: list):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, rows)
    else:
        rows.append((prefix, "" if value is None else str(value)))


def render_csv(report: dict) -> str:
    rows: list[tuple[str, str]] = []
    _flatten("", report, rows)
    return "key,value\n" + "".join(f"{k},{v}\n" for k, v in rows)


# -- verification ----------------------------------------------------------------


def read_trace(path, width: int):
    """Trace replay input: one address per line, binary or dotted-quad, as
    int values."""
    addresses = []
    for lineno, raw in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "." in line:
            if width != 32:
                raise MalformedLine(lineno, "dotted addresses need width 32")
            try:
                line = dotted_to_bits(line)
            except ValueError as exc:
                raise MalformedLine(lineno, str(exc)) from None
        try:
            addresses.append(address_value(line, width))
        except ValueError:
            raise MalformedLine(lineno, f"expected a {width}-bit address") from None
    return addresses


def exhaustive(mode: str, width: int) -> bool:
    """Whether verification in `mode` checks every address of the space;
    refused for an exhaustive check of more than 24 bits."""
    if mode == "exhaustive" and width > 24:
        raise PlannerError(
            f"exhaustive verification of a {width}-bit space is not tractable;"
            " use --mode sampled"
        )
    return mode == "exhaustive" or (mode == "auto" and width <= 16)


def verification_addresses(db: PrefixDatabase, every: bool, samples: int, seed: int):
    """Addresses as int values: all of them when `every` (as `exhaustive`
    decides); otherwise every prefix padded with zeros and with ones, in file
    order, then seeded samples."""
    width = db.address_width
    if every:
        yield from range(1 << width)
        return
    seen = set()
    for length, value, _ in db.in_order():
        low = width - length
        for address in (value << low, ((value + 1) << low) - 1):
            if address not in seen:
                seen.add(address)
                yield address
    rng = random.Random(seed)
    space = 1 << width
    for _ in range(samples):
        if len(seen) == space:
            return
        address = rng.getrandbits(width)
        if address not in seen:
            seen.add(address)
            yield address


def inject_fault(state: PipelineState):
    """Corrupt every terminal value so the verifier must observe mismatches."""
    for table in state.tree.all_tables():
        rows = table.by_key
        for tagged, e in rows.items():
            if e.__class__ is str:
                rows[tagged] = e + "?corrupt"
            elif e.bmp_local_len == table.stride_width:
                e.bmp_value = e.bmp_value + "?corrupt"


def run_verify(db, cfg: PlanConfig, addresses, fault: bool, max_mismatches: int):
    """Plan `db`, inject a fault if asked, and check each of `addresses` (int
    values) against the reference lookup."""
    state, _ = _planned_state(db, cfg, None)
    if fault:
        inject_fault(state)
    width = db.address_width
    mismatches = []
    checked = total = 0
    for address in addresses:
        checked += 1
        got = state.search_value(address)
        expected = oracle_lookup_value(db, address)
        if got != expected:
            total += 1
            if len(mismatches) < max_mismatches:
                mismatches.append((format(address, f"0{width}b"), got, expected))
    return checked, total, mismatches


# -- grain sweep -------------------------------------------------------------------


def sweep_rows(db, strides: StrideList, widths, depth_rule: str, reference: GrainSpec,
               threshold_coverage: Fraction):
    """One row per grain width: single-table bits, tree bits, improvements.

    The single-table side is sized to the threshold length.  A single stride is
    a degenerate tree, so the tree column never exceeds the single-table cost.
    Depth rule `bits` holds width*depth at the reference product; `fixed` keeps
    the reference depth.
    """
    if len(db) == 0:
        raise EmptyDatabase("cannot sweep an empty database")
    if min(widths) < 1:
        raise ValueError(f"grain widths must be >= 1, got {min(widths)}")
    threshold = max_threshold_length(db, threshold_coverage)
    ref_bits = bounds_model.single_tcam_baseline(
        len(db), max(threshold, 1), reference
    )[1]
    tree = build_tree(db.restricted(strides.coverage), strides)
    rows = []
    for width in widths:
        if depth_rule == "bits":
            depth = max(1, (reference.width * reference.depth) // width)
        else:
            depth = reference.depth
        grain = GrainSpec(width, depth)
        _, single_bits = bounds_model.single_tcam_baseline(
            len(db), max(threshold, 1), grain
        )
        supertables = tag_and_pack(tree, grain, grain.default_tag_bits)
        plan_bits = sum(st.block_count for st in supertables) * grain.bits
        tree_bits = min(plan_bits, single_bits)
        rows.append(
            {
                "grain_width": width,
                "grain_depth": depth,
                "single_tcam_bits": single_bits,
                "single_tcam_improvement": fixed_decimal_str(Fraction(ref_bits, single_bits), 3),
                "plan_bits": plan_bits,
                "tree_bits": tree_bits,
                "tree_improvement": (   # no tree when every entry is beyond the strides
                    fixed_decimal_str(Fraction(ref_bits, tree_bits), 3) if tree_bits else "infinite"
                ),
            }
        )
    return rows


def render_sweep_csv(rows) -> str:
    """`sweep_rows`' rows as CSV, one column per key, in the rows' order."""
    lines = [rows[0].keys(), *(map(str, row.values()) for row in rows)]
    return "".join(",".join(line) + "\n" for line in lines)


# -- argument plumbing -----------------------------------------------------------------


def _write_output(text: str, out: Optional[str]):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_profile(path: Optional[str]) -> PipelineProfile:
    if path is None:
        return PipelineProfile()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:   # not JSON, or not UTF-8
            raise ValueError(f"profile {path}: {exc}") from None
    keys = ("stage_count", "tcam_blocks_per_stage", "sram_pages_per_stage")
    if not isinstance(raw, dict):
        raise ValueError(f"profile {path}: expected a JSON object with keys {', '.join(keys)}")
    for key in keys:
        if key not in raw:
            raise ValueError(f"profile {path}: missing key {key}")
        if type(raw[key]) is not int:
            raise ValueError(f"profile {path}: {key} must be an integer, got {raw[key]!r}")
    try:
        return PipelineProfile(**{key: raw[key] for key in keys})
    except ValueError as exc:
        raise ValueError(f"profile {path}: {exc}") from None


def _int_flag(args, name: str, low: int, high: Optional[int], high_name: str = ""):
    """The value of integer flag `name`, or None when it is absent or not the command's:
    ASCII digits after at most one `-` (so that the range check can name a negative
    value), in `low`..`high`.  `high_name`, when given, names the upper bound."""
    raw = getattr(args, name, None)
    if raw is None:
        return None
    flag = "--" + name.replace("_", "-")
    try:
        value = -parse_decimal(raw[1:]) if raw.startswith("-") else parse_decimal(raw)
    except ValueError:
        raise ValueError(f"{flag} must be an integer, got {raw!r}") from None
    if value < low or high is not None and value > high:
        bound = (f"between {low} and {high_name} {high}" if high_name
                 else f">= {low}" if value < low else f"<= {high}")
        raise ValueError(f"{flag} must be {bound}, got {value}")
    return value


def _fraction_flag(args, name: str) -> Fraction:
    """The value of fraction flag `name`: `n`, `n/d` or a decimal in ASCII digits, after at
    most one `-`.  `Fraction` alone would also take whitespace, `+`, `_`, non-ASCII digits
    and an exponent, which it expands in full."""
    raw = getattr(args, name)
    digits = raw.removeprefix("-")
    try:   # ASCII digits around at most one `/` or `.`; `Fraction` then refuses `/3` and `3/`
        parse_decimal(digits.replace("/" if "/" in digits else ".", "", 1))
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--{name} must be a fraction or decimal, got {raw!r}") from None


def _plan_config(args) -> PlanConfig:
    return PlanConfig(
        db_path=args.db,
        address_width=args.width,
        strides=StrideList.parse(args.strides),
        grain=GrainSpec(*parse_wxd(args.grain)),
        tag_bits=args.tag_bits,
        hybridize=args.hybridize,
        factor=_fraction_flag(args, "factor"),
        sram_page=SramPageSpec(*parse_wxd(args.sram_page)),
        profile=_load_profile(args.profile),
        coverage=_fraction_flag(args, "coverage"),
        overflow_capacity=args.overflow_capacity,
    )


def _add_plan_arguments(sub):
    sub.add_argument("--db", required=True, help="prefix database in canonical text form")
    sub.add_argument("--width", required=True, help="address width in bits")
    sub.add_argument("--strides", required=True, help="hyphen-joined strides, e.g. 19-29-16")
    sub.add_argument("--grain", default=str(GrainSpec()), help="TCAM block geometry WxD")
    sub.add_argument("--tag-bits", default=None,
                     help="tag width of super-tables and SRAM rows; default ceil(log2 grain depth)")
    sub.add_argument("--hybridize", action="store_true", help="convert eligible tables to SRAM")
    sub.add_argument("--factor", default=str(HybridizationConfig.factor),
                     help="conversion factor for hybridization")
    sub.add_argument("--sram-page", default=str(SramPageSpec()), help="SRAM page geometry WxD")
    sub.add_argument("--profile", default=None, help="JSON pipeline profile file")
    sub.add_argument("--coverage", default=str(DEFAULT_COVERAGE),
                     help="fraction defining the threshold length")
    sub.add_argument("--overflow-capacity", default=str(OverflowBuffer.capacity))
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tcamtree",
        description="Plan, verify, and size longest-prefix-match lookup as a tree of TCAM blocks.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_analyze = commands.add_parser("analyze", help="per-level pointer overhead as CSV")
    p_analyze.add_argument("--db", required=True)
    p_analyze.add_argument("--width", required=True)
    p_analyze.add_argument("--max-level", default=None)
    p_analyze.add_argument("--out", default=None)

    p_plan = commands.add_parser("plan", help="build a full plan and report resources")
    _add_plan_arguments(p_plan)
    p_plan.add_argument("--format", choices=("json", "csv"), default="json")

    p_verify = commands.add_parser("verify", help="check the plan against the reference lookup")
    _add_plan_arguments(p_verify)
    p_verify.add_argument("--mode", choices=("auto", "exhaustive", "sampled"), default="auto")
    p_verify.add_argument("--samples", default="1000")
    p_verify.add_argument("--seed", default=None,
                          help="seeds the sampled addresses (default 0); refused with"
                               " --trace, --samples 0 or when every address is checked")
    p_verify.add_argument("--trace", default=None,
                          help="replay addresses from this file instead of generating them")
    p_verify.add_argument("--inject-fault", action="store_true",
                          help="corrupt the plan first; the verifier must then fail")
    p_verify.add_argument("--max-mismatches", default="20")

    p_sweep = commands.add_parser("sweep-grain", help="bit totals across grain widths")
    p_sweep.add_argument("--db", required=True)
    p_sweep.add_argument("--width", required=True)
    p_sweep.add_argument("--strides", required=True)
    p_sweep.add_argument("--widths", required=True, help="comma-separated grain widths")
    p_sweep.add_argument("--depth-rule", choices=("bits", "fixed"), default="bits",
                         help="bits: hold width*depth at the reference; fixed: keep reference depth")
    p_sweep.add_argument("--grain", default=str(GrainSpec()), help="reference grain for improvements")
    p_sweep.add_argument("--coverage", default=str(DEFAULT_COVERAGE))
    p_sweep.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        for name, (low, high) in INT_FLAGS.items():
            setattr(args, name, _int_flag(args, name, low, high))
        if args.command == "analyze":
            db = parse_file(args.db, args.width)
            if len(db) == 0:
                raise EmptyDatabase("analyze needs a non-empty database")
            max_level = _int_flag(args, "max_level", 1, args.width, "the address width") or args.width
            lean = compute_lean_levels(build_unibit_trie(db), len(db), max_depth=max_level)
            _write_output(lean.to_csv(1, max_level), args.out)
            return 0
        if args.command == "plan":
            cfg = _plan_config(args)
            db = parse_file(args.db, args.width)
            _, report = build_plan(db, cfg)
            text = render_json(report) if args.format == "json" else render_csv(report)
            _write_output(text, args.out)
            return 0
        if args.command == "verify":
            if args.seed is not None and args.trace is not None:
                raise ValueError("--seed has no effect: --trace replays the file's addresses")
            cfg = _plan_config(args)
            if args.trace is not None:
                addresses = read_trace(args.trace, args.width)
                if not addresses:   # a replay of nothing would check nothing
                    raise ValueError(f"{args.trace}: the trace holds no address")
            else:
                # an intractable exhaustive check is refused before the database is read
                every = exhaustive(args.mode, args.width)
                if args.seed is not None:
                    if every:
                        raise ValueError(
                            f"--seed has no effect: --mode {args.mode} checks every address"
                            f" of a {args.width}-bit space"
                        )
                    if args.samples == 0:
                        raise ValueError("--seed has no effect: --samples 0 draws no address")
            db = parse_file(args.db, args.width)
            if args.trace is None:
                addresses = verification_addresses(db, every, args.samples, args.seed or 0)
            checked, total, mismatches = run_verify(
                db, cfg, addresses, args.inject_fault, args.max_mismatches
            )
            if total:
                lines = [f"FAIL {total} of {checked} addresses mismatch; first {len(mismatches)}:"]
                lines += [f"({a}, {g}, {e})" for a, g, e in mismatches]
                _write_output("".join(l + "\n" for l in lines), args.out)
                return 1
            _write_output(f"PASS {checked}/{checked}\n", args.out)
            return 0
        if args.command == "sweep-grain":
            try:
                widths = [parse_decimal(w) for w in args.widths.split(",")]
            except ValueError:
                raise ValueError(
                    f"--widths must be comma-separated integers, got {args.widths!r}"
                ) from None
            strides = StrideList.parse(args.strides)
            reference = GrainSpec(*parse_wxd(args.grain))
            coverage = _fraction_flag(args, "coverage")
            db = parse_file(args.db, args.width)
            rows = sweep_rows(db, strides, widths, args.depth_rule, reference, coverage)
            _write_output(render_sweep_csv(rows), args.out)
            return 0
    except (PlannerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable command")


if __name__ == "__main__":
    sys.exit(main())
