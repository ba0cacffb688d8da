import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcamtree import (
    GrainSpec,
    HybridizationConfig,
    PipelineState,
    Prefix,
    SramPageSpec,
    StrideList,
    parse_file,
)
from tcamtree import cli
from tcamtree.cli import PlanConfig, build_plan, main
from tcamtree.tiler import SRAM, TCAM, TreeTable

from tests.helpers import (
    ROOMY_PROFILE,
    buffered,
    check_expansion_counts,
    random_database,
    random_strides,
    row_at,
    terminal_count,
    total_entries,
)

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data" / "table1.txt"
OVERFLOW = Path(__file__).parent / "data" / "overflow.txt"
GOLDEN = Path(__file__).parent / "data" / "golden"
SYNTHETIC_IPV4 = Path(__file__).parent / "data" / "synthetic-ipv4-500.txt"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_table1_rows(self, capsys):
        code, out, _ = run(capsys, "analyze", "--db", str(DATA), "--width", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "level,b_percent,worst_overhead_percent"
        assert len(lines) == 7
        assert lines[3] == "3,16.6667,33.3333"

    def test_empty_database_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        code, _, err = run(capsys, "analyze", "--db", str(empty), "--width", "6")
        assert code == 2
        assert "error:" in err

    def test_max_level_limits_rows(self, capsys):
        code, out, _ = run(capsys, "analyze", "--db", str(DATA), "--width", "6", "--max-level", "3")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_max_level_beyond_width_fails(self, capsys):
        code, out, err = run(
            capsys, "analyze", "--db", str(DATA), "--width", "6", "--max-level", "10"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: --max-level") and err.count("\n") == 1

    def test_max_level_checked_before_counting(self, monkeypatch, capsys):
        import tcamtree.cli

        def no_counting(db):
            raise AssertionError("the trie was counted before --max-level was checked")

        monkeypatch.setattr(tcamtree.cli, "build_unibit_trie", no_counting)
        code, _, err = run(
            capsys, "analyze", "--db", str(DATA), "--width", "6", "--max-level", "0"
        )
        assert code == 2 and err.startswith("error: --max-level")

    def test_missing_file_and_bad_strides_fail_cleanly(self, capsys):
        code, _, err = run(capsys, "analyze", "--db", "/nonexistent/db.txt", "--width", "6")
        assert code == 2 and "error:" in err
        code, _, err = run(capsys, "plan", "--db", str(DATA), "--width", "6", "--strides", "3-x")
        assert code == 2 and "error:" in err


class TestPlan:
    def test_table1_3_3_report(self, capsys):
        code, out, _ = run(capsys, "plan", "--db", str(DATA), "--width", "6", "--strides", "3-3")
        assert code == 0
        report = json.loads(out)
        assert report["resources"]["tcam_blocks_pre_tag"] == 2
        assert report["resources"]["tcam_blocks_post_tag"] == 2
        assert report["database"]["entry_count"] == 6
        assert report["tree"]["terminal_entries"] == 6
        assert report["bounds"]["baseline_blocks"] == 1
        assert any("synthetic" in note for note in report["notes"])

    def test_hybrid_plan_reports_pages(self, capsys):
        code, out, _ = run(
            capsys, "plan", "--db", str(DATA), "--width", "6",
            "--strides", "3-3", "--hybridize", "--factor", "3",
        )
        assert code == 0
        report = json.loads(out)
        assert report["resources"]["sram_entries"] == 12
        assert report["resources"]["sram_pages"] == 1
        assert report["resources"]["tcam_blocks_post_tag"] == 0
        assert report["resources"]["improvement_factor"] == "infinite"

    def test_long_entries_route_to_overflow(self, capsys):
        code, out, _ = run(
            capsys, "plan", "--db", str(DATA), "--width", "6", "--strides", "3-2"
        )
        assert code == 0
        assert json.loads(out)["database"]["overflow_entries"] == 2

    def test_failure_exits_nonzero(self, tmp_path, capsys):
        prof = tmp_path / "tiny.json"
        prof.write_text(json.dumps({
            "stage_count": 1, "tcam_blocks_per_stage": 8, "sram_pages_per_stage": 8,
        }))
        code, _, err = run(
            capsys, "plan", "--db", str(DATA), "--width", "6", "--strides", "3-3",
            "--profile", str(prof),
        )
        assert code == 2 and "error:" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "plan", "--db", str(DATA), "--width", "6", "--strides", "3-3",
            "--format", "csv",
        )
        assert code == 0
        assert out.startswith("key,value\n")
        assert "resources.tcam_blocks_post_tag,2" in out

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            code, _, _ = run(
                capsys, "plan", "--db", str(DATA), "--width", "6",
                "--strides", "3-3", "--out", str(out),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_profile_file(self, tmp_path, capsys):
        prof = tmp_path / "profile.json"
        prof.write_text(json.dumps({
            "stage_count": 2, "tcam_blocks_per_stage": 4, "sram_pages_per_stage": 4,
        }))
        code, out, _ = run(
            capsys, "plan", "--db", str(DATA), "--width", "6",
            "--strides", "3-3", "--profile", str(prof),
        )
        assert code == 0
        report = json.loads(out)
        assert report["pipeline"]["stage_count"] == 2
        assert report["notes"] == []


class TestLeanWork:
    """`plan` reads the lean level at one depth and counts only that one;
    `analyze` prints every depth and sweeps them all."""

    def test_plan_sweeps_no_depth_and_analyze_sweeps(self, monkeypatch, capsys):
        import tcamtree.cli

        calls = []

        def counted(name):
            original = getattr(tcamtree.cli, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        def no_sweep(*args, **kwargs):
            raise AssertionError("build_plan swept the lean levels")

        db = parse_file(SYNTHETIC_IPV4, 32)
        cfg = PlanConfig(
            db_path=str(SYNTHETIC_IPV4), address_width=32, strides=StrideList.parse("16-4-4-8")
        )
        with monkeypatch.context() as patch:
            patch.setattr(tcamtree.cli, "build_unibit_trie", no_sweep)
            patch.setattr(tcamtree.cli, "compute_lean_levels", no_sweep)
            _, report = build_plan(db, cfg)
        assert report["bounds"]["tiling"]["level"] == 16
        for name in ("build_unibit_trie", "compute_lean_levels"):
            monkeypatch.setattr(tcamtree.cli, name, counted(name))
        code, _, _ = run(capsys, "analyze", "--db", str(SYNTHETIC_IPV4), "--width", "32")
        assert code == 0
        assert calls == ["build_unibit_trie", "compute_lean_levels"]


class TestTagWidth:
    """One plan has one tag width: the library and the CLI size super-tables
    and pooled SRAM rows with the same one."""

    def test_library_and_cli_agree_on_the_ipv4_hybrid_root(self, capsys):
        # with the plan's 14 tag bits a 16-bit root key does not fit a 42-bit
        # page row (14 + 16 + 16 > 42), so the root stays in TCAM; a tag sized
        # from the 1,024-row page depth (10 bits) would let it convert
        db = parse_file(SYNTHETIC_IPV4, 32)
        state = PipelineState.planned(
            db, StrideList.parse("16-4-4-8"), tag_bits=14,
            hybrid=HybridizationConfig(factor=3, sram_spec=SramPageSpec(42, 1024)),
        )
        assert state.tree.root.kind == TCAM
        assert state.sram_rows == 813
        assert sum(st.block_count for st in state.supertables) == 3
        code, out, _ = run(
            capsys, "plan", "--db", str(SYNTHETIC_IPV4), "--width", "32",
            "--strides", "16-4-4-8", "--tag-bits", "14", "--hybridize", "--factor", "3",
            "--sram-page", "42x1024",
        )
        assert code == 0
        report = json.loads(out)
        assert report["tree"]["levels"][0]["sram_tables"] == 0
        assert report["resources"]["sram_entries"] == 813
        assert report["resources"]["tcam_blocks_post_tag"] == 3

    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.none(), st.integers(0, 14)),
        st.sampled_from([Fraction(3, 2), Fraction(3), Fraction(8)]),
        st.integers(16, 30),
        st.sampled_from([4, 16, 1024]),
    )
    @settings(max_examples=40, deadline=None)
    def test_planned_equals_build_plan(self, seed, tag_bits, factor, page_slack, page_depth):
        # page widths of max stride + [16, 30] put the tag on the conversion
        # boundary, and page depths differ from the grain's, so a tag width
        # taken from anywhere but the plan changes which tables convert
        rng = random.Random(seed)
        width = rng.randint(3, 10)
        db = random_database(rng, width, max_entries=60)
        strides = random_strides(rng, width)
        grain = GrainSpec(rng.choice([8, 16]), rng.choice([4, 8]))
        page = SramPageSpec(max(strides) + page_slack, page_depth)
        state = PipelineState.planned(
            db, strides, grain=grain, tag_bits=tag_bits,
            hybrid=HybridizationConfig(factor=factor, sram_spec=page),
        )
        cfg = PlanConfig(
            db_path="db.txt", address_width=width, strides=strides, grain=grain,
            tag_bits=tag_bits, hybridize=True, factor=factor, sram_page=page,
            profile=ROOMY_PROFILE,
        )
        cli_state, report = build_plan(db, cfg)
        kinds = [[t.kind for t in tables] for tables in state.tree.levels]
        assert kinds == [[t.kind for t in tables] for tables in cli_state.tree.levels]
        assert state.sram_rows == cli_state.sram_rows == report["resources"]["sram_entries"]
        blocks = sum(st.block_count for st in state.supertables)
        assert blocks == report["resources"]["tcam_blocks_post_tag"]
        assert state.tag_bits == report["config"]["tag_bits"]
        assert report["tree"]["terminal_entries"] == terminal_count(cli_state.tree)
        assert report["tree"]["total_entries"] == total_entries(cli_state.tree)


class TestReportWork:
    """The report reads the counts the plan already holds: once the state is
    planned, no table's row dict is walked."""

    @pytest.mark.parametrize(
        "db_path, width, strides, hybridize",
        [
            (SYNTHETIC_IPV4, 32, "16-4-4-8", True),
            (Path(__file__).parent / "data" / "overflow.txt", 6, "2-2", False),
        ],
        ids=["ipv4-hybrid", "overflow"],
    )
    def test_render_report_walks_no_row(self, db_path, width, strides, hybridize, monkeypatch):
        planned = PipelineState.planned.__func__

        class RowDict(dict):
            """A table's row dict, whose walks the test forbids."""

        def no_walk(rows):
            raise AssertionError("the report walked a row dict")

        def planned_then_no_walk(cls, *args, **kwargs):
            state = planned(cls, *args, **kwargs)
            for table in state.tree.all_tables():
                table.by_key = RowDict(table.by_key)
            for name in ("items", "values", "keys", "__iter__"):
                monkeypatch.setattr(RowDict, name, no_walk)
            return state

        db = parse_file(db_path, width)
        cfg = PlanConfig(
            db_path=str(db_path), address_width=width, strides=StrideList.parse(strides),
            hybridize=hybridize, factor=Fraction(3), tag_bits=14,
        )
        monkeypatch.setattr(PipelineState, "planned", classmethod(planned_then_no_walk))
        state, report = build_plan(db, cfg)
        monkeypatch.undo()
        assert report["tree"]["terminal_entries"] == terminal_count(state.tree)
        assert report["tree"]["total_entries"] == total_entries(state.tree)
        assert len(state.overflow) == (1 if db_path.name == "overflow.txt" else 0)


class TestParseWork:
    """Parsing and planning read the database's columns: no `Prefix` is made."""

    def test_parse_and_plan_make_no_prefix(self, monkeypatch):
        def no_prefix(self, *args, **kwargs):
            raise AssertionError("a Prefix was made")

        monkeypatch.chdir(ROOT)
        db_path = "tests/data/synthetic-ipv4-500.txt"
        cfg = PlanConfig(
            db_path=db_path, address_width=32, strides=StrideList.parse("16-4-4-8"),
            hybridize=True, factor=Fraction(3), tag_bits=14,
        )
        monkeypatch.setattr(Prefix, "__init__", no_prefix)
        db = parse_file(db_path, 32)
        _, report = build_plan(db, cfg)
        monkeypatch.undo()
        golden = GOLDEN / "synthetic-ipv4-500-16-4-4-8-hybridize.json"
        assert cli.render_json(report).encode() == golden.read_bytes()


class TestBadInput:
    """Each bad input ends with exit 2 and one line on stderr."""

    def plan_error(self, capsys, *extra):
        code, out, err = run(
            capsys, "plan", "--db", str(DATA), "--width", "6", "--strides", "3-3", *extra
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def profile(self, tmp_path, **fields):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(fields))
        return str(path)

    def test_profile_missing_key(self, tmp_path, capsys):
        path = self.profile(tmp_path, stage_count=2, tcam_blocks_per_stage=4)
        assert "sram_pages_per_stage" in self.plan_error(capsys, "--profile", path)

    def test_profile_non_integer_key(self, tmp_path, capsys):
        path = self.profile(
            tmp_path, stage_count=2, tcam_blocks_per_stage="4", sram_pages_per_stage=4
        )
        assert "tcam_blocks_per_stage" in self.plan_error(capsys, "--profile", path)

    def test_profile_negative_capacity(self, tmp_path, capsys):
        path = self.profile(
            tmp_path, stage_count=2, tcam_blocks_per_stage=-4, sram_pages_per_stage=4
        )
        assert ">= 0" in self.plan_error(capsys, "--profile", path)

    def test_negative_tag_bits(self, capsys):
        assert "--tag-bits" in self.plan_error(capsys, "--tag-bits", "-1")

    def test_malformed_grain(self, capsys):
        assert "WxD" in self.plan_error(capsys, "--grain", "44")

    def test_negative_overflow_capacity(self, capsys):
        assert "--overflow-capacity" in self.plan_error(capsys, "--overflow-capacity", "-1")

    @pytest.mark.parametrize("page", ["4x0", "0x4"])
    def test_empty_sram_page(self, page, capsys):
        err = self.plan_error(capsys, "--strides", "2-2-2", "--hybridize", "--sram-page", page)
        assert "SRAM page" in err

    @pytest.mark.parametrize(
        "flag, extra",
        [
            ("--max-mismatches", ("--inject-fault", "--max-mismatches", "-1")),
            ("--samples", ("--mode", "sampled", "--samples", "-5")),
        ],
    )
    def test_negative_verify_counts(self, flag, extra, capsys):
        code, out, err = run(
            capsys, "verify", "--db", str(DATA), "--width", "6", "--strides", "3-3", *extra
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag} must be >= 0") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags, profile, line",
        [
            (("--strides", "8-8-8-8", "--grain", "8x4"), (2, 1, 80),
             "cannot place 5 blocks for a level-0 super-table; 2 blocks free in stages 1..2"),
            (("--strides", "16-4-4-8"), (2, 4, 4),
             "level 2 needs a stage after 2, but the profile has only 2"),
            (("--strides", "16-4-4-8", "--hybridize"), (16, 24, 0),
             "cannot place 1 SRAM pages for level 0; 0 pages free in stages 1..16"),
        ],
    )
    def test_placement_errors(self, flags, profile, line, tmp_path, capsys):
        stages, blocks, pages = profile
        path = self.profile(
            tmp_path, stage_count=stages, tcam_blocks_per_stage=blocks,
            sram_pages_per_stage=pages,
        )
        code, out, err = run(
            capsys, "plan", "--db", str(SYNTHETIC_IPV4), "--width", "32", *flags,
            "--profile", path,
        )
        assert code == 2 and out == ""
        assert err == f"error: {line}\n"

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("analyze", ()),
            ("plan", ("--strides", "3-3")),
            ("verify", ("--strides", "3-3")),
            ("sweep-grain", ("--strides", "3-3", "--widths", "44")),
        ],
    )
    def test_nonpositive_width_is_named(self, command, extra, capsys):
        # checked before parsing, which would blame the first line's length
        code, out, err = run(capsys, command, "--db", str(DATA), "--width", "-3", *extra)
        assert code == 2 and out == ""
        assert err == "error: --width must be >= 1, got -3\n"

    def test_malformed_strides_are_named(self, capsys):
        err = self.plan_error(capsys, "--strides", "16-x")
        assert err == "error: strides must be dash-separated integers, got '16-x'\n"

    # `int` alone reads each of these as 16-4-4-8
    @pytest.mark.parametrize(
        "value", ["1_6-4-4-8", "+16-4-4-8", " 16-4-4-8", "\u0661\u0666-4-4-8"]
    )
    def test_strides_are_ascii_decimal(self, value, capsys):
        err = self.plan_error(capsys, "--strides", value)
        assert err == f"error: strides must be dash-separated integers, got {value!r}\n"

    # `isdigit` takes non-ASCII digits: `int` reads Arabic-Indic ones as
    # ASCII and fails on superscripts with its own message
    @pytest.mark.parametrize(
        "flag, value", [("--grain", "\u0664\u0664x512"), ("--grain", "44x5\u00b9\u00b2"),
                        ("--sram-page", "\u0666\u0664x256"), ("--sram-page", "64x\u00b2")],
    )
    def test_geometries_are_ascii_decimal(self, flag, value, capsys):
        err = self.plan_error(capsys, "--hybridize", flag, value)
        assert err == f"error: expected a WxD geometry such as 44x512, got {value!r}\n"

    def test_sweep_widths_are_ascii_decimal(self, capsys):
        code, out, err = run(
            capsys, "sweep-grain", "--db", str(DATA), "--width", "6",
            "--strides", "3-3", "--widths", "4_4,+18",
        )
        assert code == 2 and out == ""
        assert err == "error: --widths must be comma-separated integers, got '4_4,+18'\n"

    # `Fraction` alone reads `1_0` as 10, and ` 3`, `+3` and `\u0663` as 3
    @pytest.mark.parametrize(
        "value", ["1/0", "abc", "1e5", "2E-3", "1_0", " 3", "+3", "\u0663", "1E3"]
    )
    @pytest.mark.parametrize(
        "command, flag, extra",
        [
            ("plan", "--factor", ("--strides", "3-3", "--hybridize")),
            ("verify", "--factor", ("--strides", "3-3", "--hybridize")),
            ("plan", "--coverage", ("--strides", "3-3")),
            ("verify", "--coverage", ("--strides", "3-3")),
            ("sweep-grain", "--coverage", ("--strides", "3-3", "--widths", "44")),
        ],
    )
    def test_bad_fraction_is_named(self, command, flag, extra, value, capsys):
        # 1/0 used to end in a ZeroDivisionError traceback and exit 1; flags
        # are checked before the database is read, so the missing file is not
        code, out, err = run(
            capsys, command, "--db", "/nonexistent/db.txt", "--width", "6", *extra, flag, value
        )
        assert code == 2 and out == ""
        assert err == f"error: {flag} must be a fraction or decimal, got '{value}'\n"

    # `int` reads each of these as 10 or 5
    @pytest.mark.parametrize("value", ["1_0", " 5", "+5", "\u0665"])
    @pytest.mark.parametrize(
        "command, flag, extra",
        [
            ("analyze", "--width", ()),
            ("plan", "--width", ("--strides", "3-3")),
            ("verify", "--width", ("--strides", "3-3")),
            ("sweep-grain", "--width", ("--strides", "3-3", "--widths", "44")),
            ("plan", "--tag-bits", ("--strides", "3-3")),
            ("plan", "--overflow-capacity", ("--strides", "3-3")),
            ("verify", "--samples", ("--strides", "3-3", "--mode", "sampled")),
            ("verify", "--seed", ("--strides", "3-3", "--mode", "sampled")),
            ("verify", "--max-mismatches", ("--strides", "3-3", "--inject-fault")),
            ("analyze", "--max-level", ()),
        ],
    )
    def test_integer_flags_are_ascii_decimal(self, command, flag, extra, value, capsys):
        # each is read before the database, so the missing file is not
        # blamed; --max-level is checked, as before, once the database is read
        db = str(DATA) if flag == "--max-level" else "/nonexistent/db.txt"
        width = () if flag == "--width" else ("--width", "6")
        code, out, err = run(capsys, command, "--db", db, *width, *extra, flag, value)
        assert code == 2 and out == ""
        assert err == f"error: {flag} must be an integer, got {value!r}\n"

    def test_negative_seed_is_refused(self, capsys):
        # no sample set is lost: Random(-3) draws what Random(3) draws
        db = parse_file(SYNTHETIC_IPV4, 32)
        assert list(cli.verification_addresses(db, False, 40, -3)) == list(
            cli.verification_addresses(db, False, 40, 3)
        )
        code, out, err = run(
            capsys, "verify", "--db", str(DATA), "--width", "6", "--strides", "3-3",
            "--mode", "sampled", "--seed", "-3",
        )
        assert code == 2 and out == ""
        assert err == "error: --seed must be >= 0, got -3\n"

    @pytest.mark.parametrize(
        "flag, value, key",
        [
            ("--factor", "3", "conversion_factor"),
            ("--factor", "3/2", "conversion_factor"),
            ("--factor", "1.5", "conversion_factor"),
            ("--coverage", "0.99", "threshold_coverage"),
            ("--coverage", "1/3", "threshold_coverage"),
        ],
    )
    def test_fraction_flags_take_integers_ratios_and_decimals(self, flag, value, key, capsys):
        code, out, _ = run(
            capsys, "plan", "--db", str(DATA), "--width", "6", "--strides", "2-2-2",
            "--hybridize", flag, value,
        )
        assert code == 0
        assert json.loads(out)["config"][key] == str(Fraction(value))

    def test_malformed_sweep_widths_are_named(self, capsys):
        code, out, err = run(
            capsys, "sweep-grain", "--db", "/nonexistent/db.txt", "--width", "6",
            "--strides", "3-3", "--widths", "18,x",
        )
        assert code == 2 and out == ""
        assert err == "error: --widths must be comma-separated integers, got '18,x'\n"

    @pytest.mark.parametrize(
        "address, reason",
        [
            ("1.2.3.x", "invalid literal for int() with base 10: 'x'"),
            ("1.2.3.999", "octet 999 out of range"),
            ("1.2.3", "dotted form needs four octets"),
            # `int` alone reads each of these as a number, 10.0.0.1_0 as 10.0.0.10
            ("10.0.0.1_0", "invalid literal for int() with base 10: '1_0'"),
            ("+10.0.0.1", "invalid literal for int() with base 10: '+10'"),
            ("10.0.0.\u0664", "invalid literal for int() with base 10: '\u0664'"),
        ],
    )
    def test_bad_dotted_trace_line_is_numbered(self, address, reason, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text(f"10.0.0.1\n{address}\n")
        code, out, err = run(
            capsys, "verify", "--db", str(SYNTHETIC_IPV4), "--width", "32",
            "--strides", "16-16", "--trace", str(trace),
        )
        assert code == 2 and out == ""
        assert err == f"error: line 2: {reason}\n"

    @pytest.mark.parametrize(
        "width, text, line",
        [
            (8, "0000/+4 A\n", "line 1: bad length '+4'"),
            (8, "0000/\u0664 A\n", "line 1: bad length '\u0664'"),
            (8, "1/1 A\n00000000/0_8 B\n", "line 2: bad length '0_8'"),
            # read as 10.0.0.10, this line used to make the next a duplicate
            (32, "10.0.0.1_0/32 A\n10.0.0.10/32 B\n",
             "line 1: invalid literal for int() with base 10: '1_0'"),
            (32, "+10.0.0.1/32 A\n", "line 1: invalid literal for int() with base 10: '+10'"),
        ],
        ids=["sign-length", "arabic-digit-length", "underscore-length", "underscore-octet",
             "sign-octet"],
    )
    def test_database_numbers_are_ascii_decimal(self, width, text, line, tmp_path, capsys):
        db = tmp_path / "db.txt"
        db.write_text(text, encoding="utf-8")
        code, out, err = run(
            capsys, "plan", "--db", str(db), "--width", str(width), "--strides", f"{width}",
        )
        assert code == 2 and out == ""
        assert err == f"error: {line}\n"

    def test_profile_not_json_is_named(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        path.write_text("{stage_count: 2}")
        err = self.plan_error(capsys, "--profile", str(path))
        assert err == (
            f"error: profile {path}: Expecting property name enclosed in double quotes:"
            " line 1 column 2 (char 1)\n"
        )

    def test_database_not_utf8_is_named(self, tmp_path, capsys):
        db = tmp_path / "db.txt"
        db.write_bytes(b"1/1 A\n\xff/1 B\n")
        code, out, err = run(capsys, "plan", "--db", str(db), "--width", "6", "--strides", "3-3")
        assert code == 2 and out == ""
        assert err == (
            f"error: {db}: 'utf-8' codec can't decode byte 0xff in position 6:"
            " invalid start byte\n"
        )

    def test_trace_not_utf8_is_named(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_bytes(b"\xff\n")
        code, out, err = run(
            capsys, "verify", "--db", str(DATA), "--width", "6", "--strides", "3-3",
            "--trace", str(trace),
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: {trace}: 'utf-8' codec can't decode byte 0xff in position 0:"
            " invalid start byte\n"
        )

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("--width", "4611686018427387904", "--strides", "3-3"),
             "--width must be <= 128, got 4611686018427387904"),
            (("--width", "6", "--strides", "2-2-2", "--tag-bits", "9223372036854775808"),
             "--tag-bits must be <= 128, got 9223372036854775808"),
        ],
    )
    def test_oversized_flag_is_named(self, argv, line, capsys):
        # each used to size an allocation and end in a MemoryError traceback
        code, out, err = run(capsys, "plan", "--db", str(DATA), *argv)
        assert code == 2 and out == ""
        assert err == f"error: {line}\n"

    def test_oversized_profile_is_named(self, tmp_path, capsys):
        path = self.profile(
            tmp_path, stage_count=4611686018427387904, tcam_blocks_per_stage=4,
            sram_pages_per_stage=4,
        )
        err = self.plan_error(capsys, "--profile", path)
        assert err == (
            f"error: profile {path}: stage_count must be <= 4096, got 4611686018427387904\n"
        )

    def test_zero_sweep_width(self, capsys):
        code, out, err = run(
            capsys, "sweep-grain", "--db", str(DATA), "--width", "6",
            "--strides", "3-3", "--widths", "0,44",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: grain widths") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, extra, line",
        [
            ("plan", (), "cannot plan for an empty database"),
            ("verify", (), "cannot plan for an empty database"),
            ("sweep-grain", ("--widths", "44"), "cannot sweep an empty database"),
        ],
    )
    def test_empty_database_is_refused(self, command, extra, line, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        code, out, err = run(
            capsys, command, "--db", str(empty), "--width", "6", "--strides", "3-3", *extra
        )
        assert code == 2 and out == ""
        assert err == f"error: {line}\n"

    @pytest.mark.parametrize("value", ["0", "3/2", "-1"])
    @pytest.mark.parametrize("command", ["plan", "verify"])
    def test_coverage_outside_the_unit_interval_is_refused(self, command, value, capsys):
        code, out, err = run(
            capsys, command, "--db", str(DATA), "--width", "6", "--strides", "3-3",
            "--coverage", value,
        )
        assert code == 2 and out == ""
        assert err == "error: coverage must lie in (0, 1]\n"

    def test_profile_not_an_object_is_named(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        path.write_text("[16, 24, 80]")
        err = self.plan_error(capsys, "--profile", str(path))
        assert err == (
            f"error: profile {path}: expected a JSON object with keys stage_count,"
            " tcam_blocks_per_stage, sram_pages_per_stage\n"
        )

    def test_dotted_trace_line_needs_width_32(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("100110\n10.0.0.1\n")
        code, out, err = run(
            capsys, "verify", "--db", str(DATA), "--width", "6", "--strides", "3-3",
            "--trace", str(trace),
        )
        assert code == 2 and out == ""
        assert err == "error: line 2: dotted addresses need width 32\n"

    @pytest.mark.parametrize(
        "extra, line",
        [
            (("--strides", "3-4"), "strides cover 7 bits but addresses have 6"),
            (("--hybridize", "--factor", "1/2"), "conversion factor must be >= 1"),
            (("--grain", "0x4"), "grain width and depth must be >= 1"),
        ],
    )
    def test_plan_flags_out_of_range_are_named(self, extra, line, capsys):
        assert self.plan_error(capsys, *extra) == f"error: {line}\n"

    def test_profile_without_stages_is_named(self, tmp_path, capsys):
        path = self.profile(
            tmp_path, stage_count=0, tcam_blocks_per_stage=4, sram_pages_per_stage=4
        )
        err = self.plan_error(capsys, "--profile", path)
        assert err == f"error: profile {path}: stage_count must be >= 1\n"

    @pytest.mark.parametrize(
        "text, line",
        [
            ("01/3 A\n", "line 1: bits shorter than stated length 3"),
            ("0101010/6 A\n", "line 1: bits longer than address width 6"),
        ],
    )
    def test_database_bits_that_miss_the_length_are_named(self, text, line, tmp_path, capsys):
        db = tmp_path / "db.txt"
        db.write_text(text)
        assert self.plan_error(capsys, "--db", str(db)) == f"error: {line}\n"

    @pytest.mark.parametrize(
        "text, line",
        [("", "{trace}: the trace holds no address"), ("101\n", "line 1: expected a 6-bit address")],
        ids=["empty", "short"],
    )
    def test_bad_trace_wins_over_a_missing_database(self, text, line, tmp_path, capsys):
        # the trace is read before the database, so a bad one is refused at once
        trace = tmp_path / "trace.txt"
        trace.write_text(text)
        code, out, err = run(
            capsys, "verify", "--db", "/nonexistent/db.txt", "--width", "6",
            "--strides", "3-3", "--trace", str(trace),
        )
        assert code == 2 and out == ""
        assert err == f"error: {line.format(trace=trace)}\n"


def test_module_entry_point():
    """`python -m tcamtree` runs the same `main`: a report, a refused flag
    and a failed verification, with their exit codes."""

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "tcamtree", *argv], cwd=ROOT, capture_output=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )

    table = ("--db", "tests/data/table1.txt", "--width", "6")
    proc = module("plan", *table, "--strides", "3-3")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "table1-3-3.json").read_bytes()
    proc = module("plan", *table, "--strides", "3-x")
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
    proc = module("verify", *table, "--strides", "3-3", "--inject-fault")
    assert proc.returncode == 1 and proc.stdout.startswith(b"FAIL")


def benchmark_table(monkeypatch, shape: str):
    """The seed-1 50k table of the benchmark workload of `gen` shape `shape`."""
    monkeypatch.setattr(sys, "path", [str(ROOT / "perfbench"), *sys.path])
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    fresh_gen = "gen" not in sys.modules
    import gen

    if fresh_gen:
        sys.modules.pop("gen")
    db, _ = gen.make_table(getattr(gen, shape), 50_000, 1)
    return db


# (golden report, database, width and flags of `plan`)
PLAN_GOLDENS = [
    ("table1-3-3.json", "tests/data/table1.txt 6 --strides 3-3"),
    ("table1-2-2-2-hybridize.json", "tests/data/table1.txt 6 --strides 2-2-2 --hybridize"),
    (
        "table1-3-3-2-stages.json",
        "tests/data/table1.txt 6 --strides 3-3 --profile tests/data/profile-2-stages.json",
    ),
    (
        "synthetic-ipv4-500-16-4-4-8-hybridize.json",
        "tests/data/synthetic-ipv4-500.txt 32 --strides 16-4-4-8"
        " --hybridize --factor 3 --tag-bits 14",
    ),
    (
        "synthetic-ipv4-500-16-4-4-8-32x16.json",
        "tests/data/synthetic-ipv4-500.txt 32 --strides 16-4-4-8"
        " --grain 32x16 --tag-bits 4",
    ),
    (
        "synthetic-ipv6-500-19-29-16.json",
        "tests/data/synthetic-ipv6-500.txt 64 --strides 19-29-16",
    ),
    # 111111/6 overflows the 2-2 coverage and still counts in the
    # tiling check's b_percent: 200/3, where the tree alone gives 100/3
    ("overflow-2-2.json", "tests/data/overflow.txt 6 --strides 2-2"),
]
# (golden report, `gen` shape of the seed-1 50k benchmark table, flags of `plan`)
BENCHMARK_GOLDENS = [
    ("ipv4-hybrid-50k.json", "IPV4",
     "--strides 16-4-4-8 --hybridize --factor 3 --tag-bits 14"),
    ("ipv6-tcam-50k.json", "IPV6", "--strides 19-29-16"),
]


class TestGolden:
    """`plan` output, byte for byte, against reports committed from an earlier
    version; paths are relative to the repository root, as in the reports."""

    @pytest.mark.parametrize("golden, argv", PLAN_GOLDENS)
    def test_plan_matches_golden(self, golden, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        db, width, *flags = argv.split()
        out = tmp_path / golden
        code, _, _ = run(capsys, "plan", "--db", db, "--width", width, *flags, "--out", str(out))
        assert code == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("golden, shape, flags", BENCHMARK_GOLDENS)
    def test_benchmark_plan_matches_golden(self, golden, shape, flags, tmp_path, monkeypatch,
                                           capsys):
        # the seed-1 50k tables of the benchmark's two workloads, written under
        # a fixed relative name, since the report names its database
        from tcamtree.prefixdb import serialize

        db = benchmark_table(monkeypatch, shape)
        monkeypatch.chdir(tmp_path)
        Path("table.txt").write_bytes(serialize(db).encode())
        code, _, _ = run(
            capsys, "plan", "--db", "table.txt", "--width", str(db.address_width),
            *flags.split(), "--out", golden,
        )
        assert code == 0
        assert (tmp_path / golden).read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [argv for _, argv in PLAN_GOLDENS]
        + [f"{shape} {flags}" for _, shape, flags in BENCHMARK_GOLDENS],
    )
    def test_plan_tcam_bits_meet_the_lower_bound(self, argv, tmp_path, monkeypatch, capsys):
        # a block holds at most `depth` entries, so even a hybridized plan's
        # TCAM bits are at least the lower bound of the entries left in TCAM
        from tcamtree import lower_bound_bits
        from tcamtree.prefixdb import serialize

        db, *flags = argv.split()
        if db in ("IPV4", "IPV6"):
            table = benchmark_table(monkeypatch, db)
            db = str(tmp_path / "table.txt")
            Path(db).write_bytes(serialize(table).encode())
            flags = [str(table.address_width), *flags]
        width, *flags = flags
        monkeypatch.chdir(ROOT)
        plans = []

        def recorded(db, cfg):
            plans.append((cfg, *build_plan(db, cfg)))
            return plans[-1][1:]

        monkeypatch.setattr(cli, "build_plan", recorded)
        code, _, _ = run(capsys, "plan", "--db", db, "--width", width, *flags)
        assert code == 0
        [(cfg, state, report)] = plans
        entries = sum(st.total_entries for st in state.supertables)
        assert report["resources"]["tcam_bits"] >= lower_bound_bits(entries, cfg.grain)

    @pytest.mark.parametrize(
        "table, width, strides, tag_bits",
        [
            ("table1.txt", 6, "2-2-2", None),
            ("synthetic-ipv4-500.txt", 32, "16-4-4-8", 14),
            ("IPV4", 32, "16-4-4-8", 14),
        ],
    )
    def test_hybridized_golden_sram_tables_expand_to_their_rows(
        self, table, width, strides, tag_bits, monkeypatch
    ):
        # the plans of the hybridized goldens above; IPV4 is the seed-1 50k
        # benchmark table
        if table == "IPV4":
            db = benchmark_table(monkeypatch, table)
        else:
            db = parse_file(GOLDEN.parent / table, width)
        cfg = PlanConfig(
            db_path=table, address_width=width, strides=StrideList.parse(strides),
            hybridize=True, tag_bits=tag_bits,
        )
        state, _ = build_plan(db, cfg)
        assert check_expansion_counts(state.tree) > 0

    @pytest.mark.parametrize(
        "golden, db, width",
        [
            ("synthetic-ipv4-500-analyze.csv", "synthetic-ipv4-500.txt", "32"),
            ("synthetic-ipv6-500-analyze.csv", "synthetic-ipv6-500.txt", "64"),
        ],
    )
    def test_analyze_matches_golden(self, golden, db, width, tmp_path, capsys):
        out = tmp_path / golden
        db_path = str(Path(__file__).parent / "data" / db)
        code, _, _ = run(capsys, "analyze", "--db", db_path, "--width", width, "--out", str(out))
        assert code == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()


class TestVerify:
    def test_pass_on_table1(self, capsys):
        for strides in ("6", "3-3", "2-2-2"):
            code, out, _ = run(
                capsys, "verify", "--db", str(DATA), "--width", "6", "--strides", strides
            )
            assert code == 0
            assert out == "PASS 64/64\n"

    def test_fault_injection_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--db", str(DATA), "--width", "6", "--strides", "3-3",
            "--inject-fault",
        )
        assert code == 1
        assert "FAIL" in out and "corrupt" in out

    @pytest.mark.parametrize("listed", [2, 0])
    def test_fault_injection_reports_the_total(self, listed, capsys):
        # hybridized, the root is SRAM and answers through its expansion,
        # which must read the corrupted next hops, not copies of them
        state = PipelineState.planned(
            parse_file(DATA, 6), StrideList.parse("3-3"), hybrid=HybridizationConfig()
        )
        assert state.tree.root.kind == SRAM and state.tree.root.lengths == (3, 1)
        for hybrid in ((), ("--hybridize",)):
            code, out, _ = run(
                capsys, "verify", "--db", str(DATA), "--width", "6", "--strides", "3-3",
                "--inject-fault", "--max-mismatches", str(listed), *hybrid,
            )
            # every address under a prefix of table 1 (all that start with 1)
            # is wrong, however few of them are listed
            assert code == 1
            lines = out.splitlines()
            assert lines[0] == f"FAIL 32 of 64 addresses mismatch; first {listed}:"
            assert len(lines) == 1 + listed

    @pytest.mark.parametrize("hybrid", [(), ("--hybridize",)])
    def test_fault_injection_reaches_a_terminal_kept_for_its_child(self, hybrid, tmp_path,
                                                                  capsys):
        # 100/3 ends at the root's full stride and keeps the child that
        # 100110/6 needs, so 100xxx but 100110 is answered by the value that
        # child holds for it: each address under 1/1 mismatches
        db = tmp_path / "db.txt"
        db.write_text("100000/3 A\n100110/6 E\n100000/1 B\n")
        state = PipelineState.planned(parse_file(db, 6), StrideList.parse("3-3"))
        assert row_at(state.tree.root, 3, 0b100).bmp_local_len == 3
        code, out, _ = run(
            capsys, "verify", "--db", str(db), "--width", "6", "--strides", "3-3",
            "--inject-fault", "--max-mismatches", "64", *hybrid,
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "FAIL 32 of 64 addresses mismatch; first 32:"
        expected = {v: "E" if v == 0b100110 else "A" if v >> 3 == 0b100 else "B"
                    for v in range(32, 64)}
        assert lines[1:] == [f"({v:06b}, {hop}?corrupt, {hop})" for v, hop in expected.items()]

    def test_builds_no_report(self, monkeypatch, capsys):
        # verify checks the state alone: the lean row, the bounds model, the
        # resource totals and the report are never made
        from tcamtree import bounds

        def forbidden(*args, **kwargs):
            raise AssertionError("verify built part of a plan report")

        for module, name in ((cli, "_render_report"), (bounds, "build_report"),
                             (cli, "lean_row"), (cli, "resource_totals")):
            monkeypatch.setattr(module, name, forbidden)
        for hybrid in ((), ("--hybridize",)):
            code, out, _ = run(
                capsys, "verify", "--db", str(DATA), "--width", "6", "--strides", "3-3", *hybrid
            )
            assert (code, out) == (0, "PASS 64/64\n")

    def test_pass_with_an_overflow_buffer(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--db", str(OVERFLOW), "--width", "6", "--strides", "2-2"
        )
        assert code == 0
        assert out == "PASS 64/64\n"

    @pytest.mark.parametrize("strides", ["19-29-16", "19-29-16-64"])
    def test_width_128_entries_beyond_the_strides_wait_in_the_buffer(self, strides, tmp_path,
                                                                     capsys):
        # the second way to fill the buffer: /20 to /100 prefixes over 128
        # bits, about half drawn under an earlier one; with 19-29-16 every
        # entry longer than /64 waits in the buffer, with 19-29-16-64 none does
        rng = random.Random(128)
        entries = {}
        while len(entries) < 400:
            head = rng.choice(list(entries)) if entries and rng.random() < 0.5 else ""
            if len(head) == 100:
                continue
            free = rng.randint(max(20, len(head) + 1), 100) - len(head)
            bits = head + format(rng.getrandbits(free), f"0{free}b")
            entries.setdefault(bits, f"h{rng.randrange(16)}")
        table = tmp_path / "wide.txt"
        table.write_text("".join(f"{b.ljust(128, '0')}/{len(b)} {h}\n" for b, h in entries.items()))
        code, out, err = run(
            capsys, "verify", "--db", str(table), "--width", "128", "--strides", strides
        )
        assert code == 0 and out.startswith("PASS "), (out, err)
        db = parse_file(table, 128)
        coverage = StrideList.parse(strides).coverage
        state = PipelineState.planned(db, StrideList.parse(strides))
        beyond = sorted(
            (p.length, int(p.bits, 2), p.next_hop) for p in db.entries if p.length > coverage
        )
        assert buffered(state) == beyond
        assert len(beyond) > 100 if coverage == 64 else beyond == []

    def test_fault_injection_with_an_overflow_buffer(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--db", str(OVERFLOW), "--width", "6", "--strides", "2-2",
            "--inject-fault", "--max-mismatches", "64",
        )
        # the tree's terminals under 0000/4 and 01/2 are corrupted; 111111/6
        # lives in the overflow buffer, which wins its tie and stays right
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "FAIL 20 of 64 addresses mismatch; first 20:"
        assert lines[1:] == [
            f"({value:06b}, {hop}?corrupt, {hop})"
            for value, hop in [(v, "A") for v in range(4)] + [(v, "C") for v in range(16, 32)]
        ]

    def test_trace_replay(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("100110\n# comment\n011111\n\n111111\n")
        code, out, _ = run(
            capsys, "verify", "--db", str(DATA), "--width", "6", "--strides", "3-3",
            "--trace", str(trace),
        )
        assert code == 0
        assert out == "PASS 3/3\n"

    @pytest.mark.parametrize("text", ["", "\n# comment only\n\n"])
    def test_trace_with_no_address_is_refused(self, text, tmp_path, capsys):
        # it used to print PASS 0/0 and exit 0, having checked nothing
        trace = tmp_path / "trace.txt"
        trace.write_text(text)
        code, out, err = run(
            capsys, "verify", "--db", str(DATA), "--width", "6", "--strides", "3-3",
            "--trace", str(trace),
        )
        assert code == 2 and out == ""
        assert err == f"error: {trace}: the trace holds no address\n"

    def test_trace_rejects_bad_lines(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("10011\n")
        code, _, err = run(
            capsys, "verify", "--db", str(DATA), "--width", "6", "--strides", "3-3",
            "--trace", str(trace),
        )
        assert code == 2 and "error:" in err

    def test_sampled_mode_is_seed_deterministic(self, capsys):
        args = (
            "verify", "--db", str(DATA), "--width", "6", "--strides", "3-3",
            "--mode", "sampled", "--samples", "40", "--seed", "7",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_the_seed_picks_the_samples(self):
        db = parse_file(SYNTHETIC_IPV4, 32)
        one, two = (list(cli.verification_addresses(db, False, 40, seed)) for seed in (1, 2))
        assert len(one) == len(two) and one != two

    @pytest.mark.parametrize("args, error", [
        (("--trace", "TRACE"), "--seed has no effect:"),
        (("--mode", "exhaustive"), "--seed has no effect:"),
        (("--mode", "auto"), "--seed has no effect:"),   # a 6-bit space is checked whole
        # not blamed on --seed: the exhaustive check itself is refused
        (("--width", "32", "--strides", "16-16", "--mode", "exhaustive"),
         "exhaustive verification of a 32-bit space is not tractable"),
        (("--mode", "sampled"), None),
        (("--mode", "sampled", "--samples", "0"), "--seed has no effect:"),
    ])
    def test_seed_is_refused_when_no_address_is_sampled(self, args, error, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("100110\n")
        args = [str(trace) if a == "TRACE" else a for a in args]
        got, out, err = run(
            capsys, "verify", "--db", str(DATA), "--width", "6", "--strides", "3-3",
            *args, "--seed", "7",
        )
        if error:
            assert got == 2 and out == "" and err.startswith(f"error: {error}")
            assert err.count("\n") == 1
        else:
            assert got == 0 and out == "PASS 64/64\n"

    def test_intractable_exhaustive_check_is_refused_before_the_database(self, capsys):
        code, out, err = run(
            capsys, "verify", "--db", "/nonexistent/db.txt", "--width", "32",
            "--strides", "16-16", "--mode", "exhaustive",
        )
        assert code == 2 and out == ""
        assert err == (
            "error: exhaustive verification of a 32-bit space is not tractable;"
            " use --mode sampled\n"
        )

    def test_trace_replay_ignores_an_intractable_mode(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("0" * 32 + "\n10.1.2.3\n" + "1" * 32 + "\n")
        code, out, _ = run(
            capsys, "verify", "--db", str(SYNTHETIC_IPV4), "--width", "32",
            "--strides", "16-4-4-8", "--mode", "exhaustive", "--trace", str(trace),
        )
        assert (code, out) == (0, "PASS 3/3\n")

    def test_seed_is_a_verify_flag_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--db", str(DATA), "--width", "6", "--strides", "3-3", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_sampled_mode_stops_once_the_space_is_exhausted(self, capsys, monkeypatch):
        # far more samples than the 64 addresses of a 6-bit space: drawing
        # stops once every address has been seen, not after 10**12 draws
        class CappedRandom(random.Random):
            draws = 0

            def getrandbits(self, k):
                CappedRandom.draws += 1
                assert CappedRandom.draws <= 100_000, "still drawing after the space was exhausted"
                return super().getrandbits(k)

        monkeypatch.setattr(cli.random, "Random", CappedRandom)
        code, out, _ = run(
            capsys, "verify", "--db", str(DATA), "--width", "6", "--strides", "3-3",
            "--mode", "sampled", "--samples", "1000000000000",
        )
        assert code == 0
        assert out == "PASS 64/64\n"
        assert 0 < CappedRandom.draws < 100_000


class TestSweep:
    def test_toy_sweep_rows(self, capsys):
        code, out, _ = run(
            capsys, "sweep-grain", "--db", str(DATA), "--width", "6",
            "--strides", "3-3", "--widths", "3,6", "--grain", "6x512",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("grain_width,grain_depth,single_tcam_bits")
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["3", "6"]
        # tree bits never exceed the single-table bits at the same grain
        for r in rows:
            assert int(r[5]) <= int(r[2])

    def test_no_tree_when_every_entry_is_beyond_the_strides(self, capsys):
        # the tree holds nothing, so it costs no bits and its improvement is
        # infinite, as `plan` reports it, rather than a division by zero
        code, out, err = run(
            capsys, "sweep-grain", "--db", str(OVERFLOW), "--width", "6",
            "--strides", "1", "--widths", "4",
        )
        assert (code, err) == (0, "")
        cols = out.splitlines()[1].split(",")
        assert cols[4:] == ["0", "0", "infinite"]

    def test_width_at_threshold_collapses_to_single(self, capsys):
        # when the grain is as wide as the threshold length, a tree cannot win,
        # so the tree column equals the single-table column
        code, out, _ = run(
            capsys, "sweep-grain", "--db", str(DATA), "--width", "6",
            "--strides", "3-3", "--widths", "6,8", "--grain", "6x512",
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            cols = line.split(",")
            assert cols[5] == cols[2]

    def test_single_tcam_bits_follow_formula(self, capsys):
        from tcamtree import single_tcam_baseline, GrainSpec

        code, out, _ = run(
            capsys, "sweep-grain", "--db", str(DATA), "--width", "6",
            "--strides", "3-3", "--widths", "6,7,8", "--depth-rule", "fixed",
            "--grain", "6x512",
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            cols = line.split(",")
            w = int(cols[0])
            expected = single_tcam_baseline(6, 6, GrainSpec(w, 512))[1]
            assert int(cols[2]) == expected


def load_tracer():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_targets_resolve():
    # perfbench/run.py --trace 1 patches these names; a rename must fail here,
    # not only in the multi-minute perfbench smoke test
    tracer = load_tracer()
    assert tracer.TARGETS
    for name, owner, attr, _ in tracer.TARGETS:
        assert callable(getattr(owner, attr, None)), name


def test_benchmark_tracer_records_the_planning_layers():
    # the per-layer metrics read these spans and hot counts; a call that stops
    # going through a patched name would quietly read zero
    from tcamtree import cli

    t = load_tracer().Tracer()
    cfg = PlanConfig(
        db_path=str(DATA), address_width=6, strides=StrideList.parse("3-3"), hybridize=True
    )
    db = parse_file(DATA, 6)
    t.install()
    try:
        cli.build_plan(db, cfg)
    finally:
        t.uninstall()
    names = {span[0] for span in t.spans}
    assert {"packing.hybridize", "packing.tag_and_pack", "pipeline.map_to_pipeline"} <= names
    assert t.hot_snapshot()["packing.sram_rows_for_table"][0] > 0


def test_benchmark_tracer_counts_the_lookup_layers():
    # tiler.lookup_calls and pipeline.search_self_s read these hot counts: a
    # search walks the tree in one TreeTable.lookup call, however many
    # tables it visits, and a walk split back into per-table calls would
    # quietly change them
    state = PipelineState.planned(parse_file(DATA, 6), StrideList.parse("3-3"))
    addresses = [format(v, "06b") for v in range(64)]
    t = load_tracer().Tracer()
    t.install()
    try:
        for address in addresses:
            state.search(address)
    finally:
        t.uninstall()
    hot = t.hot_snapshot()
    root = state.tree.root
    descents = sum(
        1 for a in addresses if row_at(root, 3, int(a[:3], 2)).__class__ is TreeTable
    )
    assert descents > 0
    assert hot["pipeline.search"][0] == 64
    assert hot["tiler.lookup"][0] == 64


@pytest.fixture
def bench(monkeypatch):
    """perfbench/run.py, loaded read-only: no bytecode written, and the `gen`
    module it imports dropped again unless it was loaded before."""
    import importlib.util

    monkeypatch.setattr(sys, "path", [str(ROOT / "perfbench"), *sys.path])   # for `gen`
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "perfbench_run", module)   # its dataclasses look it up
    fresh_gen = "gen" not in sys.modules
    try:
        spec.loader.exec_module(module)
    finally:
        if fresh_gen:
            sys.modules.pop("gen", None)
    return module


def test_benchmark_counts_the_blocks_the_plan_hands_out(bench):
    # perfbench/run.py reports tcam_blocks by reading the stage map's spans; a
    # PipelinePlan change that breaks that reading must fail here
    from tcamtree import Prefix, PrefixDatabase
    from tcamtree.pipeline import PipelineProfile

    db = PrefixDatabase(8, [Prefix(format(i, "06b"), 6, f"h{i}") for i in range(4)])
    state = PipelineState.planned(
        db, StrideList.parse("6-2"), grain=GrainSpec(8, 4),
        profile=PipelineProfile(stage_count=4, tcam_blocks_per_stage=4, sram_pages_per_stage=4),
    )
    for i in range(4, 7):
        state.insert(Prefix(format(i, "06b"), 6, f"h{i}"))
        state.insert(Prefix(format(i, "06b") + "01", 8, f"g{i}"))
    assert len(state.overflow) == 0 and state.plan.extra_spans
    blocks = sum(st.allocated_blocks for st in state.supertables)
    assert bench.blocks_in_use(state) == blocks == sum(state.plan._tcam_next)


def test_benchmark_reads_the_structure_it_declares(bench):
    # perfbench/run.py's per-layer structure figures walk the tree and the
    # super-tables; a change to either that breaks the walk must fail here
    from tcamtree import Prefix
    from tcamtree.pipeline import PipelineProfile

    declared = {
        m["name"]: m["unit"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    }
    # timings and call counts come from the tracer, not from the structure
    structure = {
        name for name, unit in declared.items()
        if name.startswith(("tiler.", "packing.")) and unit not in ("s", "us")
        and name != "tiler.lookup_calls"
    }
    db = parse_file(SYNTHETIC_IPV4, 32)
    state = PipelineState.planned(
        db, StrideList.parse("16-4-4-8"), profile=PipelineProfile(),
        hybrid=HybridizationConfig(factor=Fraction(3)),
    )
    # a new level-1 table joins a super-table, and leaves it again
    new = Prefix("1" * 20, 20, "x")
    state.insert(new)
    state.delete(new)
    state.insert(Prefix("0" * 24, 24, "y"))
    run = bench.Run("structure", None, 0, 0.0, None)
    run.quality = {"sram_pages": 1}
    run.put_structure(state)
    assert structure <= set(run.metrics)
    for name, (value, unit) in run.metrics.items():
        assert unit == declared[name], name
    tree, sts = state.tree, state.supertables
    assert run.metrics["tiler.stub_rows"][0] == sum(t.stub_count() for t in tree.all_tables()) > 0
    assert run.metrics["packing.supertables"][0] == len(sts) > 1
    sram_tables = sum(t.kind == SRAM for t in tree.all_tables())
    assert run.metrics["packing.sram_tables"][0] == sram_tables > 0
    assert 0 < run.metrics["packing.empty_entry_ratio"][0] < 1
